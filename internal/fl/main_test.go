package fl

import (
	"os"
	"testing"

	"quickdrop/internal/leakcheck"
)

// TestMain fails the package when a worker goroutine outlives its tests.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m, nil)) }

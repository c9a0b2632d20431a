package leakcheck

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLocksNamesTheMethodThatLeaks(t *testing.T) {
	var free, held sync.Mutex
	err := Locks([]Lock{
		{Method: "T.Balanced", Mutex: "T.free", Mu: &free, Call: func() { free.Lock(); free.Unlock() }},
		{Method: "T.Leaky", Mutex: "T.held", Mu: &held, Call: func() { held.Lock() }},
	})
	if err == nil || !strings.Contains(err.Error(), "T.Leaky returned with T.held held") {
		t.Fatalf("Locks = %v, want the T.Leaky leak named", err)
	}
	if !free.TryLock() {
		t.Fatal("Locks left a balanced probe's mutex held")
	}
}

func TestGoroutinesReportsSurvivorsWithTheirStacks(t *testing.T) {
	stop := make(chan struct{})
	go func() { <-stop }()
	err := Goroutines(20 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "created by quickdrop/internal/leakcheck.TestGoroutinesReportsSurvivorsWithTheirStacks") {
		t.Fatalf("Goroutines = %v, want the blocked goroutine's stack", err)
	}
	close(stop)
	if err := Goroutines(2 * time.Second); err != nil {
		t.Fatalf("after the goroutine exits: %v", err)
	}
}

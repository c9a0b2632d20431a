package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// trajectoryPin is the sha256 of the trained fixture's SaveState after a
// class-level Unlearn, one Recover round and the Relearn of that class,
// on linux/amd64. Every step in between — Train's second-order
// distillation, SGA, recovery, relearning — feeds the bytes, so a change
// that moves any trajectory by one bit changes it. A change that is meant
// to move trajectories updates this constant and says so; a change that
// claims to keep them must leave it alone.
const trajectoryPin = "f1c057e40e23b152b4487c5c51048da718b5b1a8a24103920454d9aa01eb56f9"

// stateDigest returns the hex sha256 of sys's SaveState.
func stateDigest(t *testing.T, sys *System) string {
	t.Helper()
	h := sha256.New()
	if err := sys.SaveState(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTrajectoryPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds and round differently.
		t.Skipf("pin recorded on amd64, running on %s", runtime.GOARCH)
	}
	sys, _ := trainedSystem(t)
	req := Request{Kind: ClassLevel, Class: 3}
	if _, err := sys.Unlearn(req); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recover(1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Relearn(req); err != nil {
		t.Fatal(err)
	}
	if got := stateDigest(t, sys); got != trajectoryPin {
		t.Fatalf("state after Train, Unlearn, Recover and Relearn hashes to\n\t%s\nwant\n\t%s", got, trajectoryPin)
	}
}

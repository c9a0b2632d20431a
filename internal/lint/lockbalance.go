package lint

import (
	"go/ast"
)

// LockBalance enforces mutex discipline on the CFG: a sync.Mutex or
// sync.RWMutex locked inside a function must be unlocked on every
// non-panicking path out of it — deferred Unlocks (including ones inside
// deferred closures) count on every exit, an early return that skips the
// Unlock is a leak, a second Lock of the same receiver on one path is a
// self-deadlock, a Lock (or RLock) while the read lock is already held
// is an upgrade deadlock, and an Unlock/RUnlock on a provably-unlocked
// receiver is a misuse that panics at runtime.
//
// Receivers are tracked by their selector path from a root object
// ("s.mu", "stdImporter"), so distinct instances of one struct type are
// distinct locks. Rebinding the root object degrades the state to
// unknown, which silences every check — the no-false-positives bias of
// the suite. Functions that only Unlock (callee-release helpers) are
// not judged: the analysis only activates for receivers the function
// itself Locks or RLocks.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "every Lock/RLock must be released on every path; no double-lock, no unlock-without-lock",
	Run:  runLockBalance,
}

// The lock lattice is the powerset of these states.
const (
	lkUnlocked pathState = 1 << iota // provably not held on this path
	lkLocked                         // write lock held
	lkRLocked                        // read lock held
)

var lockSpec = &balanceSpec{
	scan: syncScan(isMutexMethod, map[syncOp]balanceOp{
		opLock:    balAcquire,
		opRLock:   balAcquireShared,
		opUnlock:  balRelease,
		opRUnlock: balReleaseShared,
	}),
	step: lockStep,
	verdict: func(e exitStates, name string) string {
		if e.normal&(lkLocked|lkRLocked) == 0 {
			return ""
		}
		return name + " is not unlocked on every path; a branch or early return leaks the lock"
	},
}

// lockStep is the lock transition table. A misuse reports and degrades
// the receiver to unknown, so one bug does not cascade.
func lockStep(op balanceOp, st pathState, name string) (pathState, string) {
	switch op {
	case balAcquire:
		if st&lkLocked != 0 {
			return 0, name + ".Lock on a path where the lock is already held; relocking deadlocks the goroutine"
		}
		if st&lkRLocked != 0 {
			return 0, name + ".Lock while its read lock is held on this path; the upgrade deadlocks"
		}
		return lkLocked, ""
	case balAcquireShared:
		if st&lkLocked != 0 {
			return 0, name + ".RLock while its write lock is held on this path; same-goroutine reacquisition deadlocks"
		}
		if st&lkRLocked != 0 {
			// Recursive read-locking: legal but beyond the single-bit
			// domain.
			return 0, ""
		}
		return lkRLocked, ""
	case balRelease:
		if st == lkUnlocked {
			return 0, name + ".Unlock without a Lock on this path; unlocking an unlocked mutex panics"
		}
	case balReleaseShared:
		if st == lkUnlocked {
			return 0, name + ".RUnlock without an RLock on this path; unlocking an unlocked mutex panics"
		}
	}
	return lkUnlocked, "" // a release
}

func runLockBalance(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		funcUnits(f, func(body *ast.BlockStmt) {
			// A unit is judged for the receivers it Locks or RLocks
			// itself; a Lock inside a deferred closure is the closure's.
			checkBalance(pass, info, body, lockSpec, syncSites(info, body, isMutexMethod, opLock, opRLock))
		})
	}
}

// Package p exercises mutex lock/unlock balance on the CFG.
package p

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

// balanced is clean: the deferred Unlock covers every exit.
func (s *store) balanced(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data[k]
}

// explicitBranches is clean: every path Unlocks exactly once.
func (s *store) explicitBranches(k string, fast bool) int {
	s.mu.Lock()
	if fast {
		v := s.data[k]
		s.mu.Unlock()
		return v
	}
	v := s.data[k] * 2
	s.mu.Unlock()
	return v
}

// deferredClosure is clean: the deferred literal releases on every exit.
func (s *store) deferredClosure(k string) int {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	return s.data[k]
}

// earlyReturnLeak forgets the Unlock on the error path.
func (s *store) earlyReturnLeak(k string, bad bool) int {
	s.mu.Lock() // want `s.mu is not unlocked on every path`
	if bad {
		return -1
	}
	v := s.data[k]
	s.mu.Unlock()
	return v
}

// branchLeak releases on one branch only.
func (s *store) branchLeak(k string, fast bool) int {
	s.mu.Lock() // want `s.mu is not unlocked on every path`
	if fast {
		s.mu.Unlock()
	}
	return s.data[k]
}

// doubleLock re-acquires a lock this goroutine already holds.
func (s *store) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want `relocking deadlocks`
	s.mu.Unlock()
}

// loopRelock deadlocks on the second iteration: the loop body never
// releases what the first iteration acquired.
func (s *store) loopRelock(keys []string) {
	for range keys {
		s.mu.Lock() // want `relocking deadlocks` `s.mu is not unlocked on every path`
	}
}

// rangeBranchUnlock is clean: every path through the range body
// Unlocks exactly once, like the same body in a three-clause loop.
func (s *store) rangeBranchUnlock(xs []int) int {
	n := 0
	for _, x := range xs {
		s.mu.Lock()
		if x > 0 {
			s.mu.Unlock()
			continue
		}
		n++
		s.mu.Unlock()
	}
	return n
}

// rangeSkipsUnlock deadlocks on the iteration after a positive x: the
// continue skips the Unlock.
func (s *store) rangeSkipsUnlock(xs []int) {
	for _, x := range xs {
		s.mu.Lock() // want `relocking deadlocks` `s.mu is not unlocked on every path`
		if x > 0 {
			continue
		}
		s.mu.Unlock()
	}
}

// doubleUnlock releases twice; the second Unlock panics at runtime.
func (s *store) doubleUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock() // want `Unlock without a Lock on this path`
}

// deferredDoubleUnlock is the defer-shaped double release.
func (s *store) deferredDoubleUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock() // want `Unlock without a Lock on this path`
	s.mu.Unlock()
}

// upgrade deadlocks: Lock while the read lock is held.
func (s *store) upgrade(k string) {
	s.rw.RLock()
	s.rw.Lock() // want `while its read lock is held on this path; the upgrade deadlocks`
	_ = s.data[k]
}

// writeThenRead deadlocks: RLock while this goroutine holds the write
// lock.
func (s *store) writeThenRead(k string) {
	s.rw.Lock()
	s.rw.RLock() // want `RLock while its write lock is held on this path; same-goroutine reacquisition deadlocks`
	_ = s.data[k]
}

// doubleRUnlock releases the read lock twice; the second RUnlock panics
// at runtime.
func (s *store) doubleRUnlock() {
	s.rw.RLock()
	s.rw.RUnlock()
	s.rw.RUnlock() // want `RUnlock without an RLock on this path`
}

// readThenWrite is clean: the read lock is released before the write
// lock is taken.
func (s *store) readThenWrite(k string, v int) {
	s.rw.RLock()
	present := s.data[k] != 0
	s.rw.RUnlock()
	if present {
		return
	}
	s.rw.Lock()
	s.data[k] = v
	s.rw.Unlock()
}

// rleak forgets the RUnlock on the early return.
func (s *store) rleak(k string, bad bool) int {
	s.rw.RLock() // want `s.rw is not unlocked on every path`
	if bad {
		return -1
	}
	v := s.data[k]
	s.rw.RUnlock()
	return v
}

// distinctReceivers is clean: a.mu and b.mu are different locks, each
// balanced on its own.
func distinctReceivers(a, b *store) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// goroutineBody is its own unit: the literal's imbalance is reported
// inside it, not against the spawning function.
func (s *store) goroutineBody(bad bool) {
	go func() {
		s.mu.Lock() // want `s.mu is not unlocked on every path`
		if bad {
			return
		}
		s.mu.Unlock()
	}()
}

// panicPathExempt is clean: the panicking exit is not a leak (the
// deferred recovery story is the caller's problem, as with poolbalance).
func (s *store) panicPathExempt(k string) int {
	s.mu.Lock()
	if s.data == nil {
		panic("nil store")
	}
	v := s.data[k]
	s.mu.Unlock()
	return v
}

// rebound is silenced: the root object is reassigned mid-flight, so the
// state degrades to unknown rather than guessing.
func rebound(a, b *store, swap bool) {
	a.mu.Lock()
	if swap {
		a = b
	}
	a.mu.Unlock()
}

// suppressed hands the lock to the caller on purpose.
func (s *store) suppressed() {
	s.mu.Lock() //lint:allow lockbalance intentional lock handoff; caller must call unlockStore
}

func (s *store) unlockStore() {
	// Only Unlocks: release helpers are not judged (no Lock in unit).
	s.mu.Unlock()
}

// Package bank exercises the whole-program lock-order analysis.
package bank

import "sync"

type Account struct {
	Mu      sync.Mutex
	Balance int
}

type Ledger struct {
	Mu      sync.Mutex
	Entries int
}

type Audit struct {
	Mu   sync.Mutex
	Rows int
}

type Stats struct {
	Mu    sync.Mutex
	Peaks int
}

// Deposit establishes the order Account → Ledger.
func Deposit(a *Account, l *Ledger, n int) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	a.Balance += n
	l.Mu.Lock() // want `potential deadlock: bank.Ledger.Mu is acquired while bank.Account.Mu is held`
	l.Entries++
	l.Mu.Unlock()
}

// Reconcile reverses it: Ledger → Account. Together with Deposit this
// is a classic AB/BA deadlock.
func Reconcile(a *Account, l *Ledger) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	a.Mu.Lock() // want `potential deadlock: bank.Account.Mu is acquired while bank.Ledger.Mu is held`
	a.Balance = l.Entries
	a.Mu.Unlock()
}

// Transfer locks two instances of one class with no global order; two
// concurrent calls with swapped operands deadlock. The rule does not
// judge instances of one class.
func Transfer(from, to *Account, n int) {
	from.Mu.Lock()
	defer from.Mu.Unlock()
	to.Mu.Lock()
	to.Balance += n
	from.Balance -= n
	to.Mu.Unlock()
}

// Snapshot is clean: Stats is only ever acquired last, so the
// Ledger → Stats edge belongs to no cycle.
func Snapshot(l *Ledger, st *Stats) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	st.Mu.Lock()
	st.Peaks = l.Entries
	st.Mu.Unlock()
}

// ReleaseThenTake is clean: the first lock is released before the
// second is acquired, so no ordering edge exists.
func ReleaseThenTake(a *Account, au *Audit) {
	au.Mu.Lock()
	rows := au.Rows
	au.Mu.Unlock()
	a.Mu.Lock()
	a.Balance = rows
	a.Mu.Unlock()
}

// SpawnIndependent is clean: the goroutine acquires on its own
// schedule, not inside the spawner's critical section.
func SpawnIndependent(a *Account, au *Audit) {
	a.Mu.Lock()
	defer a.Mu.Unlock()
	go func() {
		au.Mu.Lock()
		au.Rows++
		au.Mu.Unlock()
	}()
}

// Pair's locks are only ever ordered B → A, by LockBA.
type Pair struct {
	A, B sync.Mutex
}

// RangeBranches is clean: A is held only on the branch that does not
// take B, and the branch that takes B releases it and continues before
// A is locked again.
func RangeBranches(p *Pair, xs []int) {
	for _, x := range xs {
		if x > 0 {
			p.A.Lock()
		} else {
			p.B.Lock()
			p.B.Unlock()
			continue
		}
		p.A.Unlock()
	}
}

// LockBA takes B, then A.
func LockBA(p *Pair) {
	p.B.Lock()
	defer p.B.Unlock()
	p.A.Lock()
	p.A.Unlock()
}

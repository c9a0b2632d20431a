// Package par is the module's one fan-out primitive. A Group owns the
// WaitGroup idiom — Add before the go statement, Done deferred inside
// it — so no call site can move the Add into the goroutine or skip the
// Done on an early return. It is the standard library's
// sync.WaitGroup.Go (Go 1.25) for a module that builds with Go 1.22.
package par

import "sync"

// Group runs functions on their own goroutines and waits for them. The
// zero value is ready to use; a Group must not be copied after first use.
type Group struct{ wg sync.WaitGroup }

// Go runs fn on a new goroutine that Wait waits for.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

// Wait blocks until every function started by Go has returned.
func (g *Group) Wait() { g.wg.Wait() }

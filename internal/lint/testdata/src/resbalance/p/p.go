// Package p exercises contract-declared acquire/release balance.
package p

import "quickdrop/internal/res"

type holder struct{ c *res.Conn }

func balanced() {
	c := res.Open()
	if c == nil {
		return
	}
	defer c.Close()
	c.Ping()
}

func straightLine() {
	c := res.Open()
	c.Ping()
	c.Close()
}

func leaks() {
	c := res.Open() // want "acquired conn has no matching release"
	c.Ping()
}

func branchLeak(flag bool) {
	c := res.Open() // want "not released on every path"
	if flag {
		return
	}
	if c != nil {
		c.Close()
	}
}

func doubleRelease() {
	c := res.Open()
	c.Close()
	c.Close() // want "released twice on this path"
}

func discards() {
	res.Open()     // want "discarded"
	_ = res.Open() // want "discarded"
}

func overwrites() {
	c := res.Open()
	c = res.Open() // want "acquire overwrites a still-held conn"
	c.Close()
}

// provide returns the conn it opens: ownership moves to the caller, so
// provide is itself an acquirer by derivation.
func provide() *res.Conn {
	c := res.Open()
	return c
}

func helperLeak() {
	c := provide() // want "acquired conn has no matching release"
	c.Ping()
}

// closeIt releases its parameter, so calling it discharges the
// caller's obligation.
func closeIt(c *res.Conn) {
	if c != nil {
		c.Close()
	}
}

func helperBalanced() {
	c := res.Open()
	c.Ping()
	closeIt(c)
}

func transfers() {
	c := res.Open()
	res.Adopt(c)
}

func escapesSilently(h *holder) {
	c := res.Open()
	h.c = c // custody leaves the modeled domain: no report
}

// Custody that leaves through an address, a composite literal or a
// channel send is beyond the flow domain: none of these is judged.

func escapesByAddress(sink func(**res.Conn)) {
	c := res.Open()
	sink(&c)
}

func escapesByComposite() []*res.Conn {
	c := res.Open()
	conns := []*res.Conn{c}
	return conns
}

func escapesBySend(ch chan<- *res.Conn) {
	c := res.Open()
	ch <- c
}

// closeChain releases its parameter through its own recursion, so its
// summary is solved as a cyclic component.
func closeChain(c *res.Conn, n int) {
	if n == 0 {
		c.Close()
		return
	}
	closeChain(c, n-1)
}

func recursiveRelease() {
	c := res.Open()
	closeChain(c, 3)
}

// openRetry is an acquirer derived through recursion.
func openRetry(n int) *res.Conn {
	if n == 0 {
		return res.Open()
	}
	return openRetry(n - 1)
}

func recursiveAcquireLeak() {
	c := openRetry(2) // want "acquired conn has no matching release"
	c.Ping()
}

// lazyOpen is clean: the nil guard proves the acquire never overwrites a
// held conn, and the conn is closed after the loop wherever it is held.
func lazyOpen(xs []int) {
	var c *res.Conn
	for range xs {
		if c == nil {
			c = res.Open()
		}
		c.Ping()
	}
	if c != nil {
		c.Close()
	}
}

// lazyLeak closes the lazily opened conn on one branch only.
func lazyLeak(xs []int) {
	var c *res.Conn
	for range xs {
		if nil == c {
			c = res.Open() // want "not released on every path"
		}
	}
	if len(xs) > 3 {
		c.Close()
	}
}

// declaredThenCleared is clean: the conn is released, then the variable
// is cleared before a second, released acquire.
func declaredThenCleared() {
	var c = res.Open()
	c.Close()
	c = nil
	c = res.Open()
	c.Close()
}

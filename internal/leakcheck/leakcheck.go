// Package leakcheck holds the two run-time leak checks that package
// test mains share. The lock probe runs before any test: it drives each
// method that locks a mutex and fails in milliseconds, naming the mutex
// and the method, when one returns with its lock still held — where a
// test would hang until the package timeout and name neither. The
// goroutine check runs after the tests: it fails when a goroutine
// running this module's code outlives them.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Lock is one method under the lock probe.
type Lock struct {
	// Method and Mutex name the probe in its failure message, as in
	// "EventLog.Emit (sticky error)" and "EventLog.mu".
	Method, Mutex string
	// Mu is the mutex Call locks; it must be free when Call returns.
	Mu *sync.Mutex
	// Call drives the method once, down one of its paths.
	Call func()
}

// Locks runs every probe in order and returns an error naming the
// first whose Call returned with its mutex held.
func Locks(probes []Lock) error {
	for _, p := range probes {
		p.Call()
		if !p.Mu.TryLock() {
			return fmt.Errorf("leakcheck: %s returned with %s held: some path out of it skips the Unlock", p.Method, p.Mutex)
		}
		p.Mu.Unlock()
	}
	return nil
}

// modulePrefix starts every stack frame of this module's code.
const modulePrefix = "quickdrop/"

// Goroutines waits up to wait for every goroutine other than the
// caller's that has a frame of this module's code (its own or the one
// that created it) to exit, and returns an error carrying the stacks of
// those still running at the deadline.
func Goroutines(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		left := moduleGoroutines()
		if len(left) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutine(s) of this module outlived the tests by %v:\n\n%s",
				len(left), wait, strings.Join(left, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// moduleGoroutines returns the stack of every goroutine but the
// caller's that has a frame of this module's code.
func moduleGoroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Goroutines are separated by a blank line; the caller's comes first.
	stacks := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	var out []string
	for _, g := range stacks[1:] {
		if strings.Contains(g, "\n"+modulePrefix) || strings.Contains(g, "\ncreated by "+modulePrefix) {
			out = append(out, g)
		}
	}
	return out
}

// Main runs a package's tests between the two checks — the lock probe
// first, then m.Run, then, if the tests passed, the goroutine check
// with a 2 s deadline — and returns the exit code for os.Exit.
func Main(m *testing.M, locks []Lock) int {
	if err := Locks(locks); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := m.Run()
	if code != 0 {
		return code
	}
	if err := Goroutines(2 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

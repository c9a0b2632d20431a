package tensor

import (
	"runtime"

	"quickdrop/internal/par"
)

// parallelWork is the approximate number of scalar operations below which
// a kernel stays sequential. Tiny shapes — the bulk of unit-test traffic —
// never pay goroutine overhead, and their execution stays trivially
// deterministic; large shapes shard across GOMAXPROCS workers.
const parallelWork = 1 << 16

// shardRows splits [0, rows) into at most GOMAXPROCS contiguous chunks and
// runs fn on each chunk concurrently: one goroutine per chunk but the last,
// which the caller runs itself before waiting for the others. work is the
// total scalar-op estimate for the whole kernel; below parallelWork fn runs
// inline on the full range. Each output row is processed by exactly one
// worker running the same sequential code path, so results are bitwise
// identical to a single fn(0, rows) call — parallelism never reorders
// floating-point reductions. A goroutine just started waits in its P's
// run-next slot, which idle Ps steal from only after backing off, so on
// two cores a small kernel's chunks mostly run in turn on the caller's P
// (DESIGN.md, "The caller takes a share").
func shardRows(rows, work int, fn func(lo, hi int)) {
	procs := runtime.GOMAXPROCS(0)
	if work < parallelWork || rows < 2 || procs < 2 {
		fn(0, rows)
		return
	}
	if procs > rows {
		procs = rows
	}
	chunk := (rows + procs - 1) / procs
	var g par.Group
	lo := 0
	for ; lo+chunk < rows; lo += chunk {
		lo, hi := lo, lo+chunk
		g.Go(func() { fn(lo, hi) })
	}
	fn(lo, rows)
	g.Wait()
}

// Package p exercises the wgbalance analyzer.
package p

import "sync"

func handle(j int) {}

// earlyReturnSkip: the guard path leaves the goroutine without Done.
func earlyReturnSkip(wg *sync.WaitGroup, jobs []int) {
	go func() {
		if len(jobs) == 0 {
			return
		}
		for _, j := range jobs {
			handle(j)
		}
		wg.Done() // want `wg.Done is skipped on some path out of this function; the matching Wait hangs`
	}()
}

// deferredDone is the pattern the rule steers toward: every exit,
// including the panicking one, runs Done.
func deferredDone(wg *sync.WaitGroup, ok bool) {
	defer wg.Done()
	if !ok {
		panic("bad input")
	}
}

// branchBalanced: both explicit paths Done exactly once.
func branchBalanced(wg *sync.WaitGroup, fast bool) {
	if fast {
		wg.Done()
		return
	}
	handle(0)
	wg.Done()
}

// rangeEarlyDone is clean: the Done inside the range loop returns at
// once, so no path runs two.
func rangeEarlyDone(wg *sync.WaitGroup, xs []int) {
	for _, x := range xs {
		if x > 0 {
			wg.Done()
			return
		}
	}
	wg.Done()
}

// panicSkip is clean: a panic ends the process whether or not Done
// ran, so only the normal exits are judged.
func panicSkip(wg *sync.WaitGroup, ok bool) {
	if !ok {
		panic("bad input")
	}
	wg.Done()
}

// addInGoroutine races the spawner's Wait: the counter can hit zero
// before the goroutine bumps it.
func addInGoroutine(wg *sync.WaitGroup, jobs []int) {
	for _, j := range jobs {
		go func() {
			wg.Add(1) // want `wg.Add inside the spawned goroutine races with Wait; call Add in the spawner before the go statement`
			defer wg.Done()
			handle(j)
		}()
	}
	wg.Wait()
}

// spawnerAdds is the corrected shape: Add before go, Done deferred.
func spawnerAdds(wg *sync.WaitGroup, jobs []int) {
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handle(j)
		}()
	}
	wg.Wait()
}

// orchestrator pairs a conditional Add with a conditional Done in one
// function; the unit balances the counter deliberately and is exempt.
func orchestrator(wg *sync.WaitGroup, extra bool) {
	if extra {
		wg.Add(1)
	}
	handle(0)
	if extra {
		wg.Done()
	}
}

// reuse waits out one generation before starting the next; Add after a
// completed Wait is legal.
func reuse() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		handle(1)
	}()
	wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		handle(2)
	}()
	wg.Wait()
}

// nestedPool: the spawned goroutine runs its own WaitGroup for its own
// children; nothing outside the payload touches it.
func nestedPool(outer *sync.WaitGroup, tasks []int) {
	outer.Add(1)
	go func() {
		defer outer.Done()
		var inner sync.WaitGroup
		for range tasks {
			inner.Add(1)
			go func() {
				defer inner.Done()
			}()
		}
		inner.Wait()
	}()
	outer.Wait()
}

// suppressedSkip documents a Done owed by someone else on one path.
func suppressedSkip(wg *sync.WaitGroup, handOff bool) {
	if handOff {
		return
	}
	//lint:allow wgbalance the hand-off path's receiver calls Done
	wg.Done()
}

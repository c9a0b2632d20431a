package lint

import (
	"go/ast"
	"go/token"
)

// WGBalance enforces sync.WaitGroup discipline on the CFG:
//
//   - In a unit that calls Done, the call must be reached on every
//     non-panicking path — an early return that skips Done leaves the
//     counter positive and the matching Wait hangs forever.
//   - A second Done on a path that already ran one drives the counter
//     negative, which panics at runtime.
//   - If the unit can panic and its Done is not deferred, the panic
//     path skips the Done; defer wg.Done() covers every exit.
//   - wg.Add inside a spawned goroutine races with the spawner's Wait
//     (Wait can observe the counter at zero before the goroutine runs
//     Add); Add belongs in the spawner, before the go statement.
//
// Receivers are tracked by selector path from a root object. Units
// that both Add and Done on one WaitGroup are orchestrators balancing
// the counter deliberately and are exempt from the path checks;
// rebinding the root degrades to unknown and silences everything.
var WGBalance = &Analyzer{
	Name: "wgbalance",
	Doc:  "WaitGroup Done on every path, no double Done, no Add inside the spawned goroutine",
	Run:  runWGBalance,
}

// The Done-count lattice is the powerset of these states.
const (
	wgD0 pathState = 1 << iota // no Done has run on this path
	wgD1                       // exactly one Done has run
	wgD2                       // two or more: the counter may go negative
)

// wgSpec counts Dones; Add and Wait leave the count alone — Add moves
// the counter up, never below zero, and units that also Add are
// exempt.
var wgSpec = &balanceSpec{
	init: wgD0,
	scan: syncScan(isWaitGroupMethod, map[syncOp]balanceOp{opWGDone: balRelease}),
	step: func(_ balanceOp, st pathState, name string) (pathState, string) {
		switch {
		case st == 0:
			return 0, "" // unknown stays unknown
		case st&wgD0 == 0:
			// Every path here already ran Done once; degrade so the
			// finding does not cascade.
			return 0, name + ".Done on a path where it already ran; the counter goes negative and panics"
		}
		next := wgD1
		if st&(wgD1|wgD2) != 0 {
			next |= wgD2
		}
		return next, ""
	},
	verdict: func(e exitStates, name string) string {
		switch {
		case e.unknown:
			return ""
		case e.normal&wgD0 != 0 && e.normal&(wgD1|wgD2) != 0:
			return name + ".Done is skipped on some path out of this function; the matching Wait hangs"
		case e.normal&wgD0 == 0 && e.normal != 0 && e.panicInit:
			return name + ".Done is skipped when this function panics; defer it so every exit runs it"
		}
		return ""
	},
}

func runWGBalance(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		funcUnits(f, func(body *ast.BlockStmt) {
			// A unit is judged for the WaitGroups it calls Done on. Units
			// that also Add on one orchestrate the counter deliberately
			// (a conditional Add paired with a conditional Done) and are
			// exempt.
			sites := syncSites(info, body, isWaitGroupMethod, opWGDone)
			for key := range syncSites(info, body, isWaitGroupMethod, opWGAdd) {
				delete(sites, key)
			}
			checkBalance(pass, info, body, wgSpec, sites)
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkWGAddInGo(pass, fd)
			}
		}
	}
}

// checkWGAddInGo reports wg.Add calls inside a spawned goroutine when
// the surrounding declaration also Waits on (or Adds to) the same
// WaitGroup — the classic Add/Wait race. A goroutine managing its own
// nested WaitGroup, untouched outside the payload, is left alone.
func checkWGAddInGo(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	type opSite struct {
		key pathKey
		op  syncOp
		pos token.Pos
	}
	var ops []opSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		key, op, call := syncCallAt(info, n, isWaitGroupMethod)
		if op == opWGAdd || op == opWGWait {
			ops = append(ops, opSite{key: key, op: op, pos: call.Pos()})
		}
		return true
	})
	if len(ops) == 0 {
		return
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lo, hi := gs.Call.Pos(), gs.Call.End()
		for _, add := range ops {
			if add.op != opWGAdd || add.pos < lo || add.pos >= hi {
				continue
			}
			for _, other := range ops {
				if other.key == add.key && (other.pos < lo || other.pos >= hi) {
					pass.Reportf(add.pos,
						"%s.Add inside the spawned goroutine races with Wait; call Add in the spawner before the go statement", add.key.path)
					break
				}
			}
		}
		return true
	})
}

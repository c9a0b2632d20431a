package lint

import (
	"go/ast"
	"go/token"
)

// WGBalance enforces sync.WaitGroup discipline:
//
//   - In a unit that calls Done, the call must be reached on every
//     non-panicking path — an early return that skips Done leaves the
//     counter positive and the matching Wait hangs forever.
//   - wg.Add inside a spawned goroutine races with the spawner's Wait
//     (Wait can observe the counter at zero before the goroutine runs
//     Add); Add belongs in the spawner, before the go statement.
//
// Receivers are tracked by selector path from a root object. Units
// that both Add and Done on one WaitGroup are orchestrators balancing
// the counter deliberately and are exempt from the path check;
// rebinding the root degrades to unknown and silences everything. A
// second Done on one path needs no rule: the counter goes negative and
// panics on the first run through it.
var WGBalance = &Analyzer{
	Name: "wgbalance",
	Doc:  "WaitGroup Done on every path, no Add inside the spawned goroutine",
	Run:  runWGBalance,
}

// The Done lattice is the powerset of these states.
const (
	wgD0   pathState = 1 << iota // no Done has run on this path
	wgDone                       // Done has run
)

// wgSpec tracks whether Done ran; Add and Wait leave the state alone —
// units that also Add are exempt.
var wgSpec = &balanceSpec{
	init: wgD0,
	scan: syncScan(isWaitGroupMethod, opWGDone),
	step: func(st pathState) pathState {
		if st == 0 {
			return 0 // unknown stays unknown
		}
		return wgDone
	},
	verdict: func(e exitStates, name string) string {
		if e.unknown || e.normal != wgD0|wgDone {
			return ""
		}
		return name + ".Done is skipped on some path out of this function; the matching Wait hangs"
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

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"quickdrop/internal/lint/dataflow"
)

// ResBalance checks contract-declared resources the way poolbalance
// checks pool buffers: any API can mark itself with //lint:resource
// directives (see resource.go for the grammar), and every function that
// binds an acquiring call's result must discharge the obligation on
// every CFG path — by a releasing call mentioning the value (deferred
// releases fold into every exit), by passing it to a transfer-contract
// call, or by returning it (ownership moves to the caller).
//
// The analysis is interprocedural in both directions. Bottom-up
// summaries over the program call graph (dataflow.FixSummaries) extend
// the contract surface through helpers: a function returning an
// acquirer's result is itself an acquirer, and a helper that releases
// its parameter discharges the caller's obligation at the call site.
// On top of the summaries, each function body runs two layers: a
// syntactic one that finds acquisitions, discarded results and custody
// transfers the flow domain cannot model (which degrade to silence,
// never to false positives), then the flow engine's ownership spec —
// the {nil, held, released} powerset over the CFG with nil-comparison
// refinement. Leaks are reported at the acquisition site; paths that
// leave by panicking are exempt.
var ResBalance = &Analyzer{
	Name: "resbalance",
	Doc:  "contract-declared resource acquisitions must be released on every path",
	Run:  runResBalance,
}

// resSummary is one function's interprocedural resource effect.
type resSummary struct {
	// acquires holds the classes the function's results may carry,
	// owed to the caller: contract-declared, or derived from returning
	// another acquirer's result.
	acquires map[string]bool
	// releases maps parameter positions (receiver = -1) to the classes
	// discharged for a value passed there — directly by contract, or
	// transitively through helper calls.
	releases map[int]map[string]bool
}

func (s resSummary) clone() resSummary {
	out := resSummary{}
	if s.acquires != nil {
		out.acquires = make(map[string]bool, len(s.acquires))
		for k, v := range s.acquires {
			out.acquires[k] = v
		}
	}
	if s.releases != nil {
		out.releases = make(map[int]map[string]bool, len(s.releases))
		for i, cs := range s.releases {
			m := make(map[string]bool, len(cs))
			for k, v := range cs {
				m[k] = v
			}
			out.releases[i] = m
		}
	}
	return out
}

func (s *resSummary) addAcquires(classes map[string]bool) {
	if len(classes) == 0 {
		return
	}
	if s.acquires == nil {
		s.acquires = make(map[string]bool)
	}
	for c := range classes {
		s.acquires[c] = true
	}
}

func (s *resSummary) addReleases(pos int, classes map[string]bool) {
	if len(classes) == 0 {
		return
	}
	if s.releases == nil {
		s.releases = make(map[int]map[string]bool)
	}
	if s.releases[pos] == nil {
		s.releases[pos] = make(map[string]bool)
	}
	for c := range classes {
		s.releases[pos][c] = true
	}
}

func eqResSummary(a, b resSummary) bool {
	if !eqSet(a.acquires, b.acquires) || len(a.releases) != len(b.releases) {
		return false
	}
	for i, cs := range a.releases {
		if !eqSet(cs, b.releases[i]) {
			return false
		}
	}
	return true
}

// forEachCallArgPos yields (position, expr) pairs for a call: the
// method receiver at -1, then each argument at its parameter position
// (extra variadic arguments all map to the last parameter).
func forEachCallArgPos(call *ast.CallExpr, callee *types.Func, f func(pos int, arg ast.Expr)) {
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			f(-1, sel.X)
		}
	}
	np := 0
	if sig != nil {
		np = sig.Params().Len()
	}
	for i, arg := range call.Args {
		pos := i
		if np > 0 && i >= np {
			pos = np - 1
		}
		f(pos, arg)
	}
}

func runResBalance(pass *Pass) {
	// Whole-program rule: run once, from the first loaded package.
	if len(pass.Prog.Packages) == 0 || pass.Pkg != pass.Prog.Packages[0] {
		return
	}
	rb := &resBalance{pass: pass, rc: parseResourceContracts(pass)}
	if !rb.rc.any() {
		return
	}
	rb.sums = dataflow.FixSummaries(pass.Prog.CallGraph(), dataflow.SummaryAnalysis[*types.Func, resSummary]{
		Bottom:   rb.base,
		Transfer: rb.transferSummary,
		Equal:    eqResSummary,
	})
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			funcUnits(f, func(body *ast.BlockStmt) {
				rb.checkUnit(pkg, body)
			})
		}
	}
}

type resBalance struct {
	pass *Pass
	rc   *resourceContracts
	sums map[*types.Func]resSummary
}

// base is a function's contract-declared effect, before any
// derivation: the Bottom of the summary lattice.
func (rb *resBalance) base(fn *types.Func) resSummary {
	s := resSummary{}
	if class, ok := rb.rc.acquire[fn]; ok {
		s.addAcquires(map[string]bool{class: true})
	}
	class, ok := rb.rc.release[fn]
	if !ok {
		class, ok = rb.rc.transfer[fn]
	}
	if ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil {
			if sig.Recv() != nil {
				s.addReleases(-1, map[string]bool{class: true})
			}
			for i := 0; i < sig.Params().Len(); i++ {
				s.addReleases(i, map[string]bool{class: true})
			}
		}
	}
	return s
}

// summary returns the computed summary for fn (contract-only for
// functions outside the call graph), or a zero summary for nil.
func (rb *resBalance) summary(fn *types.Func) resSummary {
	if fn == nil {
		return resSummary{}
	}
	if s, ok := rb.sums[fn]; ok {
		return s
	}
	return rb.base(fn)
}

// transferSummary derives fn's effect from its body plus its callees'
// current summaries: releasing a parameter through a helper extends
// releases, and returning an acquirer's result (directly or through a
// local) extends acquires. The walk spans nested literals and deferred
// calls — the optimistic reading for a balance obligation.
func (rb *resBalance) transferSummary(fn *types.Func, get func(*types.Func) resSummary) resSummary {
	out := rb.base(fn).clone()
	fi, ok := rb.pass.Prog.Decls[fn]
	if !ok || fi.Decl.Body == nil {
		return out
	}
	info := fi.Pkg.Info
	params := paramIndexMap(info, fi.Decl)

	acquired := make(map[types.Object]map[string]bool)
	bind := func(lhs, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		acq := get(calleeFunc(info, call)).acquires
		if len(acq) == 0 {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := identObj(info, id); obj != nil {
			if acquired[obj] == nil {
				acquired[obj] = make(map[string]bool)
			}
			for c := range acq {
				acquired[obj][c] = true
			}
		}
	}
	var retObjs []types.Object

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeFunc(info, n)
			if callee == nil {
				return true
			}
			cs := get(callee)
			if len(cs.releases) == 0 {
				return true
			}
			forEachCallArgPos(n, callee, func(pos int, arg ast.Expr) {
				classes := cs.releases[pos]
				if len(classes) == 0 {
					return
				}
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					return
				}
				if obj := identObj(info, id); obj != nil {
					if pi, isParam := params[obj]; isParam {
						out.addReleases(pi, classes)
					}
				}
			})
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i < len(n.Names) {
					bind(n.Names[i], v)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				switch r := ast.Unparen(res).(type) {
				case *ast.CallExpr:
					out.addAcquires(get(calleeFunc(info, r)).acquires)
				case *ast.Ident:
					if obj := identObj(info, r); obj != nil {
						retObjs = append(retObjs, obj)
					}
				}
			}
		}
		return true
	})
	for _, obj := range retObjs {
		out.addAcquires(acquired[obj])
	}
	return out
}

// paramIndexMap maps a declaration's receiver (-1) and parameter
// objects to their signature positions.
func paramIndexMap(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := make(map[types.Object]int)
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				if obj := identObj(info, name); obj != nil {
					out[obj] = -1
				}
			}
		}
	}
	if fd.Type.Params != nil {
		i := 0
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := identObj(info, name); obj != nil {
					out[obj] = i
				}
				i++
			}
		}
	}
	return out
}

// resBorrow tracks one variable bound to an acquiring call's result.
type resBorrow struct {
	pos      token.Pos
	classes  map[string]bool
	released bool // some releasing call mentions the variable
	returned bool // some return hands the variable to the caller
	dropped  bool // custody left the modeled domain (alias, store, …)
}

// releaseClasses returns the classes the call discharges for arg at
// pos, or nil.
func (rb *resBalance) releaseClasses(info *types.Info, call *ast.CallExpr) map[ast.Expr]map[string]bool {
	callee := calleeFunc(info, call)
	if callee == nil {
		return nil
	}
	cs := rb.summary(callee)
	if len(cs.releases) == 0 {
		return nil
	}
	out := make(map[ast.Expr]map[string]bool)
	forEachCallArgPos(call, callee, func(pos int, arg ast.Expr) {
		if classes := cs.releases[pos]; len(classes) > 0 {
			out[arg] = classes
		}
	})
	return out
}

func intersects(a, b map[string]bool) bool {
	for c := range a {
		if b[c] {
			return true
		}
	}
	return false
}

func (rb *resBalance) checkUnit(pkg *Package, body *ast.BlockStmt) {
	info := pkg.Info
	borrows := make(map[types.Object]*resBorrow)

	acquiresOf := func(rhs ast.Expr) (map[string]bool, *ast.CallExpr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return nil, nil
		}
		acq := rb.summary(calleeFunc(info, call)).acquires
		if len(acq) == 0 {
			return nil, nil
		}
		return acq, call
	}
	bind := func(lhs ast.Expr, classes map[string]bool, call *ast.CallExpr) {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				rb.pass.Reportf(call.Pos(),
					"result of %s is an acquired %s that is discarded; it can never be released",
					callName(info, call), classSetName(classes))
				return
			}
			if obj := identObj(info, lhs); obj != nil {
				if _, ok := borrows[obj]; !ok {
					borrows[obj] = &resBorrow{pos: call.Pos(), classes: classes}
				}
			}
		default:
			// Index/field stores hand custody to a structure the flow
			// domain does not model; stay silent rather than guess.
		}
	}

	// Syntactic layer, pass 1: acquisitions. A bare acquiring call whose
	// result is not bound at all is an immediate leak.
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, rhs := range n.Rhs {
				if classes, call := acquiresOf(rhs); call != nil {
					bind(n.Lhs[i], classes, call)
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if classes, call := acquiresOf(v); call != nil && i < len(n.Names) {
					bind(n.Names[i], classes, call)
				}
			}
		case *ast.ExprStmt:
			if classes, call := acquiresOf(n.X); call != nil {
				rb.pass.Reportf(call.Pos(),
					"result of %s is an acquired %s that is discarded; it can never be released",
					callName(info, call), classSetName(classes))
			}
		}
	})
	if len(borrows) == 0 {
		return
	}

	// Syntactic layer, pass 2: releases (positional, class-matched) and
	// custody transfers out of the modeled domain. Releases inside
	// nested literals count — a deferred closure releasing the value is
	// the idiom — as do returns anywhere in the unit.
	drop := func(expr ast.Expr) {
		if b := borrows[exprObj(info, expr)]; b != nil {
			b.dropped = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			rel := rb.releaseClasses(info, n)
			argDrops := func(arg ast.Expr, receiver bool) {
				b := borrows[exprObj(info, arg)]
				switch {
				case b == nil:
				case intersects(rel[arg], b.classes):
					b.released = true
				case !receiver:
					// A method call on the value reads it; an argument
					// position without a release hands custody somewhere
					// the analysis cannot follow.
					b.dropped = true
				}
			}
			if callee := calleeFunc(info, n); callee != nil {
				forEachCallArgPos(n, callee, func(pos int, arg ast.Expr) {
					argDrops(arg, pos == -1)
				})
			} else {
				for _, arg := range n.Args {
					argDrops(arg, false)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if b := borrows[exprObj(info, res)]; b != nil {
					b.returned = true
				}
			}
		case *ast.AssignStmt:
			// Aliasing the value (x := h, s.f = h) leaves the domain.
			for _, rhs := range n.Rhs {
				drop(rhs)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				drop(n.X)
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				drop(el)
			}
		case *ast.SendStmt:
			drop(n.Value)
		}
		return true
	})

	sites := make(map[pathKey]balanceSite)
	for obj, b := range borrows {
		if b.dropped {
			continue
		}
		if !b.released && !b.returned {
			rb.pass.Reportf(b.pos,
				"acquired %s has no matching release in this function (declared by //lint:resource)", classSetName(b.classes))
			continue
		}
		sites[varKey(obj)] = balanceSite{pos: b.pos, name: classSetName(b.classes)}
	}
	if len(sites) == 0 {
		return
	}
	o := ownership{
		acquires: func(call *ast.CallExpr, obj types.Object) bool {
			b := borrows[obj]
			return b != nil && intersects(rb.summary(calleeFunc(info, call)).acquires, b.classes)
		},
		releases: func(call *ast.CallExpr, release func(types.Object)) {
			for arg, classes := range rb.releaseClasses(info, call) {
				obj := exprObj(info, arg)
				if b := borrows[obj]; b != nil && intersects(classes, b.classes) {
					release(obj)
				}
			}
		},
		// An acquirer may legitimately return nil ("nothing to acquire
		// yet" — SnapshotStore.Acquire before the first publish), so the
		// post-state is held-or-nil: the value must be discharged where
		// it may be held, and a nil-comparison refines the branches
		// rather than pruning one.
		acquired: ownHeld | ownNil,
		overwrite: func(name string) string {
			return "acquire overwrites a still-held " + name + "; the previous one can never be released"
		},
		twice: func(name string) string { return "acquired " + name + " is released twice on this path" },
		leak: func(name string) string {
			return "acquired " + name + " is not released on every path; a branch or early return leaks it"
		},
	}
	checkBalance(rb.pass, info, body, o.spec(), sites)
}

// callName renders the callee for diagnostics.
func callName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if recv := recvNamed(fn); recv != nil {
			return recv.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "the call"
}

func classSetName(classes map[string]bool) string {
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}

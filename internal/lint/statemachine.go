package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"quickdrop/internal/lint/dataflow"
)

// StateMachine verifies that a lifecycle-typed value only ever moves
// along the edges of a transition table declared next to its type:
//
//	//lint:statemachine StateQueued->StateCoalesced StateCoalesced->StateFailed
//
// in the type declaration's doc comment, one or more edges per line,
// each edge naming two constants of the type. Every assignment of a
// machine constant — to a local, or to a field reached from a tracked
// root — is checked flow-sensitively against the set of states the
// value can hold at that point; writes through setter methods are
// resolved interprocedurally via bottom-up summaries over the call
// graph (a method whose body assigns its parameter into the state
// field transfers the call site's constant argument), so serve's
// fail → finish(StateFailed) chain is understood. A value whose state
// is unknown (function entry, loop-fresh range variables, anything
// escaping the modeled domain) checks nothing — the rule reports only
// provable violations, such as a failed ticket being re-finished as
// published.
var StateMachine = &Analyzer{
	Name: "statemachine",
	Doc:  "lifecycle-typed values transition only along their declared state-machine edges",
	Run:  runStateMachine,
}

// statemachinePrefix introduces a transition-table directive.
const statemachinePrefix = "//lint:statemachine"

// isStateMachineComment matches the directive prefix at a word
// boundary.
func isStateMachineComment(text string) bool {
	rest, ok := strings.CutPrefix(text, statemachinePrefix)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// smMachine is one declared lifecycle: a named type, its constants,
// and the legal transition edges.
type smMachine struct {
	typ    *types.TypeName
	consts []*types.Const
	bit    map[*types.Const]uint
	edges  map[[2]*types.Const]bool
}

func (m *smMachine) mask(c *types.Const) uint64 { return 1 << m.bit[c] }

// namesOf renders the constants selected by mask, in declaration
// order.
func (m *smMachine) namesOf(mask uint64) string {
	var names []string
	for _, c := range m.consts {
		if mask&m.mask(c) != 0 {
			names = append(names, c.Name())
		}
	}
	return strings.Join(names, "|")
}

func runStateMachine(pass *Pass) {
	// Whole-program rule: run once, from the first loaded package.
	if len(pass.Prog.Packages) == 0 || pass.Pkg != pass.Prog.Packages[0] {
		return
	}
	sm := &stateMachine{pass: pass, machines: make(map[*types.TypeName]*smMachine)}
	sm.collectMachines()
	if len(sm.machines) == 0 {
		return
	}
	sm.sums = dataflow.FixSummaries(pass.Prog.CallGraph(), dataflow.SummaryAnalysis[*types.Func, smSummary]{
		Bottom:   func(*types.Func) smSummary { return smSummary{} },
		Transfer: sm.transferSummary,
		Equal:    eqSmSummary,
	})
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			funcUnits(f, func(body *ast.BlockStmt, _ string) {
				sm.checkUnit(pkg, body)
			})
		}
	}
}

type stateMachine struct {
	pass     *Pass
	machines map[*types.TypeName]*smMachine
	sums     map[*types.Func]smSummary
}

// machineOf returns the lifecycle declared for t's named type (behind
// a pointer), or nil.
func (sm *stateMachine) machineOf(t types.Type) *smMachine {
	if t == nil {
		return nil
	}
	n := namedOf(t)
	if n == nil {
		return nil
	}
	return sm.machines[n.Obj()]
}

// collectMachines parses every //lint:statemachine directive in the
// tree, reporting malformed tables and misplaced directives.
func (sm *stateMachine) collectMachines() {
	for _, pkg := range sm.pass.Prog.Packages {
		for _, f := range pkg.Files {
			consumed := make(map[*ast.Comment]bool)
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if doc == nil {
						continue
					}
					var directives []*ast.Comment
					for _, c := range doc.List {
						if isStateMachineComment(c.Text) {
							consumed[c] = true
							directives = append(directives, c)
						}
					}
					if len(directives) > 0 {
						sm.buildMachine(pkg, ts, directives)
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if isStateMachineComment(c.Text) && !consumed[c] {
						sm.pass.Reportf(c.Pos(), "//lint:statemachine directive must be in a type declaration's doc comment")
					}
				}
			}
		}
	}
}

// buildMachine resolves one type's transition table.
func (sm *stateMachine) buildMachine(pkg *Package, ts *ast.TypeSpec, directives []*ast.Comment) {
	tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if tn == nil {
		return
	}
	m := &smMachine{
		typ:   tn,
		bit:   make(map[*types.Const]uint),
		edges: make(map[[2]*types.Const]bool),
	}
	// The machine's constants, in declaration order across the package.
	byName := make(map[string]*types.Const)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					c, ok := pkg.Info.Defs[name].(*types.Const)
					if !ok || namedOf(c.Type()) == nil || namedOf(c.Type()).Obj() != tn {
						continue
					}
					if _, dup := m.bit[c]; dup {
						continue
					}
					m.bit[c] = uint(len(m.consts))
					m.consts = append(m.consts, c)
					byName[c.Name()] = c
				}
			}
		}
	}
	if len(m.consts) == 0 || len(m.consts) > 64 {
		sm.pass.Reportf(directives[0].Pos(),
			"//lint:statemachine on %s, which has %d constants (want 1..64)", tn.Name(), len(m.consts))
		return
	}
	valid := true
	for _, c := range directives {
		rest := strings.TrimPrefix(c.Text, statemachinePrefix)
		// Anything after a nested "//" is commentary, not directive.
		if i := strings.Index(rest, "//"); i >= 0 {
			rest = rest[:i]
		}
		for _, tok := range strings.Fields(rest) {
			from, to, ok := strings.Cut(tok, "->")
			if !ok || from == "" || to == "" {
				sm.pass.Reportf(c.Pos(), "malformed //lint:statemachine edge %q (want From->To)", tok)
				valid = false
				continue
			}
			cf, cok := byName[from]
			ct, tok2 := byName[to]
			if !cok || !tok2 {
				missing := from
				if cok {
					missing = to
				}
				sm.pass.Reportf(c.Pos(), "//lint:statemachine edge %q names %q, which is not a constant of %s", tok, missing, tn.Name())
				valid = false
				continue
			}
			m.edges[[2]*types.Const{cf, ct}] = true
		}
	}
	if valid || len(m.edges) > 0 {
		sm.machines[tn] = m
	}
}

// --- interprocedural setter summaries ---

// smWrite describes what a function may write into one machine-typed
// location of its receiver: a set of constants, a set of parameter
// positions passed through, or something the analysis cannot resolve.
type smWrite struct {
	consts  map[*types.Const]bool
	params  map[int]bool
	unknown bool
}

// smSummary maps a receiver-relative field path ("state",
// "inner.state") to the write effect on it.
type smSummary map[string]*smWrite

func eqSmWrite(a, b *smWrite) bool {
	return a.unknown == b.unknown && eqSet(a.consts, b.consts) && eqSet(a.params, b.params)
}

func eqSmSummary(a, b smSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for path, w := range a {
		bw, ok := b[path]
		if !ok || !eqSmWrite(w, bw) {
			return false
		}
	}
	return true
}

// fieldPathOf resolves an ident/selector chain to its root object and
// the dot-joined field path below the root ("" for a plain ident).
func fieldPathOf(info *types.Info, expr ast.Expr) (types.Object, string, bool) {
	key, ok := receiverPath(info, expr)
	if !ok {
		return nil, "", false
	}
	_, path, _ := strings.Cut(key.path, ".")
	return key.root, path, true
}

func joinPath(base, path string) string {
	if base == "" {
		return path
	}
	if path == "" {
		return base
	}
	return base + "." + path
}

// constOf resolves expr to a constant of some declared machine, or
// nil.
func (sm *stateMachine) constOf(info *types.Info, expr ast.Expr) *types.Const {
	var obj types.Object
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj = identObj(info, e)
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return nil
	}
	c, ok := obj.(*types.Const)
	if !ok || sm.machineOf(c.Type()) == nil {
		return nil
	}
	return c
}

// transferSummary derives fn's receiver write effects: direct
// assignments into machine-typed receiver fields, plus effects folded
// through calls to other methods on the same receiver (constant
// arguments resolve the callee's parameter passthroughs).
func (sm *stateMachine) transferSummary(fn *types.Func, get func(*types.Func) smSummary) smSummary {
	out := smSummary{}
	fi, ok := sm.pass.Prog.Decls[fn]
	if !ok || fi.Decl.Body == nil || fi.Decl.Recv == nil {
		return out
	}
	info := fi.Pkg.Info
	params := paramIndexMap(info, fi.Decl)
	var recvObj types.Object
	for obj, i := range params {
		if i == -1 {
			recvObj = obj
		}
	}
	if recvObj == nil {
		return out
	}
	ensure := func(path string) *smWrite {
		w := out[path]
		if w == nil {
			w = &smWrite{consts: make(map[*types.Const]bool), params: make(map[int]bool)}
			out[path] = w
		}
		return w
	}
	recordRHS := func(w *smWrite, rhs ast.Expr) {
		if c := sm.constOf(info, rhs); c != nil {
			w.consts[c] = true
			return
		}
		if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				if pi, isParam := params[obj]; isParam && pi >= 0 {
					w.params[pi] = true
					return
				}
			}
		}
		w.unknown = true
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				root, path, ok := fieldPathOf(info, lhs)
				if !ok || root != recvObj || path == "" || sm.machineOf(info.TypeOf(lhs)) == nil {
					continue
				}
				recordRHS(ensure(path), n.Rhs[i])
			}
		case *ast.IncDecStmt:
			if root, path, ok := fieldPathOf(info, n.X); ok && root == recvObj && path != "" && sm.machineOf(info.TypeOf(n.X)) != nil {
				ensure(path).unknown = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if root, path, ok := fieldPathOf(info, n.X); ok && root == recvObj && path != "" && sm.machineOf(info.TypeOf(n.X)) != nil {
					ensure(path).unknown = true
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, basePath, ok := fieldPathOf(info, sel.X)
			if !ok || base != recvObj {
				return true
			}
			cs := get(calleeFunc(info, n))
			for path, cw := range cs {
				w := ensure(joinPath(basePath, path))
				w.unknown = w.unknown || cw.unknown
				for c := range cw.consts {
					w.consts[c] = true
				}
				for pi := range cw.params {
					if pi >= len(n.Args) {
						w.unknown = true
						continue
					}
					recordRHS(w, n.Args[pi])
				}
			}
		}
		return true
	})
	return out
}

// --- the flow-sensitive checker ---

// smFact maps tracked machine-typed locations to the bitmask of states
// they can hold. A missing key means "unknown" (Top), which silences
// every check for the location — so joins intersect key sets.
type smFact = keyFact[pathKey, uint64]

func (sm *stateMachine) checkUnit(pkg *Package, body *ast.BlockStmt) {
	info := pkg.Info
	// Cheap pre-scan: skip units that mention no machine constant and
	// no machine-typed selector write (the fixpoint is not free).
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if t := info.TypeOf(e); t != nil && sm.machineOf(t) != nil {
				found = true
			}
		}
		return true
	})
	if !found {
		return
	}
	kf := newKeyFlow[pathKey, uint64](sm.pass, info, body)
	if kf == nil {
		return
	}
	cf := &smFlow{keyFlow: kf, sm: sm}
	kf.walker.visit = cf.visit
	kf.walker.bind = func(obj types.Object, _ ast.Expr) { dropRoot(kf, obj) }
	solveUnit(kf.flowUnit, kf.analysis(smFact{}, smFact.joinKnown))
}

type smFlow struct {
	*keyFlow[pathKey, uint64]
	sm *stateMachine
}

func (cf *smFlow) visit(x ast.Node) bool {
	switch x := x.(type) {
	case *ast.AssignStmt:
		if len(x.Lhs) == len(x.Rhs) {
			for i := range x.Lhs {
				cf.walker.walk(x.Rhs[i]) // nested calls first
				cf.assign(x.Lhs[i], x.Rhs[i])
			}
			return false
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if key, ok := receiverPath(cf.info, x.X); ok {
				dropRoot(cf.keyFlow, key.root)
			}
		}
	case *ast.CallExpr:
		cf.call(x)
	}
	return true
}

// assign folds one lhs = rhs pair: a machine-constant write is checked
// against the incoming state set and then lands strongly; any other
// write to a tracked location degrades it to unknown.
func (cf *smFlow) assign(lhs, rhs ast.Expr) {
	key, ok := receiverPath(cf.info, lhs)
	if !ok {
		return
	}
	m := cf.sm.machineOf(cf.info.TypeOf(lhs))
	if m == nil {
		// Overwriting a struct that contains tracked fields (t = other)
		// invalidates everything below it.
		if !strings.Contains(key.path, ".") {
			dropRoot(cf.keyFlow, key.root)
		}
		return
	}
	c := cf.sm.constOf(cf.info, rhs)
	if c == nil || cf.sm.machineOf(c.Type()) != m {
		cf.set(key, 0)
		return
	}
	if mask := cf.out[key]; mask != 0 && !cf.legal(m, mask, m.mask(c)) {
		cf.reportf(lhs.Pos(), "illegal %s transition %s -> %s; the declared lifecycle has no such edge",
			m.typ.Name(), m.namesOf(mask), c.Name())
	}
	cf.set(key, m.mask(c))
}

// legal reports whether some (from, to) pair across the two masks is a
// declared edge.
func (cf *smFlow) legal(m *smMachine, fromMask, toMask uint64) bool {
	for _, from := range m.consts {
		if fromMask&m.mask(from) == 0 {
			continue
		}
		for _, to := range m.consts {
			if toMask&m.mask(to) == 0 {
				continue
			}
			if m.edges[[2]*types.Const{from, to}] {
				return true
			}
		}
	}
	return false
}

// call folds one call: a summarized method on a tracked receiver
// applies its write effects (checked like direct assignments); any
// other call degrades the locations its arguments mention.
func (cf *smFlow) call(call *ast.CallExpr) {
	callee := calleeFunc(cf.info, call)
	// Arguments first: passing a tracked value (or its root) anywhere
	// hands it to code the flow cannot see.
	for _, arg := range call.Args {
		if key, ok := receiverPath(cf.info, arg); ok {
			dropRoot(cf.keyFlow, key.root)
		}
	}
	if callee == nil {
		return
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	sum, summarized := cf.sm.sums[callee]
	if !summarized || len(sum) == 0 {
		// An unsummarized callee on a tracked receiver could write
		// anything; a summarized one with no effects provably writes
		// nothing.
		if !summarized && isSel {
			if key, ok := receiverPath(cf.info, sel.X); ok {
				dropRoot(cf.keyFlow, key.root)
			}
		}
		return
	}
	if !isSel {
		return
	}
	base, ok := receiverPath(cf.info, sel.X)
	if !ok {
		return
	}
	paths := make([]string, 0, len(sum))
	for p := range sum {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		w := sum[p]
		key := pathKey{root: base.root, path: base.path + "." + p}
		var m *smMachine
		writes := uint64(0)
		unknown := w.unknown
		for c := range w.consts {
			m = cf.sm.machineOf(c.Type())
			if m != nil {
				writes |= m.mask(c)
			}
		}
		for pi := range w.params {
			if pi >= len(call.Args) {
				unknown = true
				continue
			}
			if c := cf.sm.constOf(cf.info, call.Args[pi]); c != nil {
				if mc := cf.sm.machineOf(c.Type()); m == nil || mc == m {
					m = mc
					writes |= mc.mask(c)
					continue
				}
			}
			unknown = true
		}
		if unknown || m == nil || writes == 0 {
			cf.set(key, 0)
			continue
		}
		if mask := cf.out[key]; mask != 0 && !cf.legal(m, mask, writes) {
			cf.reportf(call.Pos(), "call to %s moves %s from %s to %s; the declared lifecycle has no such edge",
				callee.Name(), m.typ.Name(), m.namesOf(mask), m.namesOf(writes))
		}
		// The declared writes are assumed to land: a guard that would
		// silently drop the write hides a dead transition, which is
		// exactly what the rule exists to surface.
		cf.set(key, writes)
	}
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"quickdrop/internal/lint/dataflow"
)

// The flow engine shared by the flow-sensitive rules: how one CFG node
// is read (nodeWalker) and how a unit is solved and its findings
// reported (flowUnit). wgbalance's path check goes one step further and
// is a spec on the path-balance engine (balanceSpec): a key, a per-key
// powerset fact (keyFact), a transition table and an exit verdict.

// nodeWalker reads the AST of one CFG node the way every flow rule
// must:
//
//   - a *dataflow.DeferRun is the deferred call running on the way out,
//     so its call is walked, and a function literal inside it is
//     offered to visit (its body is the deferred code);
//   - anywhere else a function literal is a unit of its own and is
//     skipped, and a DeferStmt is only the registration point;
//   - a RangeStmt stands at its loop head, which evaluates the range
//     expression and rebinds key and value; the body runs in blocks of
//     its own.
type nodeWalker struct {
	info *types.Info
	// visit sees every other node; returning false skips its children.
	visit func(x ast.Node) bool
	// bind, when set, sees each object a range key or value rebinds.
	bind     func(obj types.Object)
	deferred bool
}

// node walks one CFG node.
func (w *nodeWalker) node(n ast.Node) {
	w.deferred = false
	if d, ok := n.(*dataflow.DeferRun); ok {
		w.deferred = true
		n = d.D.Call
	}
	w.walk(n)
}

// walk walks a subtree of the current CFG node; visit may call it to
// order a node's children itself.
func (w *nodeWalker) walk(n ast.Node) {
	ast.Inspect(n, w.inspect)
}

func (w *nodeWalker) inspect(x ast.Node) bool {
	switch x := x.(type) {
	case nil:
		return false
	case *ast.FuncLit:
		return w.deferred && w.visit(x)
	case *ast.DeferStmt:
		return false
	case *ast.RangeStmt:
		w.walk(x.X)
		if w.bind != nil {
			for _, v := range []ast.Expr{x.Key, x.Value} {
				if obj := exprObj(w.info, v); obj != nil {
					w.bind(obj)
				}
			}
		}
		return false
	}
	return w.visit(x)
}

// exprObj returns the object expr names when it is a (parenthesized)
// identifier other than the blank one, else nil.
func exprObj(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return identObj(info, id)
}

// inspectShallow walks n without descending into function literals.
func inspectShallow(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// flowUnit is one function body under a flow rule: its CFG, and whether
// the solved facts are being replayed — the one pass in which a rule
// emits what it found.
type flowUnit struct {
	g         *dataflow.Graph
	replaying bool
}

// newFlowUnit builds body's CFG, in which calls to the builtin panic
// leave the function. It returns nil for a missing body.
func newFlowUnit(info *types.Info, body *ast.BlockStmt) *flowUnit {
	g := dataflow.NewFromBlock(body, func(call *ast.CallExpr) bool {
		return isBuiltinPanic(info, call)
	})
	if g == nil {
		return nil
	}
	return &flowUnit{g: g}
}

// solveUnit solves an over u's CFG silently, then replays the solution
// with u.replaying set.
func solveUnit[F any](u *flowUnit, an dataflow.Analysis[F]) dataflow.Result[F] {
	res := dataflow.Forward(u.g, an)
	u.replaying = true
	res.Replay(u.g, an)
	u.replaying = false
	return res
}

// pathKey identifies one tracked location inside a function: the
// object at the root of an identifier/selector chain plus the textual
// path spelled from it, which is also how messages name the location.
// Two mentions compare equal exactly when they are spelled from the
// same root object through the same fields — "s.mu" and "t.mu" differ,
// two mentions of "s.inner.mu" agree. A plain variable is its own root
// with the variable's name as path.
type pathKey struct {
	root types.Object
	path string
}

// keyFact maps each tracked key to a bitmask of the states it may be in
// on the paths reaching a program point; a key that is absent has no
// state bit set. Facts are immutable values: a balanceFlow copies
// before it writes.
type keyFact map[pathKey]pathState

func (f keyFact) clone() keyFact {
	out := make(keyFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// join is the powerset join: on either path, a key may be in any state
// it may be in on one of them.
func (f keyFact) join(g keyFact) keyFact {
	out := f.clone()
	for k, v := range g {
		out[k] |= v
	}
	return out
}

func (f keyFact) equal(g keyFact) bool {
	if len(f) != len(g) {
		return false
	}
	for k, v := range f {
		if w, ok := g[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// --- the path-balance engine ---

// pathState is a tracked key's state in a balance spec's powerset
// lattice: bit i set means some path reaching the point leaves the key
// in the spec's i-th state. Zero is unknown — the key was rebound or
// left the modeled domain — and silences every check on it.
type pathState uint8

// balanceSpec is one path-balance rule on the shared engine.
type balanceSpec struct {
	// init is every tracked key's state at function entry (0: unknown).
	init pathState
	// scan folds the ops one AST node performs into the flow, through
	// bf.apply and bf.forget; returning false skips x's children.
	scan func(bf *balanceFlow, x ast.Node) bool
	// step is the transition table: the spec's op moves a key in state
	// st to next.
	step func(st pathState) (next pathState)
	// verdict judges a key from its states at the function's exits; a
	// non-empty message is reported at the key's site.
	verdict func(e exitStates, name string) string
}

// balanceSite is where a unit first acquires a tracked key, for
// findings about the whole function, and how messages name the key.
type balanceSite struct {
	pos  token.Pos
	name string
}

// exitStates summarizes one key over a unit's non-panicking exits,
// after the deferred calls ran.
type exitStates struct {
	// normal joins the key's states over the exits.
	normal pathState
	// unknown is set when some exit has the key unknown.
	unknown bool
}

// balanceFlow runs one balance spec over one unit. Its transfer
// function walks one CFG node with walker, whose visit and bind write
// the outgoing fact through set; the incoming fact is copied on the
// first write.
type balanceFlow struct {
	info   *types.Info
	walker nodeWalker
	out    keyFact
	owned  bool
	spec   *balanceSpec
	sites  map[pathKey]balanceSite
}

// checkBalance runs spec over body for the keys in sites.
func checkBalance(pass *Pass, info *types.Info, body *ast.BlockStmt, spec *balanceSpec, sites map[pathKey]balanceSite) {
	if len(sites) == 0 {
		return
	}
	u := newFlowUnit(info, body)
	if u == nil {
		return
	}
	bf := &balanceFlow{info: info, spec: spec, sites: sites}
	bf.walker = nodeWalker{
		info:  info,
		visit: func(x ast.Node) bool { return spec.scan(bf, x) },
		bind:  bf.forget,
	}
	init := keyFact{}
	if spec.init != 0 {
		for k := range sites {
			init[k] = spec.init
		}
	}
	an := dataflow.Analysis[keyFact]{
		Init:  init,
		Join:  keyFact.join,
		Equal: keyFact.equal,
		Stmt: func(n ast.Node, in keyFact) keyFact {
			bf.out, bf.owned = in, false
			bf.walker.node(n)
			return bf.out
		},
	}
	res := dataflow.Forward(u.g, an)

	exits := make(map[pathKey]*exitStates, len(sites))
	for k := range sites {
		exits[k] = &exitStates{}
	}
	res.Exits(u.g, an, func(f keyFact, panics bool) {
		if panics {
			return
		}
		for k, e := range exits {
			if st := f[k]; st == 0 {
				e.unknown = true
			} else {
				e.normal |= st
			}
		}
	})
	for k, e := range exits {
		site := sites[k]
		if msg := spec.verdict(*e, site.name); msg != "" {
			pass.Reportf(site.pos, "%s", msg)
		}
	}
}

// apply moves a tracked key through the spec's transition table.
func (bf *balanceFlow) apply(k pathKey) {
	if _, ok := bf.sites[k]; ok {
		bf.set(k, bf.spec.step(bf.out[k]))
	}
}

// set moves k to state s in the outgoing fact; the zero state removes
// k.
func (bf *balanceFlow) set(k pathKey, s pathState) {
	if bf.out[k] == s {
		return
	}
	if !bf.owned {
		bf.out, bf.owned = bf.out.clone(), true
	}
	if s == 0 {
		delete(bf.out, k)
		return
	}
	bf.out[k] = s
}

// forget makes every tracked key rooted at obj unknown: obj was rebound.
func (bf *balanceFlow) forget(obj types.Object) {
	for k := range bf.out {
		if k.root == obj {
			bf.set(k, 0)
		}
	}
}

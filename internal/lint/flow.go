package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"quickdrop/internal/lint/dataflow"
)

// The flow engine shared by every flow-sensitive rule: how one CFG node
// is read (nodeWalker) and how a unit is solved and its findings
// reported (flowUnit). The four path-balance rules — lockbalance,
// wgbalance, resbalance and poolbalance — go one step further and are
// specs on one engine (balanceSpec): a key, a per-key powerset fact
// (keyFact), an op → transition table and an exit verdict.

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
	// elemOf is the range expression when obj is the value variable,
	// and nil for the key.
	bind     func(obj types.Object, elemOf ast.Expr)
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
			if obj := exprObj(w.info, x.Key); obj != nil {
				w.bind(obj, nil)
			}
			if obj := exprObj(w.info, x.Value); obj != nil {
				w.bind(obj, x.X)
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

// forIdentObjs calls f with the object of every identifier in expr.
func forIdentObjs(info *types.Info, expr ast.Expr, f func(types.Object)) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(info, id); obj != nil {
				f(obj)
			}
		}
		return true
	})
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

// flowUnit is one function body under a flow rule: its CFG, and a
// reporter that is live only while the solved facts are replayed and
// reports each (position, message) once.
type flowUnit struct {
	pass      *Pass
	g         *dataflow.Graph
	replaying bool
	seen      map[flowFinding]bool
}

type flowFinding struct {
	pos token.Pos
	msg string
}

// newFlowUnit builds body's CFG, in which calls to the builtin panic
// leave the function. It returns nil for a missing body.
func newFlowUnit(pass *Pass, info *types.Info, body *ast.BlockStmt) *flowUnit {
	g := dataflow.NewFromBlock(body, func(call *ast.CallExpr) bool {
		return isBuiltinPanic(info, call)
	})
	if g == nil {
		return nil
	}
	return &flowUnit{pass: pass, g: g}
}

// reportf reports a finding during the replay, once per position and
// message.
func (u *flowUnit) reportf(pos token.Pos, format string, args ...any) {
	if !u.replaying {
		return
	}
	k := flowFinding{pos: pos, msg: fmt.Sprintf(format, args...)}
	if u.seen[k] {
		return
	}
	if u.seen == nil {
		u.seen = make(map[flowFinding]bool)
	}
	u.seen[k] = true
	u.pass.Reportf(pos, "%s", k.msg)
}

// solveUnit solves an over u's CFG silently, then replays the solution
// with u reporting.
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

// balanceOp is what one call or binding does to a tracked key.
type balanceOp uint8

const (
	balAcquire       balanceOp = iota // Lock, pool Get, a contract acquire
	balAcquireShared                  // RLock
	balRelease                        // Unlock, Done, Put, a contract release
	balReleaseShared                  // RUnlock
	balBindNil                        // the variable is bound to nil
	balHandOff                        // returned: ownership moves to the caller
)

// balanceSpec is one path-balance rule on the shared engine.
type balanceSpec struct {
	// init is every tracked key's state at function entry (0: unknown).
	init pathState
	// scan folds the ops one AST node performs into the flow, through
	// bf.apply and bf.forget; returning false skips x's children.
	scan func(bf *balanceFlow, x ast.Node) bool
	// step is the transition table: op on a key in state st moves it to
	// next, and a non-empty msg is a misuse reported at the op.
	step func(op balanceOp, st pathState, name string) (next pathState, msg string)
	// nilState, when set, is the state bit meaning "provably nil":
	// comparisons against nil refine it along branch edges.
	nilState pathState
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

// exitStates summarizes one key over a unit's exits, after the deferred
// calls ran.
type exitStates struct {
	// normal joins the key's states over the non-panicking exits.
	normal pathState
	// unknown is set when some non-panicking exit has the key unknown.
	unknown bool
	// panicInit is set when some panicking exit leaves the key in its
	// entry state.
	panicInit bool
}

// balanceFlow runs one balance spec over one unit. Its transfer
// function walks one CFG node with walker, whose visit and bind write
// the outgoing fact through set; the incoming fact is copied on the
// first write.
type balanceFlow struct {
	*flowUnit
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
	u := newFlowUnit(pass, info, body)
	if u == nil {
		return
	}
	bf := &balanceFlow{flowUnit: u, info: info, spec: spec, sites: sites}
	bf.walker = nodeWalker{
		info:  info,
		visit: func(x ast.Node) bool { return spec.scan(bf, x) },
		bind:  func(obj types.Object, _ ast.Expr) { bf.forget(obj) },
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
	if spec.nilState != 0 {
		an.Refine = bf.refineNil
	}
	res := solveUnit(u, an)

	exits := make(map[pathKey]*exitStates, len(sites))
	for k := range sites {
		exits[k] = &exitStates{}
	}
	res.Exits(u.g, an, func(f keyFact, panics bool) {
		for k, e := range exits {
			switch st := f[k]; {
			case panics:
				e.panicInit = e.panicInit || st == spec.init
			case st == 0:
				e.unknown = true
			default:
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

// apply moves a tracked key through the spec's transition table at pos.
func (bf *balanceFlow) apply(k pathKey, op balanceOp, pos token.Pos) {
	site, ok := bf.sites[k]
	if !ok {
		return
	}
	next, msg := bf.spec.step(op, bf.out[k], site.name)
	if msg != "" {
		bf.reportf(pos, "%s", msg)
	}
	bf.set(k, next)
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

// refineNil narrows a variable's state along the edges of a comparison
// against nil, and prunes the edge the state rules out.
func (bf *balanceFlow) refineNil(cond ast.Expr, neg bool, in keyFact) (keyFact, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return in, true
	}
	var obj types.Object
	if isNilIdent(bf.info, be.Y) {
		obj = exprObj(bf.info, be.X)
	} else if isNilIdent(bf.info, be.X) {
		obj = exprObj(bf.info, be.Y)
	}
	if obj == nil {
		return in, true
	}
	k := varKey(obj)
	st := in[k]
	if st == 0 {
		return in, true
	}
	nilBit := bf.spec.nilState
	next := st &^ nilBit // the non-nil edge
	if (be.Op == token.EQL) != neg {
		next = st & nilBit
	}
	if next == 0 {
		return nil, false // the state rules this edge out
	}
	if next == st {
		return in, true
	}
	out := in.clone()
	out[k] = next
	return out, true
}

func isNilIdent(info *types.Info, x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// varKey is the key of a tracked variable.
func varKey(obj types.Object) pathKey {
	return pathKey{root: obj, path: obj.Name()}
}

// --- the ownership family: a value the unit must release ---

// The ownership lattice — of a pool buffer (poolbalance) or a
// contract-declared resource (resbalance) — is the powerset of these
// states.
const (
	ownNil      pathState = 1 << iota // provably nil on this path
	ownHeld                           // holds an unreleased acquisition
	ownReleased                       // released, or returned to the caller
)

// ownership describes one family of owned values.
type ownership struct {
	// acquires reports whether call's result is an acquisition that the
	// tracked variable obj, bound to it, must discharge.
	acquires func(call *ast.CallExpr, obj types.Object) bool
	// releases calls release with each variable call discharges.
	releases func(call *ast.CallExpr, release func(obj types.Object))
	// acquired is the state an acquire leaves: held, or held-or-nil
	// when the acquirer may return nil.
	acquired pathState
	// overwrite, twice and leak word the findings for an acquire over a
	// held value, a second release, and a leak, naming the value name.
	overwrite, twice, leak func(name string) string
}

// spec is the balance spec of o's variables: acquired by binding an
// acquire's result, bound to nil or rebound to anything else, released
// by o's releasing calls, and handed to the caller by a return.
func (o *ownership) spec() *balanceSpec {
	return &balanceSpec{
		scan:     o.scan,
		step:     o.step,
		nilState: ownNil,
		verdict: func(e exitStates, name string) string {
			if e.normal&ownHeld == 0 {
				return ""
			}
			return o.leak(name)
		},
	}
}

func (o *ownership) scan(bf *balanceFlow, x ast.Node) bool {
	switch x := x.(type) {
	case *ast.AssignStmt:
		if len(x.Lhs) == len(x.Rhs) {
			for i := range x.Rhs {
				o.bind(bf, x.Lhs[i], x.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		for i, name := range x.Names {
			if i < len(x.Values) {
				o.bind(bf, name, x.Values[i])
			} else if obj := exprObj(bf.info, name); obj != nil {
				bf.apply(varKey(obj), balBindNil, name.Pos()) // var x *T
			}
		}
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			if obj := exprObj(bf.info, res); obj != nil {
				bf.apply(varKey(obj), balHandOff, res.Pos())
			}
		}
	case *ast.CallExpr:
		o.releases(x, func(obj types.Object) {
			bf.apply(varKey(obj), balRelease, x.Pos())
		})
	}
	return true
}

// bind folds one lhs = rhs pair.
func (o *ownership) bind(bf *balanceFlow, lhs, rhs ast.Expr) {
	obj := exprObj(bf.info, lhs)
	if obj == nil {
		return
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && o.acquires(call, obj) {
		bf.apply(varKey(obj), balAcquire, call.Pos())
		return
	}
	if isNilIdent(bf.info, rhs) {
		bf.apply(varKey(obj), balBindNil, rhs.Pos())
		return
	}
	bf.forget(obj) // rebound to something unmodeled
}

func (o *ownership) step(op balanceOp, st pathState, name string) (pathState, string) {
	switch op {
	case balAcquire:
		if st&ownHeld != 0 {
			return o.acquired, o.overwrite(name)
		}
		return o.acquired, ""
	case balRelease:
		if st == ownReleased {
			return ownReleased, o.twice(name)
		}
	case balBindNil:
		return ownNil, ""
	}
	return ownReleased, "" // a release or a hand-off
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"quickdrop/internal/lint/dataflow"
)

// LockOrder builds a whole-program lock-acquisition graph and reports
// cycles as potential deadlocks. Locks are grouped into classes — a
// mutex field of a named struct type ("telemetry.Registry.mu") or a
// package-level mutex variable ("lint.stdImporter") — because two
// goroutines deadlock by taking instances of two classes in opposite
// orders just as surely as two globals.
//
// Within each function the currently-held class set is computed
// flow-sensitively over the CFG with the dataflow.LockSet lattice
// (union join, widening to Top, deferred Unlocks applied on the exit
// path). An acquisition while other classes are held adds held→acquired
// edges; a call made while holding propagates the callee's transitive
// acquisitions through an interprocedural summary fixpoint, so an
// A-holding function that reaches a B-locking helper three calls down
// still contributes the A→B edge. Goroutine spawns do not inherit the
// spawner's holdings (a different goroutine orders independently).
//
// Each edge on a cycle among distinct classes is reported at its
// acquisition site. Two instances of one class locked in sequence are
// not judged. The analysis runs once per program and only its first
// loaded package triggers it.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no cycles in the whole-program lock-acquisition order graph",
	Run:  runLockOrder,
}

// lockEdge is one held→acquired observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // callee name when the edge came through a summary
}

// lockGraph is the acquisition graph: nodes are lock classes, edges the
// observed held→acquired pairs (deduplicated, first observation wins).
type lockGraph struct {
	nodes map[string]bool
	edges map[[2]string]*lockEdge
	order [][2]string // insertion order for deterministic reports
}

func newLockGraph() *lockGraph {
	return &lockGraph{nodes: make(map[string]bool), edges: make(map[[2]string]*lockEdge)}
}

func (g *lockGraph) addEdge(e *lockEdge) {
	g.nodes[e.from] = true
	g.nodes[e.to] = true
	key := [2]string{e.from, e.to}
	if _, ok := g.edges[key]; ok {
		return
	}
	g.edges[key] = e
	g.order = append(g.order, key)
}

// cycleEdges returns the edges that participate in a lock-order cycle:
// every edge whose endpoints belong to one strongly connected component
// with more than one node. The result preserves insertion order.
func (g *lockGraph) cycleEdges() []*lockEdge {
	comp := g.scc()
	var out []*lockEdge
	for _, key := range g.order {
		from, to := key[0], key[1]
		if from != to && comp[from] == comp[to] {
			out = append(out, g.edges[key])
		}
	}
	return out
}

// sccMembers lists the nodes of the component containing n, sorted.
func (g *lockGraph) sccMembers(n string) []string {
	comp := g.scc()
	id := comp[n]
	var out []string
	for node, c := range comp {
		if c == id {
			out = append(out, node)
		}
	}
	sort.Strings(out)
	return out
}

// scc runs Tarjan's algorithm, mapping each node to a component ID.
func (g *lockGraph) scc() map[string]int {
	succs := make(map[string][]string)
	for _, key := range g.order {
		succs[key[0]] = append(succs[key[0]], key[1])
	}
	var nodes []string
	for n := range g.nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, nComp := 0, 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comp
}

// --- the analyzer ---

// lockClassOf names the class of a mutex receiver expression, or
// ok=false for receivers that have no stable cross-function identity
// (locals, parameters, index expressions).
func lockClassOf(info *types.Info, recv ast.Expr) (string, bool) {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		field, ok := info.Selections[e]
		if ok && field.Kind() == types.FieldVal {
			if n := namedOf(info.Types[e.X].Type); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + field.Obj().Name(), true
			}
		}
		// Qualified package-level var: pkg.Mu.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Name() + "." + v.Name(), true
				}
			}
		}
		return "", false
	case *ast.Ident:
		v, ok := identObj(info, e).(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", false
		}
		// Only package-level variables have cross-function identity.
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), true
		}
		return "", false
	default:
		return "", false
	}
}

func runLockOrder(pass *Pass) {
	// Whole-program rule: run once, from the first loaded package.
	if len(pass.Prog.Packages) == 0 || pass.Pkg != pass.Prog.Packages[0] {
		return
	}

	lo := &lockOrder{
		pass:   pass,
		graph:  newLockGraph(),
		direct: make(map[*types.Func]map[string]bool),
		cg:     dataflow.NewCallGraph[*types.Func](),
	}

	// Phase 1: per-function syntactic summaries (direct acquisitions and
	// statically resolved callees), for the interprocedural closure.
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					lo.summarize(pkg, fn, fd)
				}
			}
		}
	}
	lo.closeSummaries()

	// Phase 2: flow-sensitive held-set analysis per unit, emitting
	// edges at acquisition sites and call sites.
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			funcUnits(f, func(body *ast.BlockStmt) {
				lo.analyzeUnit(pkg, body)
			})
		}
	}

	// Phase 3: report cycles.
	for _, e := range lo.graph.cycleEdges() {
		members := lo.graph.sccMembers(e.from)
		cycle := strings.Join(members, " ⇄ ")
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (via the call to %s)", e.via)
		}
		pass.Reportf(e.pos,
			"potential deadlock: %s is acquired while %s is held%s, and elsewhere the order is reversed; lock-order cycle {%s}",
			e.to, e.from, via, cycle)
	}
}

type lockOrder struct {
	pass  *Pass
	graph *lockGraph
	// direct maps each declared function to the lock classes it
	// acquires in its own body; cg holds its statically resolved call
	// edges (goroutine payloads excluded — see summarize); all is the
	// transitive closure computed bottom-up over cg.
	direct map[*types.Func]map[string]bool
	cg     *dataflow.CallGraph[*types.Func]
	all    map[*types.Func]map[string]bool
}

// summarize records fn's direct acquisitions and callees. Goroutine
// payloads are excluded — a spawned goroutine synchronizes on its own
// schedule, so its acquisitions do not happen "inside" the spawner's
// critical section — but deferred and nested-literal code is included:
// both run on this goroutine.
func (lo *lockOrder) summarize(pkg *Package, fn *types.Func, fd *ast.FuncDecl) {
	lo.cg.AddNode(fn)
	acq := make(map[string]bool)
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if op := isMutexMethod(calleeFunc(pkg.Info, x)); op == opLock || op == opRLock {
					if recv, ok := syncCallRecv(x); ok {
						if class, ok := lockClassOf(pkg.Info, recv); ok {
							acq[class] = true
						}
					}
					return true
				}
				if callee := calleeFunc(pkg.Info, x); callee != nil {
					if _, known := lo.pass.Prog.Decls[callee]; known {
						lo.cg.AddEdge(fn, callee)
					}
				}
				return true
			}
			return true
		})
	}
	walk(fd.Body)
	lo.direct[fn] = acq
}

// closeSummaries computes the transitive acquisition sets bottom-up
// over the lock-specific call graph: the summary lattice is a set of
// lock classes, the transfer is "my direct acquisitions plus whatever
// my callees transitively acquire", and recursion converges because
// sets only grow.
func (lo *lockOrder) closeSummaries() {
	lo.all = dataflow.FixSummaries(lo.cg, dataflow.SummaryAnalysis[*types.Func, map[string]bool]{
		Bottom: func(fn *types.Func) map[string]bool {
			s := make(map[string]bool, len(lo.direct[fn]))
			for c := range lo.direct[fn] {
				s[c] = true
			}
			return s
		},
		Transfer: func(fn *types.Func, get func(*types.Func) map[string]bool) map[string]bool {
			s := make(map[string]bool, len(lo.direct[fn]))
			for c := range lo.direct[fn] {
				s[c] = true
			}
			for _, callee := range lo.cg.Callees(fn) {
				for c := range get(callee) {
					s[c] = true
				}
			}
			return s
		},
		Equal: eqSet[string],
	})
}

// analyzeUnit runs the held-set flow over one unit and emits edges
// while the solution is replayed.
func (lo *lockOrder) analyzeUnit(pkg *Package, body *ast.BlockStmt) {
	u := newFlowUnit(pkg.Info, body)
	if u == nil {
		return
	}
	var held dataflow.LockSet
	w := nodeWalker{info: pkg.Info, visit: func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			return false // spawned goroutine: no inherited order
		case *ast.CallExpr:
			lo.flowCall(pkg, x, &held, u.replaying)
		}
		return true
	}}
	solveUnit(u, dataflow.Analysis[dataflow.LockSet]{
		Join:  dataflow.LockSet.Join,
		Equal: dataflow.LockSet.Equal,
		Stmt: func(n ast.Node, in dataflow.LockSet) dataflow.LockSet {
			held = in
			w.node(n)
			return held
		},
	})
}

// flowCall folds one call into the held set of classes, emitting edges
// when emit is set: acquisitions add held→acquired edges (and the
// class), releases remove their class, and calls to summarized
// functions add held→callee-acquired edges.
func (lo *lockOrder) flowCall(pkg *Package, call *ast.CallExpr, held *dataflow.LockSet, emit bool) {
	info := pkg.Info
	callee := calleeFunc(info, call)
	if op := isMutexMethod(callee); op != opNone {
		recv, ok := syncCallRecv(call)
		if !ok {
			return
		}
		class, ok := lockClassOf(info, recv)
		if !ok {
			return
		}
		switch op {
		case opLock, opRLock:
			if emit && !held.IsTop() {
				for _, hc := range held.Elems() {
					if hc != class {
						lo.graph.addEdge(&lockEdge{from: hc, to: class, pos: call.Pos()})
					}
				}
			}
			*held = held.Insert(class)
		case opUnlock, opRUnlock:
			*held = held.Remove(class)
		}
		return
	}
	if callee == nil || held.IsTop() || held.Len() == 0 {
		return
	}
	if !emit {
		return
	}
	for c := range lo.all[callee] {
		for _, hc := range held.Elems() {
			if hc != c {
				lo.graph.addEdge(&lockEdge{from: hc, to: c, pos: call.Pos(), via: callee.Name()})
			}
		}
	}
}

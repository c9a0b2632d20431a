package dataflow

import "go/ast"

// Analysis describes one forward dataflow problem over a Graph. The
// fact type F must behave as an immutable value: Stmt returns new
// facts rather than mutating its input, so facts can be shared between
// blocks.
type Analysis[F any] struct {
	// Init is the fact at function entry.
	Init F
	// Join merges the facts of two converging paths.
	Join func(a, b F) F
	// Equal reports fact equality; the solver iterates until every
	// block's input fact is stable under Equal.
	Equal func(a, b F) bool
	// Stmt is the transfer function of one statement.
	Stmt func(n ast.Node, in F) F
}

// Result holds the solver's fixpoint: the fact reaching each block's
// entry. Blocks never reached (statically dead code) are absent.
type Result[F any] struct {
	In map[*Block]F
}

// Forward runs a's transfer functions over g to fixpoint, propagating
// facts along control-flow edges, and returns
// the fact at each reachable block's entry. The iteration order is the
// block construction order (roughly source order), which converges
// quickly for reducible graphs; correctness does not depend on it.
func Forward[F any](g *Graph, a Analysis[F]) Result[F] {
	in := make(map[*Block]F)
	in[g.Entry] = a.Init
	dirty := map[*Block]bool{g.Entry: true}
	// Bound the iteration defensively: each sweep visits every block
	// once; a lattice of finite height converges long before the cap.
	for sweep := 0; sweep < 4*len(g.Blocks)+16; sweep++ {
		changed := false
		for _, blk := range g.Blocks {
			if !dirty[blk] {
				continue
			}
			dirty[blk] = false
			fact, ok := in[blk]
			if !ok {
				continue
			}
			out := a.flowBlock(blk, fact)
			for _, succ := range blk.Succs {
				old, seen := in[succ]
				if !seen {
					in[succ] = out
					dirty[succ] = true
					changed = true
					continue
				}
				merged := a.Join(old, out)
				if !a.Equal(merged, old) {
					in[succ] = merged
					dirty[succ] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return Result[F]{In: in}
}

// flowBlock folds the transfer function over one block's statements.
func (a Analysis[F]) flowBlock(blk *Block, f F) F {
	for _, n := range blk.Stmts {
		f = a.Stmt(n, f)
	}
	return f
}

// Replay re-runs a's transfer function over every reached block once,
// from the block's solved entry fact, in block order. A rule solves
// with a silent transfer function and reports from the replay, so each
// statement is judged once, against its fixpoint fact.
func (r Result[F]) Replay(g *Graph, a Analysis[F]) {
	for _, blk := range g.Blocks {
		if f, ok := r.In[blk]; ok {
			a.flowBlock(blk, f)
		}
	}
}

// Exits calls visit once per reached block that leaves the function —
// by returning, panicking or falling off the end — with the fact the
// function exits with on that way out: the block's outgoing fact after
// the defers block ran over it. panics marks a panicking exit.
func (r Result[F]) Exits(g *Graph, a Analysis[F], visit func(f F, panics bool)) {
	target := g.Exit
	if g.Defers != nil {
		target = g.Defers
	}
	panicking := make(map[*Block]bool, len(g.PanicExits))
	for _, blk := range g.PanicExits {
		panicking[blk] = true
	}
	seen := make(map[*Block]bool, len(target.Preds))
	for _, blk := range target.Preds {
		f, ok := r.In[blk]
		if !ok || seen[blk] {
			continue
		}
		seen[blk] = true
		f = a.flowBlock(blk, f)
		if g.Defers != nil {
			f = a.flowBlock(g.Defers, f)
		}
		visit(f, panicking[blk])
	}
}

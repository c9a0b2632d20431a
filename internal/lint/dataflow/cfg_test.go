package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildGraph parses a single function body and builds its CFG. Calls to
// an identifier named "panic" count as panics (the tests are
// type-oblivious, like the builder).
func buildGraph(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fn := file.Decls[0].(*ast.FuncDecl)
	isPanic := func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	g := New(fn, isPanic)
	if g == nil {
		t.Fatal("nil graph")
	}
	return g
}

// reachable walks the graph from the entry.
func reachable(g *Graph) map[*Block]bool {
	seen := make(map[*Block]bool)
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, succ := range b.Succs {
			visit(succ)
		}
	}
	visit(g.Entry)
	return seen
}

func TestCFGBranchEdges(t *testing.T) {
	g := buildGraph(t, "x := 1\nif x > 0 {\n x = 2\n} else {\n x = 3\n}\n_ = x")
	// The entry block ends in the branch: a then and an else successor.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("entry has %d successors, want 2 (then and else)", len(g.Entry.Succs))
	}
	if g.Entry.Succs[0] == g.Entry.Succs[1] {
		t.Errorf("then and else edges lead to the same block")
	}
	if !reachable(g)[g.Exit] {
		t.Errorf("exit unreachable")
	}
}

func TestCFGIfWithoutElse(t *testing.T) {
	g := buildGraph(t, "x := 1\nif x > 0 {\n x = 2\n}\n_ = x")
	// Without an else, the false edge jumps straight to the after
	// block, which the then block also reaches.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("entry has %d successors, want 2 (then and after)", len(g.Entry.Succs))
	}
	then, after := g.Entry.Succs[0], g.Entry.Succs[1]
	found := false
	for _, succ := range then.Succs {
		if succ == after {
			found = true
		}
	}
	if !found {
		t.Errorf("then block does not rejoin the after block")
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	g := buildGraph(t, "s := 0\nfor i := 0; i < 3; i++ {\n s += i\n}\n_ = s")
	// The loop head is the entry's one successor; with a condition it
	// branches to the body and the after block.
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry has %d successors, want 1 (the loop head)", len(g.Entry.Succs))
	}
	head := g.Entry.Succs[0]
	if len(head.Succs) != 2 {
		t.Fatalf("loop head has %d successors, want 2 (body and after)", len(head.Succs))
	}
	// The head must be its own transitive successor (a back edge exists).
	seen := make(map[*Block]bool)
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		for _, succ := range b.Succs {
			if succ == head {
				return true
			}
			if !seen[succ] {
				seen[succ] = true
				if visit(succ) {
					return true
				}
			}
		}
		return false
	}
	if !visit(head) {
		t.Errorf("loop head has no back edge")
	}
}

func TestCFGRangeHead(t *testing.T) {
	g := buildGraph(t, "s := 0\nfor _, v := range []int{1, 2} {\n s += v\n}\n_ = s")
	// The range head holds the RangeStmt itself and branches to both the
	// body and the after block.
	var head *Block
	for _, b := range g.Blocks {
		for _, n := range b.Stmts {
			if _, ok := n.(*ast.RangeStmt); ok {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatal("no block holds the RangeStmt")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("range head has %d successors, want 2 (body and after)", len(head.Succs))
	}
	// One successor must loop back to the head.
	body := head.Succs[0]
	back := false
	for _, succ := range body.Succs {
		if succ == head {
			back = true
		}
	}
	if !back {
		t.Errorf("range body does not loop back to the head")
	}
}

func TestCFGDeferBlock(t *testing.T) {
	g := buildGraph(t, "defer f()\ndefer g()\nreturn")
	if g.Defers == nil {
		t.Fatal("no defers block")
	}
	if g.Defers.Kind != KindDefers {
		t.Errorf("defers block kind = %v, want KindDefers", g.Defers.Kind)
	}
	if len(g.Defers.Stmts) != 2 {
		t.Fatalf("defers block holds %d statements, want 2", len(g.Defers.Stmts))
	}
	// Reverse registration order: the second defer runs first.
	first, ok := g.Defers.Stmts[0].(*DeferRun)
	if !ok {
		t.Fatalf("defers block holds %T, want *DeferRun", g.Defers.Stmts[0])
	}
	second := g.Defers.Stmts[1].(*DeferRun)
	if first.D.Pos() < second.D.Pos() {
		t.Errorf("defers run in registration order; want reverse")
	}
	// Every path to the exit goes through the defers block.
	for _, p := range g.Exit.Preds {
		if p != g.Defers {
			t.Errorf("exit has predecessor %d besides the defers block", p.Index)
		}
	}
	// DeferRun delegates positions to the wrapped statement.
	if first.Pos() != first.D.Pos() || first.End() != first.D.End() {
		t.Errorf("DeferRun positions do not delegate to the defer statement")
	}
}

func TestCFGPanicExit(t *testing.T) {
	g := buildGraph(t, "x := 1\nif x > 0 {\n panic(\"boom\")\n}\n_ = x")
	if len(g.PanicExits) != 1 {
		t.Fatalf("got %d panic exits, want 1", len(g.PanicExits))
	}
	pb := g.PanicExits[0]
	// The panicking block leaves the function directly (its successor is
	// the exit, since there are no defers).
	leavesToExit := false
	for _, succ := range pb.Succs {
		if succ == g.Exit {
			leavesToExit = true
		}
	}
	if !leavesToExit {
		t.Errorf("panic block does not flow to the exit")
	}
	// Statements after panic in the same source block must not be
	// reachable from the panic block.
	if reachable(g)[g.Exit] == false {
		t.Errorf("exit unreachable")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	g := buildGraph(t, "x := 1\nif x > 0 {\n return\n}\nx = 2\n_ = x")
	// Two distinct paths reach the exit: the early return and the fall
	// off the end.
	if len(g.Exit.Preds) < 2 {
		t.Fatalf("exit has %d predecessors, want at least 2", len(g.Exit.Preds))
	}
}

func TestCFGBreakContinue(t *testing.T) {
	g := buildGraph(t, "for i := 0; i < 9; i++ {\n if i == 3 {\n  continue\n }\n if i == 5 {\n  break\n }\n}\n")
	// Sanity: exit reachable, and no block dangles without successors
	// except the exit.
	seen := reachable(g)
	if !seen[g.Exit] {
		t.Fatal("exit unreachable")
	}
	for b := range seen {
		if b != g.Exit && len(b.Succs) == 0 {
			t.Errorf("reachable block %d has no successors", b.Index)
		}
	}
}

func TestCFGSwitch(t *testing.T) {
	g := buildGraph(t, "x := 1\nswitch x {\ncase 1:\n x = 2\ncase 2:\n x = 3\ndefault:\n x = 4\n}\n_ = x")
	seen := reachable(g)
	if !seen[g.Exit] {
		t.Fatal("exit unreachable")
	}
	// All three case bodies hang off one head: find a block with three
	// successors.
	found := false
	for b := range seen {
		if len(b.Succs) == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("no switch head with three case successors")
	}
}

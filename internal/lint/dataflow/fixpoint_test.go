package dataflow

import (
	"go/ast"
	"sort"
	"testing"
)

// callBits is a test fact: one bit per called function a..h, joined by
// union.
func callBits(visits map[ast.Node]int) Analysis[uint8] {
	return Analysis[uint8]{
		Join:  func(a, b uint8) uint8 { return a | b },
		Equal: func(a, b uint8) bool { return a == b },
		Stmt: func(n ast.Node, in uint8) uint8 {
			if visits != nil {
				visits[n]++
			}
			if d, ok := n.(*DeferRun); ok {
				n = d.D.Call
			}
			ast.Inspect(n, func(x ast.Node) bool {
				if _, ok := x.(*ast.DeferStmt); ok {
					return false // only the registration
				}
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && len(id.Name) == 1 && id.Name[0] >= 'a' && id.Name[0] <= 'h' {
						in |= 1 << (id.Name[0] - 'a')
					}
				}
				return true
			})
			return in
		},
	}
}

func TestReplayVisitsEachReachedStatementOnce(t *testing.T) {
	g := buildGraph(t, "for i := 0; i < 3; i++ {\n a()\n}\nif c {\n return\n b()\n}\nd()")
	an := callBits(nil)
	res := Forward(g, an)

	visits := make(map[ast.Node]int)
	res.Replay(g, callBits(visits))
	for _, blk := range g.Blocks {
		_, reached := res.In[blk]
		for _, n := range blk.Stmts {
			want := 0
			if reached {
				want = 1
			}
			if visits[n] != want {
				t.Errorf("block %d statement at %d replayed %d times, want %d", blk.Index, n.Pos(), visits[n], want)
			}
		}
	}
}

func TestExitsFoldDefersOverEveryExit(t *testing.T) {
	g := buildGraph(t, "defer h()\nif c {\n return\n}\nif e {\n a()\n panic(\"x\")\n}\nb()")
	an := callBits(nil)
	res := Forward(g, an)

	type exit struct {
		bits   uint8
		panics bool
	}
	var got []exit
	res.Exits(g, an, func(f uint8, panics bool) {
		got = append(got, exit{f, panics})
	})
	sort.Slice(got, func(i, j int) bool { return got[i].bits < got[j].bits })
	const a, b, h = 1 << 0, 1 << 1, 1 << 7
	want := []exit{{h, false}, {a | h, true}, {b | h, false}}
	if len(got) != len(want) {
		t.Fatalf("exits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("exits = %v, want %v", got, want)
			break
		}
	}
}

func TestExitsWithoutDefers(t *testing.T) {
	g := buildGraph(t, "if c {\n a()\n return\n}\nb()")
	an := callBits(nil)
	res := Forward(g, an)
	var got []uint8
	res.Exits(g, an, func(f uint8, panics bool) {
		if panics {
			t.Errorf("no exit of this body panics")
		}
		got = append(got, f)
	})
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("exit facts = %v, want [1 2]", got)
	}
}

package autodiff

import (
	"math/rand"
	"testing"

	"quickdrop/internal/tensor"
)

// secondOrder builds a small graph that exercises both backward orders —
// a ReLU MLP loss, its gradient, and the gradient of that gradient's
// squared norm with respect to the input — from the given leaves.
func secondOrder(x, w *Value) (first, second *Value) {
	h := ReLU(MatMul(x, w))
	loss := SumAll(Mul(h, h))
	first = MustGrad(loss, []*Value{w})[0]
	second = MustGrad(SumAll(Mul(first, first)), []*Value{x})[0]
	return first, second
}

// A graph grown from arena leaves must compute exactly what the same graph
// computes on the heap, on every step — including steps that run into
// poisoned, recycled buffers and recycled nodes.
func TestArenaGraphMatchesHeapGraphAcrossResets(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	xt, wt := tensor.Randn(rng, 1, 4, 5), tensor.Randn(rng, 1, 5, 3)
	wantFirst, wantSecond := secondOrder(Var(xt), Var(wt))

	a := NewArena()
	a.PoisonOnReset(true)
	for step := 0; step < 3; step++ {
		first, second := secondOrder(a.Var(xt), a.Var(wt))
		for i, v := range wantFirst.Data.Data() {
			if first.Data.Data()[i] != v {
				t.Fatalf("step %d: first-order elem %d = %v in the arena, %v on the heap", step, i, first.Data.Data()[i], v)
			}
		}
		for i, v := range wantSecond.Data.Data() {
			if second.Data.Data()[i] != v {
				t.Fatalf("step %d: second-order elem %d = %v in the arena, %v on the heap", step, i, second.Data.Data()[i], v)
			}
		}
		a.Reset()
	}
}

// After the first step of a given shape, building and differentiating the
// graph takes its nodes, its storage and Grad's scratch from the arena.
func TestArenaStepAllocatesNoNodesOrStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	xt, wt := tensor.Randn(rng, 1, 4, 5), tensor.Randn(rng, 1, 5, 3)
	heap := testing.AllocsPerRun(5, func() { secondOrder(Var(xt), Var(wt)) })

	a := NewArena()
	arena := testing.AllocsPerRun(5, func() {
		secondOrder(a.Var(xt), a.Var(wt))
		a.Reset()
	})
	// What is left: the slice each of the two Grad calls returns, SumAll's
	// axes slice (two calls) and the row-kernel closure each of the seven
	// matrix products hands to shardRows.
	if arena > 12 {
		t.Fatalf("a warm arena step allocated %v objects (the heap graph: %v)", arena, heap)
	}
	if heap < 10*arena {
		t.Fatalf("heap graph allocated only %v objects against the arena's %v — is the arena being used?", heap, arena)
	}
}

// Every result node inherits the arena of its inputs, whichever input
// carries it; a graph with no arena leaf stays on the heap.
func TestArenaInheritance(t *testing.T) {
	a := NewArena()
	x := tensor.Ones(2, 2)
	cases := map[string]*Value{
		"unary":        Neg(a.Const(x)),
		"first input":  Add(a.Var(x), Const(x)),
		"second input": Add(Const(x), a.Var(x)),
		"relu mask":    ReLU(a.Var(x)).inputsArr[1],
		"row max":      RowMax(a.Const(x)),
	}
	for name, v := range cases {
		if v.arena != a {
			t.Errorf("%s: result did not inherit the arena", name)
		}
	}
	if v := Add(Var(x), Const(x)); v.arena != nil {
		t.Error("a heap graph picked up an arena")
	}
	g := MustGrad(SumAll(Mul(a.Var(x), a.Var(x))), []*Value{Var(x)})[0]
	if g.arena != nil {
		t.Error("the zero gradient of an unreached input must not live in the arena")
	}
}

package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quickdrop/internal/tensor"
)

// randomGraph builds a random scalar function of several Var leaves, mostly
// out of the two-input primitives, so that fan-out, shared subexpressions,
// both operand positions and constant operands all occur. It returns the
// output and the Vars.
func randomGraph(rng *rand.Rand, ar *Arena) (out *Value, vars []*Value) {
	const n = 3
	leaf := func(v bool, shape ...int) *Value {
		t := tensor.Randn(rng, 0.5, shape...)
		if v {
			x := ar.Var(t)
			vars = append(vars, x)
			return x
		}
		return ar.Const(t)
	}
	mats := []*Value{leaf(true, n, n), leaf(true, n, n), leaf(true, n, n), leaf(true, n, n), leaf(false, n, n)}
	cols := []*Value{leaf(true, n, 1), leaf(true, n, 1), leaf(false, n, 1)}
	bias := leaf(true, n)
	// Operands lean towards recent nodes, so the graph grows deep as well
	// as wide.
	pick := func(pool []*Value) *Value {
		if rng.Intn(3) == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return pool[len(pool)-1-rng.Intn(min(3, len(pool)))]
	}
	for step := 0; step < 14; step++ {
		a, b, c := pick(mats), pick(mats), pick(cols)
		var m *Value
		switch rng.Intn(12) {
		case 0:
			m = Add(a, b)
		case 1:
			m = Sub(a, b)
		case 2:
			m = Mul(a, b)
		case 3:
			m = MatMul(a, b)
		case 4:
			m = MatMulNT(a, b)
		case 5:
			m = MatMulTN(a, b)
		case 6:
			m = MulBcast(a, c)
		case 7:
			m = AddBcast(a, c)
		case 8:
			m = SubBcast(a, c)
		case 9:
			m = AddRowVec(a, bias)
		case 10:
			m = ReLU(a)
		case 11:
			cols = append(cols, tanh(MulSum(a, b, 1)))
			continue
		}
		mats = append(mats, tanh(m))
	}
	last := mats[len(mats)-1]
	out = Add(SumAll(Mul(last, last)), SumAll(cols[len(cols)-1]))
	return out, vars
}

// randomSubset returns a non-empty random subset of vs, in order.
func randomSubset(rng *rand.Rand, vs []*Value) []*Value {
	for {
		var sub []*Value
		for _, v := range vs {
			if rng.Intn(2) == 0 {
				sub = append(sub, v)
			}
		}
		if len(sub) > 0 {
			return sub
		}
	}
}

// sameGrads fails unless every subset gradient is bitwise equal to the
// all-Vars gradient of the same Var.
func sameGrads(t *testing.T, name string, vars, sub []*Value, all, got []*Value) {
	t.Helper()
	at := make(map[*Value]*Value, len(vars))
	for i, v := range vars {
		at[v] = all[i]
	}
	for i, v := range sub {
		w, g := at[v].Data.Data(), got[i].Data.Data()
		if len(w) != len(g) {
			t.Fatalf("%s: wrt %d has %d elements, want %d", name, i, len(g), len(w))
		}
		for j := range w {
			if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
				t.Fatalf("%s: wrt %d element %d = %v, want %v (all Vars)", name, i, j, g[j], w[j])
			}
		}
	}
}

// sumSquares is Σᵢ ⟨gᵢ, gᵢ⟩, a scalar of the gradients to differentiate
// again — the shape of gradient matching's distance.
func sumSquares(gs []*Value) *Value {
	s := SumAll(Mul(gs[0], gs[0]))
	for _, g := range gs[1:] {
		s = Add(s, SumAll(Mul(g, g)))
	}
	return s
}

// TestGradSubsetMatchesAllVars pins Grad's live set: over random graphs,
// differentiating with respect to a subset of the Vars gives bitwise the
// gradients differentiating with respect to all of them gives — at first
// order, and at second order through a first-order Grad taken with
// respect to a subset. Odd trials build in an arena, whose Grad scratch
// carries over from one call to the next, and check that no node keeps a
// traversal mark once Grad returns.
func TestGradSubsetMatchesAllVars(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var ar *Arena
		if trial%2 == 1 {
			ar = NewArena()
		}
		out, vars := randomGraph(rng, ar)
		name := fmt.Sprintf("trial %d", trial)

		all := MustGrad(out, vars)
		sub := randomSubset(rng, vars)
		sameGrads(t, name+" first order", vars, sub, all, MustGrad(out, sub))

		// Second order: the first-order Grad is taken with respect to a
		// subset A; its squared norm is differentiated with respect to a
		// subset B and to all Vars.
		a := randomSubset(rng, vars)
		s := sumSquares(MustGrad(out, a))
		all2 := MustGrad(s, vars)
		b := randomSubset(rng, vars)
		sameGrads(t, name+" second order", vars, b, all2, MustGrad(s, b))

		// The same second-order gradients through a first-order Grad with
		// respect to every Var, of which only A's entries are used.
		gAll := MustGrad(out, vars)
		var ga []*Value
		for _, w := range a {
			for i, v := range vars {
				if v == w {
					ga = append(ga, gAll[i])
				}
			}
		}
		sameGrads(t, name+" second order via all Vars", vars, b, all2, MustGrad(sumSquares(ga), b))

		// Grad leaves no traversal mark or gradient behind on any node.
		if ar != nil {
			noGradState(t, name, ar)
		}
	}
}

// noGradState fails if a node of the arena keeps a traversal mark or a
// running gradient once Grad has returned.
func noGradState(t *testing.T, name string, ar *Arena) {
	t.Helper()
	for i := 0; i < ar.next; i++ {
		if n := &ar.slab[i/slabChunk][i%slabChunk]; n.mark != 0 || n.grad != nil {
			t.Fatalf("%s: node %d (%s) keeps mark %#x, gradient %v after Grad", name, i, n.op, n.mark, n.grad != nil)
		}
	}
}

// TestGradLeavesNoGradientOnTheNodes checks that Grad clears the running
// gradients it keeps on the nodes (Value.grad) before it returns, also
// when it fails: a gradient left behind would be added to by the next
// Grad over the same nodes. The same graph differentiated twice, at first
// and at second order, and again after a Grad that fails on a gradient
// shape error midway through its sweep, gives bitwise the first result.
// z is a wrt that out does not depend on: its mark is cleared only
// through the wrt list.
func TestGradLeavesNoGradientOnTheNodes(t *testing.T) {
	ar := NewArena()
	x := ar.Var(tensor.FromSlice([]float64{0.5, -1.5, 2}, 3))
	w := ar.Var(tensor.FromSlice([]float64{1.25, 0.75, -0.5}, 3))
	z := ar.Var(tensor.FromSlice([]float64{3}, 1))
	wrt := []*Value{x, w, z}
	// x fans out, so its gradient is the sum of two VJPs.
	out := SumAll(tanh(Mul(Mul(x, w), x)))

	first := MustGrad(out, wrt)
	noGradState(t, "first order", ar)
	sameGrads(t, "first order again", wrt, wrt, first, MustGrad(out, wrt))

	s := sumSquares(first[:2])
	second := MustGrad(s, wrt)
	noGradState(t, "second order", ar)
	sameGrads(t, "second order again", wrt, wrt, second, MustGrad(s, wrt))

	// bad's VJP hands x a gradient of out's shape, [1]. The sweep reaches
	// bad after out's whole subgraph has received gradients.
	bad := newNode1("bad", tensor.FromSlice([]float64{0}, 1), x, func(n, g *Value) *Value { return g })
	if _, err := Grad(Add(bad, out), wrt); err == nil {
		t.Fatal("Grad through a VJP of the wrong shape did not fail")
	}
	noGradState(t, "failed Grad", ar)
	sameGrads(t, "first order after a failed Grad", wrt, wrt, first, MustGrad(out, wrt))
	sameGrads(t, "second order after a failed Grad", wrt, wrt, second, MustGrad(s, wrt))
}

// opsSince counts the nodes named op that the arena handed out from node
// index from on.
func opsSince(a *Arena, from int, op string) int {
	n := 0
	for i := from; i < a.next; i++ {
		if a.slab[i/slabChunk][i%slabChunk].op == op {
			n++
		}
	}
	return n
}

// TestGradAsksNoDeadInputGradients checks that Grad never asks a VJP for
// the gradient of an input that cannot reach wrt: on a convolution, the
// gradient of the weights alone builds neither the patch gradient
// (matmulnt) nor its scatter back into the image (col2im), whether the
// image is a Var or a Const; at second order the image side stays unbuilt
// too when only the weights are asked for.
func TestGradAsksNoDeadInputGradients(t *testing.T) {
	geom := tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
	ar := NewArena()
	for _, imageIsVar := range []bool{true, false} {
		x := ar.Const(randT(1, 1, 2, 4, 4, 2))
		if imageIsVar {
			x = ar.Var(x.Data)
		}
		w := ar.Var(randT(2, 0.3, 18, 3))
		y := MatMul(Im2col(x, geom), w)
		loss := SumAll(Mul(y, y))

		from := ar.next
		gw := MustGrad(loss, []*Value{w})[0]
		for _, op := range []string{"matmulnt", "col2im"} {
			if k := opsSince(ar, from, op); k != 0 {
				t.Fatalf("image Var %v: Grad(loss, [W]) built %d %s node(s)", imageIsVar, k, op)
			}
		}

		from = ar.next
		MustGrad(SumAll(Mul(gw, gw)), []*Value{w})
		if k := opsSince(ar, from, "col2im"); k != 0 {
			t.Fatalf("image Var %v: second-order Grad wrt [W] built %d col2im node(s)", imageIsVar, k)
		}

		if imageIsVar {
			// The image's own gradient does need the scatter: the count
			// above is zero because Grad skipped it, not because none
			// would be built.
			from = ar.next
			MustGrad(loss, []*Value{x})
			if opsSince(ar, from, "col2im") == 0 {
				t.Fatal("Grad(loss, [x]) built no col2im node")
			}
		}
		ar.Reset()
	}
}

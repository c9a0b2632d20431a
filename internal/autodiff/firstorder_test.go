package autodiff

import (
	"math"
	"testing"

	"quickdrop/internal/tensor"
)

// convBlock is a two-block ConvNet in miniature on 6×6×2 maps: conv,
// instance norm, ReLU and average pooling twice — the second conv at
// stride 2 with an eight-filter tile and a tail of one — then a squared
// sum. The image is a leaf of the caller's choosing; params are
// conv1 w, b, norm γ, β, conv2 w, b.
func convBlock(x *Value, params []*Value) *Value {
	g1 := tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 6, InW: 6, Channel: 2}
	h := Conv(x, params[0], params[1], g1)
	h = ReLU(InstanceNorm(h, params[2], params[3], 1e-5))
	h = AvgPool(h, tensor.ConvGeom{Kernel: 2, Stride: 2, InH: 6, InW: 6, Channel: 4})
	g2 := tensor.ConvGeom{Kernel: 3, Stride: 2, Pad: 1, InH: 3, InW: 3, Channel: 4}
	h = Conv(h, params[4], params[5], g2)
	h = AvgPool(h, tensor.ConvGeom{Kernel: 2, Stride: 1, Pad: 1, InH: 2, InW: 2, Channel: 9})
	return SumAll(Mul(h, h))
}

// convBlockInputs returns the image and the parameters of convBlock, the
// image holding runs of ±0.
func convBlockInputs() (x *tensor.Tensor, params []*tensor.Tensor) {
	x = randT(91, 1, 3, 6, 6, 2)
	for i := range x.Data() {
		switch (i / 4) % 3 {
		case 1:
			x.Data()[i] = 0
		case 2:
			x.Data()[i] = math.Copysign(0, -1)
		}
	}
	return x, []*tensor.Tensor{
		randT(92, 0.4, 18, 4), randT(93, 0.1, 4), randT(94, 1, 4), randT(95, 1, 4),
		randT(96, 0.3, 36, 9), randT(97, 0.1, 9),
	}
}

// Inside the first-order scope Conv, InstanceNorm and AvgPool build one
// node each whose gradients are direct kernels; outside it the same
// calls build the composite. The loss and every gradient — the image's
// included, which takes the second conv's input gradient and both pools'
// scatters — agree bit for bit.
func TestFirstOrderGradMatchesComposite(t *testing.T) {
	xt, pt := convBlockInputs()
	ar := NewArena()
	ar.PoisonOnReset(true)
	for _, imageIsVar := range []bool{true, false} {
		leaves := func() []*Value {
			x := ar.Const(xt)
			if imageIsVar {
				x = ar.Var(xt)
			}
			vs := []*Value{x}
			for _, p := range pt {
				vs = append(vs, ar.Var(p))
			}
			return vs
		}
		vs := leaves()
		wrt := vs[1:]
		if imageIsVar {
			wrt = vs
		}
		loss := convBlock(vs[0], vs[1:])
		var want []float64
		for _, g := range MustGrad(loss, wrt) {
			want = append(want, g.Data.Data()...)
		}
		want = append(want, loss.Item())
		ar.Reset()

		vs = leaves()
		wrt = vs[1:]
		if imageIsVar {
			wrt = vs
		}
		grads := make([]*tensor.Tensor, len(wrt))
		var ops []string
		got := ar.FirstOrderGrad(grads, wrt, func() *Value {
			out := convBlock(vs[0], vs[1:])
			for i := 0; i < ar.next; i++ {
				ops = append(ops, ar.slab[i/slabChunk][i%slabChunk].op)
			}
			return out
		})
		for _, op := range []string{"im2col", "subbcast", "col2im"} {
			for _, o := range ops {
				if o == op {
					t.Fatalf("image Var %v: the first-order graph holds a %s node", imageIsVar, op)
				}
			}
		}
		var flat []float64
		for _, g := range grads {
			flat = append(flat, g.Data()...)
		}
		flat = append(flat, got)
		for i, w := range want {
			if math.Float64bits(flat[i]) != math.Float64bits(w) {
				t.Fatalf("image Var %v: value %d is %v in the first-order graph, %v in the composite", imageIsVar, i, flat[i], w)
			}
		}
		ar.Reset()
	}
}

// The scope closes when FirstOrderGrad returns and when build panics: a
// graph built afterwards in the same arena — as the matcher's synthetic
// pass is built after its real one — holds the composite's im2col,
// subbcast and col2im nodes, and differentiates twice. A heap graph
// never enters the scope.
func TestFirstOrderScopeCloses(t *testing.T) {
	xt, pt := convBlockInputs()
	ar := NewArena()
	vars := func(a *Arena) []*Value {
		vs := []*Value{a.Var(xt)}
		for _, p := range pt {
			vs = append(vs, a.Var(p))
		}
		return vs
	}
	requireComposite := func(what string) {
		t.Helper()
		if ar.firstOrder {
			t.Fatalf("%s: the arena is still in the first-order scope", what)
		}
		from := ar.next
		vs := vars(ar)
		first := MustGrad(convBlock(vs[0], vs[1:]), vs)
		MustGrad(sumSquares(first), vs[:1])
		for _, op := range []string{"im2col", "subbcast", "col2im"} {
			if opsSince(ar, from, op) == 0 {
				t.Fatalf("%s: a graph built after the scope holds no %s node", what, op)
			}
		}
		ar.Reset()
	}

	vs := vars(ar)
	grads := make([]*tensor.Tensor, len(vs))
	ar.FirstOrderGrad(grads, vs, func() *Value { return convBlock(vs[0], vs[1:]) })
	requireComposite("after a return")

	vs = vars(ar)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a panicking build did not panic")
			}
		}()
		ar.FirstOrderGrad(grads, vs, func() *Value {
			return Conv(vs[0], vs[1], vs[2], tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 5, InW: 6, Channel: 2})
		})
	}()
	ar.Reset()
	requireComposite("after a panic")

	var heapOp string
	hv := vars(nil)
	(*Arena)(nil).FirstOrderGrad(grads, hv, func() *Value {
		y := Conv(hv[0], hv[1], hv[2], tensor.ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 6, InW: 6, Channel: 2})
		heapOp = y.Op()
		return SumAll(y)
	})
	if heapOp != "reshape" {
		t.Fatalf("a heap graph's Conv built a %q node, not the composite's reshape", heapOp)
	}
}

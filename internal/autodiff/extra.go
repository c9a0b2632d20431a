package autodiff

import (
	"fmt"

	"quickdrop/internal/tensor"
)

// ConcatRows stacks matrices with equal column counts along axis 0.
func ConcatRows(parts ...*Value) *Value {
	if len(parts) == 0 {
		panic("autodiff: ConcatRows of nothing")
	}
	cols := parts[0].Data.Dim(1)
	rows := 0
	for _, p := range parts {
		if p.Data.Dims() != 2 || p.Data.Dim(1) != cols {
			panic(fmt.Sprintf("autodiff: ConcatRows shape mismatch: %s", p.Data.ShapeString()))
		}
		rows += p.Data.Dim(0)
	}
	starts := make([]int, len(parts))
	r := 0
	for i, p := range parts {
		starts[i] = r
		r += p.Data.Dim(0)
	}
	v := newNodeN("concatrows", nil, parts, func(n, g *Value) []*Value {
		grads := make([]*Value, len(parts))
		for i, p := range parts {
			grads[i] = SliceRows(g, starts[i], starts[i]+p.Data.Dim(0))
		}
		return grads
	})
	out := tensor.FullInto(v.scratch(), 0, rows, cols)
	off := 0
	for _, p := range parts {
		copy(out.Data()[off:], p.Data.Data())
		off += p.Data.Len()
	}
	v.Data = out
	return v
}

// SliceRows returns rows [lo, hi) of a matrix. The result is a view
// sharing a's storage (rows are contiguous in row-major order).
func SliceRows(a *Value, lo, hi int) *Value {
	if a.Data.Dims() != 2 || lo < 0 || hi > a.Data.Dim(0) || lo >= hi {
		panic(fmt.Sprintf("autodiff: SliceRows [%d,%d) of %s", lo, hi, a.Data.ShapeString()))
	}
	cols := a.Data.Dim(1)
	total := a.Data.Dim(0)
	return newNode1("slicerows", a.Data.RowsView(lo, hi), a, func(n, g *Value) *Value {
		// The scatter is linear with constant placement, so wrapping the
		// embedded gradient through ConcatRows keeps it differentiable.
		var parts []*Value
		if lo > 0 {
			parts = append(parts, g.arena.full(0, lo, cols))
		}
		parts = append(parts, g)
		if hi < total {
			parts = append(parts, g.arena.full(0, total-hi, cols))
		}
		return ConcatRows(parts...)
	})
}

// Sigmoid returns 1/(1+e^{-a}), composed from differentiable primitives.
func Sigmoid(a *Value) *Value {
	return PowConst(AddConst(Exp(Neg(a)), 1), -1)
}

// Tanh returns the hyperbolic tangent, composed as 2σ(2a) − 1.
func Tanh(a *Value) *Value {
	return AddConst(Scale(Sigmoid(Scale(a, 2)), 2), -1)
}

// Abs returns |a| with the sign mask treated as a constant (the standard
// subgradient convention, zero second derivative almost everywhere).
func Abs(a *Value) *Value {
	sign := a.arena.constNode()
	sign.Data = tensor.ApplyInto(sign.scratch(), a.Data, func(v float64) float64 {
		if v < 0 {
			return -1
		}
		return 1
	})
	return Mul(a, sign)
}

// HVP computes the Hessian-vector product H·v of a scalar loss with
// respect to params, exploiting that Grad builds a differentiable graph:
// H·v = ∇(⟨∇loss, v⟩). vs must be aligned with params and is treated as
// constant.
func HVP(loss *Value, params []*Value, vs []*tensor.Tensor) ([]*Value, error) {
	if len(params) != len(vs) {
		return nil, fmt.Errorf("autodiff: HVP got %d params and %d vectors", len(params), len(vs))
	}
	grads, err := Grad(loss, params)
	if err != nil {
		return nil, err
	}
	inner := Scalar(0)
	for i, g := range grads {
		inner = Add(inner, Dot(g, Const(vs[i])))
	}
	return Grad(inner, params)
}

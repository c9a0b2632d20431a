package autodiff

import (
	"fmt"
	"math"

	"quickdrop/internal/tensor"
)

// Two conventions keep the graph cheap to build:
//
//   - Ops allocate their node first and compute the result directly into
//     the node's inline tensor header (v.scratch()), so an interior node
//     costs one allocation plus its element storage — or nothing, when
//     node and storage come from the step's Arena.
//   - Each input has its own VJP, mapping the output gradient g to that
//     input's gradient: a two-input op passes two. Grad calls only the
//     VJPs of live inputs (see Grad), so a backward pass never builds the
//     gradient of, say, a matmul's constant operand.
//   - VJP functions are non-capturing func literals (or named functions):
//     they read their operands from the node — inputsArr, the c constant,
//     or the node itself — rather than closing over locals, so Go places
//     them in static storage instead of allocating a closure per op call.
//     Only ops whose backward needs non-node state (Im2col's geometry,
//     SliceRows' bounds) pay for a closure.

// Add returns a + b (same shape).
func Add(a, b *Value) *Value {
	v := newNode2("add", nil, a, b, identityVJP, identityVJP)
	v.Data = tensor.AddInto(v.scratch(), a.Data, b.Data)
	return v
}

// identityVJP passes the output gradient through unchanged.
func identityVJP(n, g *Value) *Value { return g }

// negVJP negates the output gradient.
func negVJP(n, g *Value) *Value { return Neg(g) }

// Neg returns -a.
func Neg(a *Value) *Value {
	v := newNode1("neg", nil, a, negVJP)
	v.Data = tensor.ScaleInto(v.scratch(), a.Data, -1)
	return v
}

// Sub returns a - b (same shape). It is a primitive (not Add∘Neg) so the
// hot paths that difference tensors — cross-entropy shifting, instance
// normalization, distance losses — allocate one node instead of two.
func Sub(a, b *Value) *Value {
	v := newNode2("sub", nil, a, b, identityVJP, negVJP)
	v.Data = tensor.SubInto(v.scratch(), a.Data, b.Data)
	return v
}

// Mul returns the elementwise product (same shape).
func Mul(a, b *Value) *Value {
	v := newNode2("mul", nil, a, b,
		func(n, g *Value) *Value { return Mul(g, n.inputsArr[1]) },
		func(n, g *Value) *Value { return Mul(g, n.inputsArr[0]) })
	v.Data = tensor.MulInto(v.scratch(), a.Data, b.Data)
	return v
}

// Div returns elementwise a / b (same shape).
func Div(a, b *Value) *Value { return Mul(a, PowConst(b, -1)) }

// Scale returns c * a for a Go-constant c.
func Scale(a *Value, c float64) *Value {
	v := newNode1c("scale", nil, a, c, func(n, g *Value) *Value {
		return Scale(g, n.c)
	})
	v.Data = tensor.ScaleInto(v.scratch(), a.Data, c)
	return v
}

// AddConst returns a + c elementwise for a Go-constant c.
func AddConst(a *Value, c float64) *Value {
	v := newNode1("addconst", nil, a, identityVJP)
	v.Data = tensor.AddConstInto(v.scratch(), a.Data, c)
	return v
}

// PowConst returns aᵖ elementwise for a Go-constant exponent p.
func PowConst(a *Value, p float64) *Value {
	v := newNode1c("powconst", nil, a, p, func(n, g *Value) *Value {
		return Mul(g, Scale(PowConst(n.inputsArr[0], n.c-1), n.c))
	})
	v.Data = tensor.PowInto(v.scratch(), a.Data, p)
	return v
}

// Sqrt returns the elementwise square root.
func Sqrt(a *Value) *Value { return PowConst(a, 0.5) }

// Exp returns elementwise eᵃ. Its derivative is its own output, read back
// off the node during backward.
func Exp(a *Value) *Value {
	v := newNode1("exp", nil, a, func(n, g *Value) *Value {
		return Mul(g, n)
	})
	v.Data = tensor.ApplyInto(v.scratch(), a.Data, math.Exp)
	return v
}

// Log returns the elementwise natural logarithm.
func Log(a *Value) *Value {
	v := newNode1("log", nil, a, func(n, g *Value) *Value {
		return Mul(g, PowConst(n.inputsArr[0], -1))
	})
	v.Data = tensor.ApplyInto(v.scratch(), a.Data, math.Log)
	return v
}

// ReLU returns elementwise max(a, 0). The derivative treats the activation
// mask as a constant (zero almost everywhere in second order), matching
// standard deep-learning practice. The mask is computed once at forward
// time and stashed in the node's spare input slot — inputs is sliced to
// length 1, so the traversal never mistakes it for a differentiable input.
func ReLU(a *Value) *Value {
	v := newNode1("relu", nil, a, func(n, g *Value) *Value {
		return Mul(g, n.inputsArr[1])
	})
	var mask *tensor.Tensor // stays nil, and the mask uncomputed, when nothing will differentiate v
	if v.requiresGrad {
		m := v.arena.constNode()
		mask = m.scratch()
		m.Data = mask
		v.inputsArr[1] = m
	}
	v.Data = tensor.ReLUInto(v.scratch(), mask, a.Data)
	return v
}

// RowMax returns the row-wise maximum of a matrix [R, C] as a constant of
// shape [R, 1]: no gradient flows through it, which is exact wherever the
// result only shifts a shift-invariant expression (log-sum-exp).
func RowMax(a *Value) *Value {
	v := a.arena.constNode()
	v.Data = tensor.MaxRowsInto(v.scratch(), a.Data)
	return v
}

// Detach returns a's tensor as a constant, cutting the gradient flow.
func Detach(a *Value) *Value { return Const(a.Data.Clone()) }

// MatMul returns the matrix product a·b for a [M,K] and b [K,N]. Its VJP
// uses the transpose-fused kernels, so no backward pass materializes a
// transposed matrix.
func MatMul(a, b *Value) *Value {
	v := newNode2("matmul", nil, a, b,
		func(n, g *Value) *Value { return MatMulNT(g, n.inputsArr[1]) }, // ∂/∂a = g·bᵀ
		func(n, g *Value) *Value { return MatMulTN(n.inputsArr[0], g) }) // ∂/∂b = aᵀ·g
	v.Data = tensor.MatMulInto(v.scratch(), a.Data, b.Data)
	return v
}

// MatMulNT returns a·bᵀ for a [M,K] and b [N,K] without materializing the
// transpose. The three product forms (NN, NT, TN) are closed under
// differentiation, so backward graphs of any order stay transpose-free.
func MatMulNT(a, b *Value) *Value {
	v := newNode2("matmulnt", nil, a, b,
		func(n, g *Value) *Value { return MatMul(g, n.inputsArr[1]) },   // ∂/∂a = g·b
		func(n, g *Value) *Value { return MatMulTN(g, n.inputsArr[0]) }) // ∂/∂b = gᵀ·a
	v.Data = tensor.MatMulNTInto(v.scratch(), a.Data, b.Data)
	return v
}

// MatMulTN returns aᵀ·b for a [K,M] and b [K,N] without materializing the
// transpose.
func MatMulTN(a, b *Value) *Value {
	v := newNode2("matmultn", nil, a, b,
		func(n, g *Value) *Value { return MatMulNT(n.inputsArr[1], g) }, // ∂/∂a = b·gᵀ
		func(n, g *Value) *Value { return MatMul(n.inputsArr[0], g) })   // ∂/∂b = a·g
	v.Data = tensor.MatMulTNInto(v.scratch(), a.Data, b.Data)
	return v
}

// Transpose returns the matrix transpose.
func Transpose(a *Value) *Value {
	v := newNode1("transpose", nil, a, func(n, g *Value) *Value {
		return Transpose(g)
	})
	v.Data = tensor.TransposeInto(v.scratch(), a.Data)
	return v
}

// Reshape returns a with a new shape (same element count, row-major
// order). The result is a view sharing a's storage — graph-held tensors
// are immutable for the graph's lifetime, so no copy is needed.
func Reshape(a *Value, shape ...int) *Value {
	v := newNode1("reshape", nil, a, reshapeBackVJP)
	v.Data = tensor.ViewInto(v.scratch(), a.Data, shape...)
	return v
}

// reshapeBackVJP views the incoming gradient with the input's shape. It
// serves every reshape-family node: the original shape is recovered from
// the node's input rather than a captured slice.
func reshapeBackVJP(n, g *Value) *Value {
	return reshapeLike(g, n.inputsArr[0].Data)
}

// reshapeLike views a with ref's shape; its VJP views back, so arbitrarily
// deep backward graphs never copy or capture a shape slice.
func reshapeLike(a *Value, ref *tensor.Tensor) *Value {
	v := newNode1("reshape", nil, a, reshapeBackVJP)
	v.Data = tensor.ViewLikeInto(v.scratch(), a.Data, ref)
	return v
}

// SumAxes sums over the given (sorted, unique) axes, keeping them as size-1
// dimensions so the result broadcasts back against the input.
func SumAxes(a *Value, axes ...int) *Value {
	v := newNode1("sumaxes", nil, a, broadcastBackVJP)
	v.Data = tensor.SumAxesInto(v.scratch(), a.Data, axes...)
	return v
}

// broadcastBackVJP expands a reduction's gradient back to its input shape.
func broadcastBackVJP(n, g *Value) *Value {
	return BroadcastLike(g, n.inputsArr[0].Data)
}

// sumBackVJP reduces a broadcast's gradient back down to its input shape.
func sumBackVJP(n, g *Value) *Value {
	return sumAxesLike(g, n.inputsArr[0].Data)
}

// sumAxesLike sums a down to ref's shape (size 1 on reduced axes). It is
// the adjoint of BroadcastLike; the pair is closed under differentiation.
func sumAxesLike(a *Value, ref *tensor.Tensor) *Value {
	if a.Data.SameShape(ref) {
		return a
	}
	v := newNode1("sumaxes", nil, a, broadcastBackVJP)
	v.Data = tensor.SumLikeInto(v.scratch(), a.Data, ref)
	return v
}

// BroadcastTo expands size-1 dimensions of a to the given shape.
func BroadcastTo(a *Value, shape ...int) *Value {
	v := newNode1("broadcast", nil, a, sumBackVJP)
	v.Data = tensor.BroadcastToInto(v.scratch(), a.Data, shape...)
	return v
}

// BroadcastLike expands size-1 dimensions of a to ref's shape.
func BroadcastLike(a *Value, ref *tensor.Tensor) *Value {
	if a.Data.SameShape(ref) {
		return a
	}
	v := newNode1("broadcast", nil, a, sumBackVJP)
	v.Data = tensor.BroadcastLikeInto(v.scratch(), a.Data, ref)
	return v
}

// MulBcast returns a ⊙ broadcast(b) for a small b of equal rank with
// size-1 broadcast axes, without materializing the broadcast. It is the
// workhorse of normalization layers: scaling a feature map by per-channel
// or per-sample statistics costs one node and one full-size tensor.
func MulBcast(a, b *Value) *Value {
	v := newNode2("mulbcast", nil, a, b,
		func(n, g *Value) *Value { return MulBcast(g, n.inputsArr[1]) },
		func(n, g *Value) *Value { return mulSumLike(g, n.inputsArr[0], n.inputsArr[1].Data) })
	v.Data = tensor.MulBcastInto(v.scratch(), a.Data, b.Data)
	return v
}

// AddBcast returns a + broadcast(b); see MulBcast.
func AddBcast(a, b *Value) *Value {
	v := newNode2("addbcast", nil, a, b, identityVJP,
		func(n, g *Value) *Value { return sumAxesLike(g, n.inputsArr[1].Data) })
	v.Data = tensor.AddBcastInto(v.scratch(), a.Data, b.Data)
	return v
}

// SubBcast returns a - broadcast(b); see MulBcast.
func SubBcast(a, b *Value) *Value {
	v := newNode2("subbcast", nil, a, b, identityVJP,
		func(n, g *Value) *Value { return Neg(sumAxesLike(g, n.inputsArr[1].Data)) })
	v.Data = tensor.SubBcastInto(v.scratch(), a.Data, b.Data)
	return v
}

// mulSumVJPA and mulSumVJPB backpropagate any fused multiply-reduce: each
// operand's gradient is the other operand scaled by the broadcast output
// gradient.
func mulSumVJPA(n, g *Value) *Value { return MulBcast(n.inputsArr[1], g) }

func mulSumVJPB(n, g *Value) *Value { return MulBcast(n.inputsArr[0], g) }

// MulSum returns Σ_axes (a ⊙ b) — SumAxes(Mul(a, b), axes...) without
// materializing the product. The reduced axes are kept as size-1 dims.
// Grouped cosine distances and variance computations reduce through this.
func MulSum(a, b *Value, axes ...int) *Value {
	v := newNode2("mulsum", nil, a, b, mulSumVJPA, mulSumVJPB)
	v.Data = tensor.MulSumInto(v.scratch(), a.Data, b.Data, axes...)
	return v
}

// mulSumLike reduces a ⊙ b to ref's shape; the adjoint of MulBcast.
func mulSumLike(a, b *Value, ref *tensor.Tensor) *Value {
	v := newNode2("mulsum", nil, a, b, mulSumVJPA, mulSumVJPB)
	v.Data = tensor.MulSumLikeInto(v.scratch(), a.Data, b.Data, ref)
	return v
}

// AddRowVec adds a length-C bias vector to every row of a [R, C] matrix.
// It fuses the Reshape→BroadcastTo→Add chain used by linear and conv
// layers into one node, so the forward pass never materializes the
// broadcast and the backward pass reduces straight to column sums.
func AddRowVec(a, bias *Value) *Value {
	v := newNode2("addrow", nil, a, bias, identityVJP,
		func(n, g *Value) *Value { return Reshape(SumAxes(g, 0), n.inputsArr[1].Data.Len()) })
	v.Data = tensor.AddRowInto(v.scratch(), a.Data, bias.Data)
	return v
}

// SumAll reduces a to a scalar of shape [1].
func SumAll(a *Value) *Value {
	var arr [4]int // every tensor here is rank ≤ 4: the axes stay on the stack
	axes := arr[:0]
	for i := 0; i < a.Data.Dims(); i++ {
		axes = append(axes, i)
	}
	return Reshape(SumAxes(a, axes...), 1)
}

// Mean reduces a to its scalar mean, shape [1].
func Mean(a *Value) *Value {
	return Scale(SumAll(a), 1/float64(a.Data.Len()))
}

// Expand broadcasts a scalar node of shape [1] to an arbitrary shape.
func Expand(scalar *Value, shape ...int) *Value {
	if scalar.Data.Len() != 1 {
		panic(fmt.Sprintf("autodiff: Expand requires a scalar, got %s", scalar.Data.ShapeString()))
	}
	ones := make([]int, len(shape))
	for i := range ones {
		ones[i] = 1
	}
	return BroadcastTo(Reshape(scalar, ones...), shape...)
}

// Im2col extracts convolution patches (see tensor.Im2col) as a
// differentiable operation; the VJP is the adjoint scatter Col2im.
func Im2col(a *Value, g tensor.ConvGeom) *Value {
	batch := a.Data.Dim(0)
	v := newNode1("im2col", nil, a, func(n, gr *Value) *Value {
		return Col2im(gr, batch, g)
	})
	v.Data = tensor.Im2colInto(v.scratch(), a.Data, g)
	return v
}

// Col2im scatter-adds patches back into an NHWC tensor (adjoint of Im2col).
func Col2im(cols *Value, batch int, g tensor.ConvGeom) *Value {
	v := newNode1("col2im", nil, cols, func(n, gr *Value) *Value {
		return Im2col(gr, g)
	})
	v.Data = tensor.Col2imInto(v.scratch(), cols.Data, batch, g)
	return v
}

// Dot returns ⟨a, b⟩ as a scalar node of shape [1].
func Dot(a, b *Value) *Value {
	n := a.Data.Len()
	return Reshape(MulSum(Reshape(a, 1, n), Reshape(b, 1, n), 1), 1)
}

// Package autodiff is a stub mirroring the real engine's node
// constructors; vjpshape interprets each op's forward pass symbolically
// and then evaluates its VJP against prime-instantiated shapes.
package autodiff

import "quickdrop/internal/tensor"

// Value is one node of the autodiff graph.
type Value struct {
	Data *tensor.Tensor

	op         string
	inputs     []*Value
	vjp        [2]func(n, g *Value) *Value
	inputsArr  [2]*Value
	dataInline tensor.Tensor
}

func (v *Value) scratch() *tensor.Tensor { return &v.dataInline }

func newNode1(op string, data *tensor.Tensor, a *Value, vjp func(n, g *Value) *Value) *Value {
	v := &Value{Data: data, op: op}
	v.vjp[0] = vjp
	v.inputsArr[0] = a
	v.inputs = v.inputsArr[:1]
	return v
}

func newNode2(op string, data *tensor.Tensor, a, b *Value, vjpA, vjpB func(n, g *Value) *Value) *Value {
	v := &Value{Data: data, op: op, vjp: [2]func(n, g *Value) *Value{vjpA, vjpB}}
	v.inputsArr[0], v.inputsArr[1] = a, b
	v.inputs = v.inputsArr[:2]
	return v
}

func identityVJP(n, g *Value) *Value { return g }

// Add is a correct op: the gradient flows through unchanged.
func Add(a, b *Value) *Value {
	v := newNode2("add", nil, a, b, identityVJP, identityVJP)
	v.Data = tensor.AddInto(v.scratch(), a.Data, b.Data)
	return v
}

// MatMul is a correct op: its VJP uses the transpose-fused products.
func MatMul(a, b *Value) *Value {
	v := newNode2("matmul", nil, a, b,
		func(n, g *Value) *Value { return MatMulNT(g, n.inputsArr[1]) }, // ∂/∂a = g·bᵀ
		func(n, g *Value) *Value { return MatMulTN(n.inputsArr[0], g) }) // ∂/∂b = aᵀ·g
	v.Data = tensor.MatMulInto(v.scratch(), a.Data, b.Data)
	return v
}

// MatMulNT is a correct op: a·bᵀ for a [M,K] and b [N,K].
func MatMulNT(a, b *Value) *Value {
	v := newNode2("matmulnt", nil, a, b,
		func(n, g *Value) *Value { return MatMul(g, n.inputsArr[1]) },   // ∂/∂a = g·b
		func(n, g *Value) *Value { return MatMulTN(g, n.inputsArr[0]) }) // ∂/∂b = gᵀ·a
	v.Data = tensor.MatMulNTInto(v.scratch(), a.Data, b.Data)
	return v
}

// MatMulTN is a correct op: aᵀ·b for a [K,M] and b [K,N].
func MatMulTN(a, b *Value) *Value {
	v := newNode2("matmultn", nil, a, b,
		func(n, g *Value) *Value { return MatMulNT(n.inputsArr[1], g) }, // ∂/∂a = b·gᵀ
		func(n, g *Value) *Value { return MatMul(n.inputsArr[0], g) })   // ∂/∂b = a·g
	v.Data = tensor.MatMulTNInto(v.scratch(), a.Data, b.Data)
	return v
}

// TransposeBad forgets to transpose the incoming gradient, so the
// gradient has the output's shape instead of the input's.
func TransposeBad(a *Value) *Value {
	v := newNode1("transpose", nil, a, func(n, g *Value) *Value { // want `op "transpose" VJP produces gradient shape \[3 2\] for input 0 of shape \[2 3\]`
		return g
	})
	v.Data = tensor.TransposeInto(v.scratch(), a.Data)
	return v
}

// MatMulBad uses the plain product where the transpose-fused form is
// required: for g [M,N] and b [K,N], g·b is not even well-formed.
func MatMulBad(a, b *Value) *Value {
	v := newNode2("mm", nil, a, b,
		func(n, g *Value) *Value { return MatMulBad(g, n.inputsArr[1]) }, // want `op "mm" VJP produces gradient shape \[2 5\] for input 0 of shape \[2 3\]` `op "mm" VJP: MatMulBad: MatMulInto inner dims differ: \[2 5\] x \[3 5\]`
		func(n, g *Value) *Value { return MatMulTN(n.inputsArr[0], g) })
	v.Data = tensor.MatMulInto(v.scratch(), a.Data, b.Data)
	return v
}

// MatMulBadB gets a's gradient right and pastes the same formula in as
// b's: g·bᵀ has a's shape [M,K], not b's [K,N]. Each input's VJP is
// checked against its own input.
func MatMulBadB(a, b *Value) *Value {
	v := newNode2("mmb", nil, a, b,
		func(n, g *Value) *Value { return MatMulNT(g, n.inputsArr[1]) },
		func(n, g *Value) *Value { return MatMulNT(g, n.inputsArr[1]) }) // want `op "mmb" VJP produces gradient shape \[2 3\] for input 1 of shape \[3 5\]`
	v.Data = tensor.MatMulInto(v.scratch(), a.Data, b.Data)
	return v
}

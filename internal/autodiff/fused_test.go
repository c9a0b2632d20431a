package autodiff

import (
	"testing"

	"quickdrop/internal/tensor"
)

// Finite-difference checks for the fused primitives added by the compute
// backbone: explicit Sub, row-bias addition, transpose-fused matrix
// products, fused broadcast arithmetic, and fused multiply-reduce. Their
// VJPs are hand-written against the node's stored operands, so each needs
// its own numeric agreement check.
func TestFusedGradientNumericAgreement(t *testing.T) {
	tests := []numericCase{
		{"sub", [][]int{{2, 3}, {2, 3}}, func(xs []*Value) *Value {
			return SumAll(PowConst(Sub(xs[0], xs[1]), 2))
		}, 21},
		{"addrowvec", [][]int{{3, 4}, {4}}, func(xs []*Value) *Value {
			return SumAll(PowConst(AddRowVec(xs[0], xs[1]), 2))
		}, 22},
		{"matmulnt", [][]int{{3, 4}, {2, 4}}, func(xs []*Value) *Value {
			return SumAll(PowConst(MatMulNT(xs[0], xs[1]), 2))
		}, 23},
		{"matmultn", [][]int{{4, 3}, {4, 2}}, func(xs []*Value) *Value {
			return SumAll(PowConst(MatMulTN(xs[0], xs[1]), 2))
		}, 24},
		{"mulbcast-channels", [][]int{{2, 3, 3, 2}, {1, 1, 1, 2}}, func(xs []*Value) *Value {
			return SumAll(PowConst(MulBcast(xs[0], xs[1]), 2))
		}, 25},
		{"addbcast-batch", [][]int{{2, 3, 3, 2}, {2, 1, 1, 1}}, func(xs []*Value) *Value {
			return SumAll(PowConst(AddBcast(xs[0], xs[1]), 2))
		}, 26},
		{"subbcast", [][]int{{3, 4}, {1, 4}}, func(xs []*Value) *Value {
			return SumAll(PowConst(SubBcast(xs[0], xs[1]), 2))
		}, 27},
		{"mulsum", [][]int{{3, 4}, {3, 4}}, func(xs []*Value) *Value {
			return SumAll(PowConst(MulSum(xs[0], xs[1], 1), 2))
		}, 28},
		{"mulsum-spatial", [][]int{{2, 3, 3, 2}, {2, 3, 3, 2}}, func(xs []*Value) *Value {
			return SumAll(PowConst(MulSum(xs[0], xs[1], 1, 2), 2))
		}, 29},
		{"instance-norm-shape", [][]int{{2, 3, 3, 2}}, func(xs []*Value) *Value {
			// The InstanceNorm forward computation, written against the
			// fused primitives exactly as internal/nn does.
			x := xs[0]
			area := 9.0
			mean := Scale(SumAxes(x, 1, 2), 1/area)
			centered := SubBcast(x, mean)
			variance := Scale(MulSum(centered, centered, 1, 2), 1/area)
			inv := PowConst(AddConst(variance, 1e-5), -0.5)
			return SumAll(PowConst(MulBcast(centered, inv), 2))
		}, 30},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkFirstOrder(t, tc) })
	}
}

// The fused primitives must be closed under differentiation: QuickDrop
// differentiates a distance between gradients, so second-order flows
// through every one of them. Each row raises the fused op to a power,
// so its VJP's own graph is differentiated.
func TestFusedSecondOrderNumeric(t *testing.T) {
	sq := func(v *Value) *Value { return SumAll(PowConst(v, 2)) }
	tests := []numericCase{
		{"centered-mulsum", [][]int{{2, 3}}, func(xs []*Value) *Value {
			centered := SubBcast(xs[0], Scale(SumAxes(xs[0], 1), 1.0/3))
			return sq(MulSum(centered, centered, 1))
		}, 31},
		{"sub", [][]int{{2, 3}, {2, 3}}, func(xs []*Value) *Value { return sq(Mul(Sub(xs[0], xs[1]), xs[0])) }, 71},
		{"addrowvec", [][]int{{3, 4}, {4}}, func(xs []*Value) *Value { return SumAll(PowConst(AddRowVec(xs[0], xs[1]), 3)) }, 72},
		{"matmulnt", [][]int{{3, 4}, {2, 4}}, func(xs []*Value) *Value { return sq(MatMulNT(xs[0], xs[1])) }, 73},
		{"matmultn", [][]int{{4, 3}, {4, 2}}, func(xs []*Value) *Value { return sq(MatMulTN(xs[0], xs[1])) }, 74},
		{"mulbcast-channels", [][]int{{2, 3, 3, 2}, {1, 1, 1, 2}}, func(xs []*Value) *Value { return sq(MulBcast(xs[0], xs[1])) }, 75},
		{"addbcast-batch", [][]int{{2, 3, 3, 2}, {2, 1, 1, 1}}, func(xs []*Value) *Value {
			return SumAll(PowConst(AddBcast(xs[0], xs[1]), 3))
		}, 76},
		{"subbcast", [][]int{{3, 4}, {1, 4}}, func(xs []*Value) *Value { return SumAll(PowConst(SubBcast(xs[0], xs[1]), 3)) }, 77},
		{"mulsum", [][]int{{3, 4}, {3, 4}}, func(xs []*Value) *Value { return sq(MulSum(xs[0], xs[1], 1)) }, 78},
		{"mulsum-spatial", [][]int{{2, 3, 3, 2}, {2, 3, 3, 2}}, func(xs []*Value) *Value { return sq(MulSum(xs[0], xs[1], 1, 2)) }, 79},
		{"instance-norm-shape", [][]int{{2, 3, 3, 2}}, func(xs []*Value) *Value {
			x := xs[0]
			mean := Scale(SumAxes(x, 1, 2), 1.0/9)
			centered := SubBcast(x, mean)
			inv := PowConst(AddConst(Scale(MulSum(centered, centered, 1, 2), 1.0/9), 1e-5), -0.5)
			return sq(MulBcast(centered, inv))
		}, 80},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { checkSecondOrder(t, tc) })
	}
}

// Identity shortcuts: BroadcastLike and sumAxesLike return their input
// unchanged when shapes already match, rather than inserting a node.
func TestLikeOpsIdentityShortcut(t *testing.T) {
	x := Var(tensor.Ones(2, 3))
	if BroadcastLike(x, x.Data) != x {
		t.Fatal("BroadcastLike onto same shape must be the identity")
	}
	if sumAxesLike(x, x.Data) != x {
		t.Fatal("sumAxesLike onto same shape must be the identity")
	}
}

// Interior nodes embed their result tensor: the Data pointer of an op's
// output must be the node's inline header, not a separate allocation.
func TestNodeEmbedsResultTensor(t *testing.T) {
	a := Var(tensor.Ones(2, 2))
	b := Var(tensor.Ones(2, 2))
	v := Add(a, b)
	if v.Data != &v.dataInline {
		t.Fatal("op result must live in the node's inline tensor header")
	}
}

package tensor

import "strconv"

// This file is the single home of every shape-panic message in the
// package, so one grep for a message fragment finds the format every
// kernel panics with. These panics are the shape check: every kernel
// call verifies its operands at run time, and autodiff.Grad verifies
// each gradient against its input's shape.

// shapeErr builds the canonical same-shape mismatch message:
//
//	tensor: <op> shape mismatch [2 3] vs [3 2]
//
// Every kernel that requires operands of identical shape panics with
// exactly this wording (via mustSameShape).
func shapeErr(op string, got, want []int) string {
	return "tensor: " + op + " shape mismatch " + shapeStr(got) + " vs " + shapeStr(want)
}

// dstShapeErr is the destination-capacity message of prepDst: a live
// destination must hold exactly the result's element count.
func dstShapeErr(op string, got, want []int) string {
	return "tensor: " + op + " destination " + shapeStr(got) + " cannot hold result " + shapeStr(want)
}

// bcastRankErr reports a broadcast operand whose rank differs from the
// full shape's.
func bcastRankErr(small, full []int) string {
	return "tensor: broadcast rank mismatch " + shapeStr(small) + " vs " + shapeStr(full)
}

// bcastShapeErr reports a broadcast operand dimension that is neither 1
// nor the full dimension.
func bcastShapeErr(small, full []int) string {
	return "tensor: cannot broadcast " + shapeStr(small) + " against " + shapeStr(full)
}

// matMulRankErr reports a matrix-product operand that is not rank 2.
func matMulRankErr(a, b []int) string {
	return "tensor: MatMul requires matrices, got " + shapeStr(a) + " and " + shapeStr(b)
}

// matMulDimErr reports contraction dimensions that do not agree.
func matMulDimErr(a, b []int, ta, tb bool) string {
	return "tensor: MatMul inner dims differ: " + shapeStr(a) + " x " + shapeStr(b) +
		" (ta=" + strconv.FormatBool(ta) + " tb=" + strconv.FormatBool(tb) + ")"
}

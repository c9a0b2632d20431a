// Package p exercises statically-provable tensor shape violations.
package p

import "quickdrop/internal/tensor"

func matmulInner() {
	a := tensor.New(2, 3)
	b := tensor.New(4, 5)
	dst := tensor.New(2, 5)
	tensor.MatMulInto(dst, a, b) // want `MatMulInto inner dims differ: \[2 3\] x \[4 5\]`
}

func matmulDst() {
	a := tensor.New(2, 3)
	b := tensor.New(3, 5)
	dst := tensor.New(2, 2)
	tensor.MatMulInto(dst, a, b) // want `MatMulInto destination \[2 2\] cannot hold result \[2 5\]`
}

func addDst() {
	a := tensor.New(2, 3)
	dst := tensor.New(2, 2)
	tensor.AddInto(dst, a, a) // want `AddInto destination \[2 2\] cannot hold result \[2 3\]`
}

func reluDsts() {
	a := tensor.New(2, 3)
	tensor.ReLUInto(tensor.New(6), nil, a)              // ok: equal element count, no mask wanted
	tensor.ReLUInto(tensor.New(2, 2), nil, a)           // want `ReLUInto destination \[2 2\] cannot hold result \[2 3\]`
	tensor.ReLUInto(tensor.New(2, 3), tensor.New(3), a) // want `ReLUInto mask destination \[3\] cannot hold result \[2 3\]`
}

func addMismatch() {
	a := tensor.New(2, 3)
	b := tensor.New(3, 2)
	a.Add(b) // want `Add shape mismatch \[2 3\] vs \[3 2\]`
}

func bcastFused() {
	x := tensor.New(4, 5)
	row := tensor.New(1, 3)
	dst := tensor.New(4, 5)
	tensor.AddBcastInto(dst, x, row) // want `AddBcastInto cannot broadcast \[1 3\] against \[4 5\]`
}

func bcastRank() {
	x := tensor.New(4, 5)
	row := tensor.New(3)
	tensor.AddBcastInto(nil, x, row) // want `AddBcastInto broadcast rank mismatch \[3\] vs \[4 5\]`
}

func reshapeElems() {
	v := tensor.New(4)
	_ = v.Reshape(5) // want `cannot reshape \[4\] as \[5\]: element counts differ`
}

func viewDst() {
	a := tensor.New(2, 3)
	dst := tensor.New(2, 3)
	tensor.ViewInto(dst, a, 3, 2) // want "ViewInto needs an empty destination header"
}

// branchJoin checks path sensitivity: after the merge only the second
// dimension is known, so the reshape is not provably wrong.
func branchJoin(flag bool) {
	t := tensor.New(2, 3)
	if flag {
		t = tensor.New(3, 3)
	}
	_ = t.Reshape(9) // ok: element count unknown after the join

	if flag {
		t = tensor.New(4, 2)
	} else {
		t = tensor.New(4, 2)
	}
	_ = t.Reshape(9) // want `cannot reshape \[4 2\] as \[9\]: element counts differ`
}

// symbolic checks that provable relations survive unknown dimensions.
func symbolic(m, n int) {
	a := tensor.New(m, n)
	_ = a.Reshape(n * m) // ok: m*n elements either way
}

// loopWidens checks that a loop-carried rebinding widens to unknown
// instead of reporting from a stale pre-loop shape.
func loopWidens(xs []*tensor.Tensor) {
	t := tensor.New(2, 3)
	for _, x := range xs {
		t = x
	}
	_ = t.Reshape(7) // ok: t is unknown after the loop
}

func dstNil() {
	a := tensor.New(2, 3)
	b := tensor.New(2, 3)
	tensor.AddInto(nil, a, b) // ok: nil destination allocates
}

func suppressed() {
	a := tensor.New(2, 3)
	_ = a.Reshape(7) //lint:allow shapecheck deliberately exercising the suppression path
}

package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func tensorsClose(t *testing.T, a, b *Tensor, tol float64) {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("shape mismatch: %v vs %v", a.Shape(), b.Shape())
	}
	for i := range a.Data() {
		if !almostEqual(a.Data()[i], b.Data()[i], tol) {
			t.Fatalf("element %d differs: %g vs %g", i, a.Data()[i], b.Data()[i])
		}
	}
}

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Dims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("At = %g, want 7.5", got)
	}
	if got := x.Data()[1*4+2]; got != 7.5 {
		t.Fatalf("row-major offset wrong: %g", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3, -4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	mask := NewLike(a)
	ReLUInto(nil, mask, a)
	tests := []struct {
		name string
		got  *Tensor
		want []float64
	}{
		{"Add", a.Add(b), []float64{6, 4, 10, 4}},
		{"Sub", a.Sub(b), []float64{-4, -8, -4, -12}},
		{"Mul", MulInto(nil, a, b), []float64{5, -12, 21, -32}},
		{"Scale", ScaleInto(nil, a, 2), []float64{2, -4, 6, -8}},
		{"Neg", ScaleInto(nil, a, -1), []float64{-1, 2, -3, 4}},
		{"ReLU", ReLUInto(nil, nil, a), []float64{1, 0, 3, 0}},
		{"ReLUMask", mask, []float64{1, 0, 1, 0}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tensorsClose(t, tc.got, FromSlice(tc.want, 2, 2), 1e-12)
		})
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	AddInto(a, a, b)
	tensorsClose(t, a, FromSlice([]float64{4, 6}, 2), 0)
	a.AxpyInPlace(0.5, b)
	tensorsClose(t, a, FromSlice([]float64{5.5, 8}, 2), 1e-12)
	a.ScaleInPlace(2)
	tensorsClose(t, a, FromSlice([]float64{11, 16}, 2), 1e-12)
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(4))
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMulInto(nil, a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	tensorsClose(t, got, want, 1e-12)
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	tensorsClose(t, MatMulInto(nil, a, id), a, 1e-12)
	tensorsClose(t, MatMulInto(nil, id, a), a, 1e-12)
}

// transposed is the reference matrix transpose the MatMul variants are
// checked against.
func transposed(a *Tensor) *Tensor {
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := transposed(MatMulInto(nil, a, b))
		rhs := MatMulInto(nil, transposed(b), transposed(a))
		if !lhs.SameShape(rhs) {
			return false
		}
		for i := range lhs.Data() {
			if !almostEqual(lhs.Data()[i], rhs.Data()[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A·(B+C) = A·B + A·C.
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		c := Randn(r, 1, k, n)
		lhs := MatMulInto(nil, a, b.Add(c))
		rhs := MatMulInto(nil, a, b).Add(MatMulInto(nil, a, c))
		for i := range lhs.Data() {
			if !almostEqual(lhs.Data()[i], rhs.Data()[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSumAxes(t *testing.T) {
	// [2,2,2] summed over axis 1.
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	got := SumAxesInto(nil, x, 1)
	want := FromSlice([]float64{4, 6, 12, 14}, 2, 1, 2)
	tensorsClose(t, got, want, 1e-12)

	all := SumAxesInto(nil, x, 0, 1, 2)
	if all.Len() != 1 || all.Data()[0] != 36 {
		t.Fatalf("full reduce = %v", all.Data())
	}
}

func TestSumAxesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unsorted axes")
		}
	}()
	SumAxesInto(nil, New(2, 2), 1, 0)
}

func TestBroadcastTo(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 1, 2)
	got := BroadcastToInto(nil, x, 3, 2)
	want := FromSlice([]float64{1, 2, 1, 2, 1, 2}, 3, 2)
	tensorsClose(t, got, want, 0)
}

func TestBroadcastToRejectsMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BroadcastToInto(nil, New(2, 2), 3, 2)
}

// Property: for any tensor x and broadcastable shape, sum over broadcast
// axes of BroadcastTo(x) equals x scaled by the expansion factor —
// i.e. SumAxes is the adjoint of BroadcastTo.
func TestBroadcastSumAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := 1+r.Intn(3), 1+r.Intn(3)
		x := Randn(r, 1, 1, b)
		y := SumAxesInto(nil, BroadcastToInto(nil, x, a, b), 0)
		for i := range y.Data() {
			if !almostEqual(y.Data()[i], x.Data()[i]*float64(a), 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReductionsAndScalars(t *testing.T) {
	x := FromSlice([]float64{3, -4}, 2)
	if x.Sum() != -1 {
		t.Fatalf("Sum = %g", x.Sum())
	}
	if got := x.Dot(x); got != 25 {
		t.Fatalf("Dot = %g", got)
	}
	if got := x.Norm(); got != 5 {
		t.Fatalf("Norm = %g", got)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float64{0, 2, 1, 5, 4, 3}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestApplyPowExpLog(t *testing.T) {
	x := FromSlice([]float64{1, 4, 9}, 3)
	tensorsClose(t, PowInto(nil, x, 0.5), FromSlice([]float64{1, 2, 3}, 3), 1e-12)
	y := FromSlice([]float64{0, 1}, 2)
	ey := ApplyInto(nil, y, math.Exp)
	tensorsClose(t, ey, FromSlice([]float64{1, math.E}, 2), 1e-12)
	tensorsClose(t, ApplyInto(nil, ey, math.Log), y, 1e-12)
}

func TestRandnDeterministicPerSeed(t *testing.T) {
	a := Randn(rand.New(rand.NewSource(7)), 1, 5)
	b := Randn(rand.New(rand.NewSource(7)), 1, 5)
	tensorsClose(t, a, b, 0)
}

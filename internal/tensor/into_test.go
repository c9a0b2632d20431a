package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randT returns a deterministic pseudo-random tensor for kernel tests.
func randT(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return t
}

func equalTensors(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: element %d = %g, want %g", name, i, gd[i], wd[i])
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// intoCase describes one destination-passing kernel: how to run it with an
// arbitrary dst, which inputs dst may legally alias, and which inputs must
// panic when aliased. The harness cross-checks the nil-dst (allocating)
// result against a pool-provided dst and every legal aliased dst.
type intoCase struct {
	name     string
	inputs   []*Tensor
	run      func(dst *Tensor, in []*Tensor) *Tensor
	aliasOK  []int // indices of inputs dst may alias (same element count)
	aliasBad []int // indices of inputs that must panic when dst aliases them
}

func runIntoCases(t *testing.T, cases []intoCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Reference: allocating form (nil dst).
			want := c.run(nil, c.inputs)

			// Pooled dst: borrow a buffer of the result's element count but a
			// different (flat) shape; the kernel must adopt the result shape.
			pooled := Get(want.Len())
			got := c.run(pooled, c.inputs)
			if got != pooled {
				t.Fatalf("kernel did not return its destination")
			}
			equalTensors(t, "pooled dst", got, want)
			Put(pooled)

			// Zero-header dst (the autodiff inline-node path): storage is
			// allocated on demand.
			var hdr Tensor
			equalTensors(t, "zero-header dst", c.run(&hdr, c.inputs), want)

			// Legal aliasing: dst sharing an input's storage must still
			// produce the reference result.
			for _, idx := range c.aliasOK {
				in := make([]*Tensor, len(c.inputs))
				for i, v := range c.inputs {
					in[i] = v.Clone()
				}
				equalTensors(t, "aliased dst", c.run(in[idx], in), want)
			}

			// Illegal aliasing: kernels that read after writing must detect
			// a shared destination and panic rather than corrupt.
			for _, idx := range c.aliasBad {
				in := make([]*Tensor, len(c.inputs))
				for i, v := range c.inputs {
					in[i] = v.Clone()
				}
				if in[idx].Len() != want.Len() {
					continue // cannot alias buffers of different size
				}
				mustPanic(t, "alias detection", func() { c.run(in[idx].View(want.Shape()...), in) })
			}
		})
	}
}

func TestIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randT(rng, 4, 6)
	b := randT(rng, 4, 6)
	row := randT(rng, 6)
	sq := randT(rng, 5, 5)
	full := randT(rng, 3, 4, 4, 2)  // [B,H,W,C]
	chans := randT(rng, 1, 1, 1, 2) // broadcast over all but channels
	batch := randT(rng, 3, 1, 1, 1) // broadcast over all but batch
	pos := ApplyInto(nil, randT(rng, 4, 6), math.Abs)

	cases := []intoCase{
		{
			name:   "AddInto",
			inputs: []*Tensor{a, b},
			run:    func(d *Tensor, in []*Tensor) *Tensor { return AddInto(d, in[0], in[1]) },
			aliasOK: []int{
				0, 1,
			},
		},
		{
			name:    "SubInto",
			inputs:  []*Tensor{a, b},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return SubInto(d, in[0], in[1]) },
			aliasOK: []int{0, 1},
		},
		{
			name:    "MulInto",
			inputs:  []*Tensor{a, b},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return MulInto(d, in[0], in[1]) },
			aliasOK: []int{0, 1},
		},
		{
			name:    "ScaleInto",
			inputs:  []*Tensor{a},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return ScaleInto(d, in[0], -2.5) },
			aliasOK: []int{0},
		},
		{
			name:    "AddScaledInto",
			inputs:  []*Tensor{a, b},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return AddScaledInto(d, in[0], 0.75, in[1]) },
			aliasOK: []int{0, 1},
		},
		{
			name:    "ApplyInto",
			inputs:  []*Tensor{a},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return ApplyInto(d, in[0], math.Exp) },
			aliasOK: []int{0},
		},
		{
			name:    "ReLUInto",
			inputs:  []*Tensor{a},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return ReLUInto(d, nil, in[0]) },
			aliasOK: []int{0},
		},
		{
			name:    "AddConstInto",
			inputs:  []*Tensor{a},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return AddConstInto(d, in[0], 3.25) },
			aliasOK: []int{0},
		},
		{
			name:    "PowInto",
			inputs:  []*Tensor{pos},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return PowInto(d, in[0], 0.5) },
			aliasOK: []int{0},
		},
		{
			name:    "AddRowInto",
			inputs:  []*Tensor{a, row},
			run:     func(d *Tensor, in []*Tensor) *Tensor { return AddRowInto(d, in[0], in[1]) },
			aliasOK: []int{0},
		},
		{
			name:     "TransposeInto",
			inputs:   []*Tensor{sq},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return TransposeInto(d, in[0]) },
			aliasBad: []int{0},
		},
		{
			name:     "SumAxesInto",
			inputs:   []*Tensor{full},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return SumAxesInto(d, in[0], 1, 2) },
			aliasBad: []int{0},
		},
		{
			name:     "SumLikeInto",
			inputs:   []*Tensor{full, chans},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return SumLikeInto(d, in[0], in[1]) },
			aliasBad: []int{0},
		},
		{
			name:     "BroadcastToInto",
			inputs:   []*Tensor{chans},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return BroadcastToInto(d, in[0], 3, 4, 4, 2) },
			aliasBad: []int{0},
		},
		{
			name:     "BroadcastLikeInto",
			inputs:   []*Tensor{batch, full},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return BroadcastLikeInto(d, in[0], in[1]) },
			aliasBad: []int{0},
		},
		{
			name:     "AddBcastInto",
			inputs:   []*Tensor{full, chans},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return AddBcastInto(d, in[0], in[1]) },
			aliasOK:  []int{0},
			aliasBad: []int{1},
		},
		{
			name:     "SubBcastInto",
			inputs:   []*Tensor{full, batch},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return SubBcastInto(d, in[0], in[1]) },
			aliasOK:  []int{0},
			aliasBad: []int{1},
		},
		{
			name:     "MulBcastInto",
			inputs:   []*Tensor{full, chans},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return MulBcastInto(d, in[0], in[1]) },
			aliasOK:  []int{0},
			aliasBad: []int{1},
		},
		{
			name:     "MulSumInto",
			inputs:   []*Tensor{full, full.Clone()},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return MulSumInto(d, in[0], in[1], 1, 2) },
			aliasBad: []int{0, 1},
		},
		{
			name:     "MulSumLikeInto",
			inputs:   []*Tensor{full, full.Clone(), batch},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return MulSumLikeInto(d, in[0], in[1], in[2]) },
			aliasBad: []int{0, 1},
		},
		{
			// Square operands so the result matches the input element count
			// and the alias-detection branch actually executes.
			name:     "MatMulInto",
			inputs:   []*Tensor{randT(rng, 5, 5), randT(rng, 5, 5)},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return MatMulInto(d, in[0], in[1]) },
			aliasBad: []int{0, 1},
		},
		{
			name:     "MatMulNTInto",
			inputs:   []*Tensor{randT(rng, 5, 5), randT(rng, 5, 5)},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return MatMulNTInto(d, in[0], in[1]) },
			aliasBad: []int{0, 1},
		},
		{
			name:     "MatMulTNInto",
			inputs:   []*Tensor{randT(rng, 5, 5), randT(rng, 5, 5)},
			run:      func(d *Tensor, in []*Tensor) *Tensor { return MatMulTNInto(d, in[0], in[1]) },
			aliasBad: []int{0, 1},
		},
		{
			name:   "Im2colInto",
			inputs: []*Tensor{full},
			run: func(d *Tensor, in []*Tensor) *Tensor {
				return Im2colInto(d, in[0], ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2})
			},
		},
		{
			name:   "Col2imInto",
			inputs: []*Tensor{randT(rng, 48, 18)},
			run: func(d *Tensor, in []*Tensor) *Tensor {
				return Col2imInto(d, in[0], 3, ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2})
			},
		},
	}
	runIntoCases(t, cases)
}

// TestIntoMatchesAllocating cross-checks the Into kernels against the
// allocating Tensor methods they back, on independently generated inputs.
func TestIntoMatchesAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randT(rng, 3, 7)
	b := randT(rng, 3, 7)
	m := randT(rng, 3, 5)
	n := randT(rng, 5, 4)

	equalTensors(t, "Add", AddInto(Get(21), a, b), a.Add(b))
	equalTensors(t, "Sub", SubInto(Get(21), a, b), a.Sub(b))
	equalTensors(t, "Mul", MulInto(Get(21), a, b), a.Mul(b))
	equalTensors(t, "Scale", ScaleInto(Get(21), a, 1.5), a.Scale(1.5))
	equalTensors(t, "Apply", ApplyInto(Get(21), a, math.Tanh), a.Apply(math.Tanh))
	equalTensors(t, "Pow", PowInto(Get(21), ApplyInto(nil, a, math.Abs), 2), ApplyInto(nil, a, math.Abs).Pow(2))
	equalTensors(t, "MatMul", MatMulInto(Get(12), m, n), m.MatMul(n))
	equalTensors(t, "MatMulNT", MatMulNTInto(nil, m, n.Transpose()), m.MatMul(n))
	equalTensors(t, "MatMulTN", MatMulTNInto(nil, m.Transpose(), n), m.MatMul(n))
	equalTensors(t, "Transpose", TransposeInto(Get(21), a), a.Transpose())
	equalTensors(t, "SumAxes", SumAxesInto(Get(3), a, 1), a.SumAxes(1))

	small := randT(rng, 1, 7)
	equalTensors(t, "BroadcastTo", BroadcastToInto(Get(21), small, 3, 7), small.BroadcastTo(3, 7))
	equalTensors(t, "AddBcast", AddBcastInto(nil, a, small), a.Add(small.BroadcastTo(3, 7)))
	equalTensors(t, "SubBcast", SubBcastInto(nil, a, small), a.Sub(small.BroadcastTo(3, 7)))
	equalTensors(t, "MulBcast", MulBcastInto(nil, a, small), a.Mul(small.BroadcastTo(3, 7)))
	equalTensors(t, "MulSum", MulSumInto(nil, a, b, 0), a.Mul(b).SumAxes(0))
	equalTensors(t, "MulSumLike", MulSumLikeInto(nil, a, b, small), a.Mul(b).SumAxes(0))
}

// TestBcastSpansFallback exercises the generic forEachBcast walk with a
// non-contiguous broadcast pattern ([2,1,3,1] against [2,4,3,5]) that the
// span decomposition cannot express.
func TestBcastSpansFallback(t *testing.T) {
	if _, _, _, ok := bcastSpans([]int{2, 4, 3, 5}, []int{2, 1, 3, 1}); ok {
		t.Fatal("expected non-contiguous broadcast to reject span decomposition")
	}
	rng := rand.New(rand.NewSource(3))
	full := randT(rng, 2, 4, 3, 5)
	small := randT(rng, 2, 1, 3, 1)
	equalTensors(t, "non-contiguous MulBcast",
		MulBcastInto(nil, full, small),
		full.Mul(small.BroadcastTo(2, 4, 3, 5)))
	equalTensors(t, "non-contiguous SumLike",
		SumLikeInto(nil, full, small),
		full.SumAxes(1, 3))
}

// TestReLUIntoMatchesComparison pins ReLUInto's bit-pattern test to the
// float comparison it stands for, a[i] > 0, on every class of value: the
// rectified output and the mask must equal the branchy definition bit for
// bit (so −0, NaN and −x all give +0, never −0). It also covers the mask
// aliasing the input and the one forbidden sharing, dst with mask.
func TestReLUIntoMatchesComparison(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, -1, 0.5, -2.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7FF0000000000001), // signalling NaN, just above +Inf
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	a := FromSlice(vals, len(vals))
	want, wantMask := New(len(vals)), New(len(vals))
	for i, v := range vals {
		if v > 0 {
			want.data[i], wantMask.data[i] = v, 1
		}
	}

	sameBits(t, "ReLUInto without a mask", ReLUInto(nil, nil, a), want)
	mask := FullInto(nil, math.NaN(), len(vals))
	sameBits(t, "ReLUInto", ReLUInto(FullInto(nil, math.NaN(), len(vals)), mask, a), want)
	sameBits(t, "ReLUInto mask", mask, wantMask)
	sameBits(t, "ReLU", a.ReLU(), want)
	sameBits(t, "ReLUMask", a.ReLUMask(), wantMask)

	in := a.Clone()
	sameBits(t, "ReLUInto, mask aliasing a", ReLUInto(nil, in, in), want)
	sameBits(t, "mask aliasing a", in, wantMask)

	var hdr Tensor
	ReLUInto(nil, &hdr, a)
	sameBits(t, "zero-header mask", &hdr, wantMask)

	shared := New(len(vals))
	mustPanic(t, "dst aliasing mask", func() { ReLUInto(shared, shared, a) })
	mustPanic(t, "wrong-size mask", func() { ReLUInto(nil, New(len(vals)+1), a) })
}

// The three textbook loops the row kernels replaced, kept as the oracle
// that pins the summation order: every dst[i][j] starts from +0 and adds
// its products in ascending contraction order, and the NN and TN forms skip
// a step whose a-side factor is zero.

func naiveMatMul(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		di := dst.data[i*n : (i+1)*n]
		for j := range di {
			di[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			v := a.data[i*k+kk]
			if v == 0 {
				continue
			}
			for j, bv := range b.data[kk*n : (kk+1)*n] {
				di[j] += v * bv
			}
		}
	}
}

func naiveMatMulNT(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[j*k+kk]
			}
			dst.data[i*n+j] = s
		}
	}
}

func naiveMatMulTN(dst, a, b *Tensor) {
	rows, m, n := a.shape[0], a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		di := dst.data[i*n : (i+1)*n]
		for j := range di {
			di[j] = 0
		}
		for r := 0; r < rows; r++ {
			v := a.data[r*m+i]
			if v == 0 {
				continue
			}
			for j, bv := range b.data[r*n : (r+1)*n] {
				di[j] += v * bv
			}
		}
	}
}

// sameBits compares two results bit for bit, so −0 ≠ +0 and a value one ulp
// off fails. Two NaNs count as equal whatever their payload: which operand's
// payload a NaN·NaN or NaN+NaN keeps depends on the operand order the
// compiler picks for a commutative instruction, not on the summation order.
func sameBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.shape, want.shape)
	}
	for i, w := range want.data {
		g := got.data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)",
				name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestBcastKernelsMatchGenericWalk pins the direct span loops of
// AddBcastInto, SubBcastInto and MulBcastInto to the generic forEachBcast
// walk bit for bit, over the broadcast patterns the span decomposition
// takes (and two it hands to the walk), both into a fresh destination and
// with dst aliased to a.
func TestBcastKernelsMatchGenericWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	full := []int{2, 3, 4, 5}
	kernels := []struct {
		name string
		into func(dst, a, b *Tensor) *Tensor
		op   func(x, y float64) float64
	}{
		{"AddBcastInto", AddBcastInto, func(x, y float64) float64 { return x + y }},
		{"SubBcastInto", SubBcastInto, func(x, y float64) float64 { return x - y }},
		{"MulBcastInto", MulBcastInto, func(x, y float64) float64 { return x * y }},
	}
	for _, small := range [][]int{
		{2, 3, 4, 5}, {2, 1, 1, 5}, {2, 3, 4, 1}, {1, 3, 4, 5}, {1, 1, 1, 5},
		{2, 1, 1, 1}, {1, 1, 1, 1}, {2, 1, 4, 1}, {1, 3, 1, 5},
	} {
		a, b := randT(rng, full...), randT(rng, small...)
		for _, k := range kernels {
			name := fmt.Sprintf("%s %v", k.name, small)
			want := New(full...)
			forEachBcast(full, small, func(i, j int) { want.data[i] = k.op(a.data[i], b.data[j]) })
			sameBits(t, name, k.into(nil, a, b), want)
			aliased := a.Clone()
			sameBits(t, name+" dst aliasing a", k.into(aliased, aliased, b), want)
		}
	}
}

// TestMatMulKernelsMatchNaiveLoops pins the register-tiled row kernels to
// the naive loops bit for bit. n sweeps across the 8-wide, 4-wide and scalar
// tails. Every variant but the plain one zeroes one contraction index of a
// (alternating +0 and −0): against a finite b that feeds the TN kernel's
// dense loop products of ±0, which must leave the sums' bits alone; the
// salted variant also fills the slice of b those zeros multiply with NaN
// and ±Inf, so an NN or TN kernel that stopped skipping zeros there turns
// every output to NaN (k = 9 reaches the TN skip through the check of the
// dense result, k = 1 through the scan of b). Each kernel runs inline
// through its Into form and sharded through shardRows, into a NaN-filled
// destination.
func TestMatMulKernelsMatchNaiveLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	negZero := math.Copysign(0, -1)
	zeros := [2]float64{0, negZero}
	nanFilled := func(shape ...int) *Tensor { return FullInto(nil, math.NaN(), shape...) }

	for n := 1; n <= 17; n++ {
		for _, m := range []int{1, 3, 5} {
			for _, k := range []int{1, 2, 9} {
				for _, variant := range []string{"plain", "zeros", "salted"} {
					salted := variant == "salted"
					// a·b, aᵀ·b and a·bᵀ all contract over k: a is [m,k], its
					// transpose at is [k,m], b is [k,n] and bt is [n,k].
					a, b := randT(rng, m, k), randT(rng, k, n)
					b.data[rng.Intn(k*n)] = negZero
					a.data[rng.Intn(m*k)] = 0
					kk := k - 1
					if variant != "plain" {
						for i := 0; i < m; i++ {
							a.data[i*k+kk] = zeros[i%2]
						}
					}
					if salted {
						for j := 0; j < n; j++ {
							b.data[kk*n+j] = poison[j%len(poison)]
						}
					}
					skip := hasNonFinite(b.data)
					if skip != salted {
						t.Fatalf("hasNonFinite(b) = %v for the %s variant", skip, variant)
					}
					at, bt := a.Transpose(), b.Transpose()
					name := fmt.Sprintf("m=%d k=%d n=%d %s", m, k, n, variant)

					want := New(m, n)
					naiveMatMul(want, a, b)
					if salted && math.IsNaN(want.Sum()) {
						t.Fatalf("%s: the oracle itself does not skip zeros", name)
					}
					sameBits(t, name+" MatMulInto", MatMulInto(nanFilled(m, n), a, b), want)
					got := nanFilled(m, n)
					shardRows(m, parallelWork, func(lo, hi int) { matMulRows(got, a, b, false, true, lo, hi) })
					sameBits(t, name+" sharded NN", got, want)

					naiveMatMulTN(want, at, b)
					sameBits(t, name+" MatMulTNInto", MatMulTNInto(nanFilled(m, n), at, b), want)
					got = nanFilled(m, n)
					shardRows(m, parallelWork, func(lo, hi int) { matMulRows(got, at, b, true, skip, lo, hi) })
					sameBits(t, name+" sharded TN", got, want)

					naiveMatMulNT(want, a, bt)
					sameBits(t, name+" MatMulNTInto", MatMulNTInto(nanFilled(m, n), a, bt), want)
					got = nanFilled(m, n)
					shardRows(m, parallelWork, func(lo, hi int) { matMulNTRows(got, a, bt, lo, hi) })
					sameBits(t, name+" sharded NT", got, want)
				}
			}
		}
	}
}

// TestParallelMatMulDeterminism is the determinism guard required by the
// compute-backbone design: a product large enough for its Into form to shard
// its rows across goroutines is bitwise identical to the sequential naive
// loop, because each output row is produced by exactly one goroutine. The
// row count is derived from parallelWork, so the products clear the
// threshold wherever the constant is set (the sharded branch needs
// GOMAXPROCS ≥ 2; scripts/check.sh runs the suite at 1 as well).
func TestParallelMatMulDeterminism(t *testing.T) {
	const k, n = 24, 17
	m := parallelWork/(k*n) + 3
	rng := rand.New(rand.NewSource(11))
	a, b := randT(rng, m, k), randT(rng, k, n)
	at, bt := a.Transpose(), b.Transpose()

	want := New(m, n)
	naiveMatMul(want, a, b)
	sameBits(t, "MatMulInto", MatMulInto(nil, a, b), want)
	naiveMatMulNT(want, a, bt)
	sameBits(t, "MatMulNTInto", MatMulNTInto(nil, a, bt), want)
	naiveMatMulTN(want, at, b)
	sameBits(t, "MatMulTNInto", MatMulTNInto(nil, at, b), want)
}

// TestParallelIm2colDeterminism pins the sharded im2col/col2im pair to the
// single-worker result by forcing GOMAXPROCS(1) for the reference run.
func TestParallelIm2colDeterminism(t *testing.T) {
	g := ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 16, InW: 16, Channel: 8}
	rng := rand.New(rand.NewSource(13))
	x := randT(rng, 8, 16, 16, 8)

	prev := runtime.GOMAXPROCS(1)
	seqCols := Im2col(x, g)
	seqBack := Col2im(seqCols, 8, g)
	runtime.GOMAXPROCS(prev)

	cols := Im2col(x, g)
	equalTensors(t, "parallel vs sequential Im2col", cols, seqCols)
	equalTensors(t, "parallel vs sequential Col2im", Col2im(cols, 8, g), seqBack)
}

// TestPrepDstRejectsWrongSize verifies destinations of mismatched element
// count are rejected rather than silently reallocated.
func TestPrepDstRejectsWrongSize(t *testing.T) {
	a := Ones(2, 3)
	mustPanic(t, "wrong-size dst", func() { AddInto(New(7), a, a) })
}

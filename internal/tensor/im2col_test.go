package tensor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvGeomOutputSize(t *testing.T) {
	tests := []struct {
		name   string
		g      ConvGeom
		oh, ow int
	}{
		{"same-pad-3x3", ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 8, InW: 8, Channel: 3}, 8, 8},
		{"valid-3x3", ConvGeom{Kernel: 3, Stride: 1, Pad: 0, InH: 8, InW: 8, Channel: 1}, 6, 6},
		{"pool-2x2", ConvGeom{Kernel: 2, Stride: 2, Pad: 0, InH: 8, InW: 8, Channel: 4}, 4, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatal(err)
			}
			if tc.g.OutH() != tc.oh || tc.g.OutW() != tc.ow {
				t.Fatalf("out = %dx%d, want %dx%d", tc.g.OutH(), tc.g.OutW(), tc.oh, tc.ow)
			}
		})
	}
}

func TestConvGeomValidateRejects(t *testing.T) {
	bad := []ConvGeom{
		{Kernel: 0, Stride: 1, Pad: 0, InH: 4, InW: 4, Channel: 1},
		{Kernel: 3, Stride: 0, Pad: 0, InH: 4, InW: 4, Channel: 1},
		{Kernel: 9, Stride: 1, Pad: 0, InH: 4, InW: 4, Channel: 1},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("geometry %+v should be invalid", g)
		}
	}
}

func TestIm2colKnownValues(t *testing.T) {
	// 1x3x3x1 input, 2x2 kernel, stride 1, no pad → 4 patches.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3, 1)
	g := ConvGeom{Kernel: 2, Stride: 1, Pad: 0, InH: 3, InW: 3, Channel: 1}
	got := Im2col(x, g)
	want := FromSlice([]float64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}, 4, 4)
	tensorsClose(t, got, want, 0)
}

func TestIm2colPadding(t *testing.T) {
	// Single pixel with pad 1 and 3x3 kernel: centre patch sees the pixel
	// in the middle, corners see it in the corner positions.
	x := FromSlice([]float64{5}, 1, 1, 1, 1)
	g := ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 1, InW: 1, Channel: 1}
	got := Im2col(x, g)
	if got.Dim(0) != 1 || got.Dim(1) != 9 {
		t.Fatalf("shape %v", got.Shape())
	}
	for i, v := range got.Data() {
		want := 0.0
		if i == 4 { // kernel centre
			want = 5
		}
		if v != want {
			t.Fatalf("col %d = %g, want %g", i, v, want)
		}
	}
}

func TestIm2colChannelOrdering(t *testing.T) {
	// Two channels; row layout must be (kh, kw, c).
	x := FromSlice([]float64{1, 10, 2, 20, 3, 30, 4, 40}, 1, 2, 2, 2)
	g := ConvGeom{Kernel: 2, Stride: 1, Pad: 0, InH: 2, InW: 2, Channel: 2}
	got := Im2col(x, g)
	want := FromSlice([]float64{1, 10, 2, 20, 3, 30, 4, 40}, 1, 8)
	tensorsClose(t, got, want, 0)
}

// Property: Col2im is the exact adjoint of Im2col:
// ⟨Im2col(x), y⟩ = ⟨x, Col2im(y)⟩ for all x, y.
func TestIm2colCol2imAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			Kernel:  1 + r.Intn(3),
			Stride:  1 + r.Intn(2),
			Pad:     r.Intn(2),
			InH:     3 + r.Intn(3),
			InW:     3 + r.Intn(3),
			Channel: 1 + r.Intn(2),
		}
		if g.Validate() != nil {
			return true // skip degenerate geometries
		}
		b := 1 + r.Intn(2)
		x := Randn(r, 1, b, g.InH, g.InW, g.Channel)
		cols := Im2col(x, g)
		y := Randn(r, 1, cols.Dim(0), cols.Dim(1))
		lhs := cols.Dot(y)
		rhs := x.Dot(Col2imInto(nil, y, b, g))
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2imAccumulatesOverlaps(t *testing.T) {
	// Overlapping 2x2 patches on a 3x3 grid: the centre pixel is covered by
	// all 4 patches; setting all cols to 1 counts patch coverage.
	g := ConvGeom{Kernel: 2, Stride: 1, Pad: 0, InH: 3, InW: 3, Channel: 1}
	cols := Ones(4, 4)
	got := Col2imInto(nil, cols, 1, g)
	want := FromSlice([]float64{
		1, 2, 1,
		2, 4, 2,
		1, 2, 1,
	}, 1, 3, 3, 1)
	tensorsClose(t, got, want, 0)
}

func TestIm2colShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := ConvGeom{Kernel: 2, Stride: 1, Pad: 0, InH: 4, InW: 4, Channel: 1}
	Im2col(New(1, 3, 3, 1), g)
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := Randn(rng, 2.5, 3, 4, 5)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tensorsClose(t, x, y, 0)
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error on bad magic")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty input")
	}
}

// Property: with stride == kernel (non-overlapping windows, no padding)
// Col2im(Im2col(x)) reconstructs x exactly — the patches partition the
// image.
func TestIm2colPartitionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(3)
		tiles := 1 + r.Intn(3)
		g := ConvGeom{Kernel: k, Stride: k, Pad: 0, InH: k * tiles, InW: k * tiles, Channel: 1 + r.Intn(2)}
		b := 1 + r.Intn(2)
		x := Randn(r, 1, b, g.InH, g.InW, g.Channel)
		back := Col2imInto(nil, Im2col(x, g), b, g)
		for i := range x.Data() {
			if x.Data()[i] != back.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// naiveIm2col is the per-element extraction: every (row, kh, kw, c) slot
// read from the image or left at +0.
func naiveIm2col(x *Tensor, g ConvGeom) *Tensor {
	b, oh, ow := x.shape[0], g.OutH(), g.OutW()
	nc := g.Kernel * g.Kernel * g.Channel
	out := New(b*oh*ow, nc)
	row := 0
	for bi := 0; bi < b; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				p := row * nc
				for kh := 0; kh < g.Kernel; kh++ {
					for kw := 0; kw < g.Kernel; kw++ {
						iy, ix := oy*g.Stride+kh-g.Pad, ox*g.Stride+kw-g.Pad
						for c := 0; c < g.Channel; c++ {
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								out.data[p] = x.data[((bi*g.InH+iy)*g.InW+ix)*g.Channel+c]
							}
							p++
						}
					}
				}
				row++
			}
		}
	}
	return out
}

// naiveCol2im is the per-element scatter-add, in patch-row order.
func naiveCol2im(cols *Tensor, batch int, g ConvGeom) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	nc := g.Kernel * g.Kernel * g.Channel
	out := New(batch, g.InH, g.InW, g.Channel)
	row := 0
	for bi := 0; bi < batch; bi++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				p := row * nc
				for kh := 0; kh < g.Kernel; kh++ {
					for kw := 0; kw < g.Kernel; kw++ {
						iy, ix := oy*g.Stride+kh-g.Pad, ox*g.Stride+kw-g.Pad
						for c := 0; c < g.Channel; c++ {
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								out.data[((bi*g.InH+iy)*g.InW+ix)*g.Channel+c] += cols.data[p]
							}
							p++
						}
					}
				}
				row++
			}
		}
	}
	return out
}

// TestIm2colCol2imMatchNaiveLoops pins the span-wise Im2col and Col2im to
// the per-element loops bit for bit, over kernel 2/3, stride 1/2, padding
// 0/1 (and padding past the kernel, where whole kernel rows fall outside
// the image), 1/3/8 channels and batches of 1/5. Each runs through its
// Into form into a NaN-filled destination and sharded through shardRows.
func TestIm2colCol2imMatchNaiveLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type kp struct{ kernel, pad int }
	for _, k := range []kp{{2, 0}, {2, 1}, {3, 0}, {3, 1}, {2, 3}} {
		for _, stride := range []int{1, 2} {
			for _, c := range []int{1, 3, 8} {
				for _, b := range []int{1, 5} {
					g := ConvGeom{Kernel: k.kernel, Stride: stride, Pad: k.pad, InH: 5, InW: 6, Channel: c}
					name := fmt.Sprintf("K=%d stride=%d pad=%d C=%d B=%d", k.kernel, stride, k.pad, c, b)
					x := randT(rng, b, g.InH, g.InW, c)
					rows, nc := b*g.OutH()*g.OutW(), k.kernel*k.kernel*c

					want := naiveIm2col(x, g)
					sameBits(t, name+" Im2colInto", Im2colInto(nanFilled(rows, nc), x, g), want)
					got := nanFilled(rows, nc)
					shardRows(rows, parallelWork, func(lo, hi int) { im2colRows(got.data, x.data, g, lo, hi) })
					sameBits(t, name+" sharded Im2col", got, want)

					cols := randT(rng, rows, nc)
					want = naiveCol2im(cols, b, g)
					sameBits(t, name+" Col2imInto", Col2imInto(nanFilled(b, g.InH, g.InW, c), cols, b, g), want)
					got = New(b, g.InH, g.InW, c)
					shardRows(b, parallelWork, func(lo, hi int) { col2imImages(got.data, cols.data, g, lo, hi) })
					sameBits(t, name+" sharded Col2im", got, want)
				}
			}
		}
	}
}

// TestAvgPoolMatchesPatchSums pins AvgPoolInto to the patch-matrix
// pooling it replaces bit for bit: each output is 1/K² times the sum, from
// +0 in (kh, kw) order, of its window's column of Im2col — padding taps
// included as the patch matrix's zeros. The geometries are those of
// TestIm2colCol2imMatchNaiveLoops (overlapping windows at stride 1, and
// windows wholly in the padding); x holds −0s. Each runs into a
// NaN-filled destination and sharded through shardRows.
func TestAvgPoolMatchesPatchSums(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type kp struct{ kernel, pad int }
	for _, k := range []kp{{2, 0}, {2, 1}, {3, 0}, {3, 1}, {2, 3}} {
		for _, stride := range []int{1, 2} {
			for _, c := range []int{1, 3, 8} {
				g := ConvGeom{Kernel: k.kernel, Stride: stride, Pad: k.pad, InH: 5, InW: 6, Channel: c}
				name := fmt.Sprintf("K=%d stride=%d pad=%d C=%d", k.kernel, stride, k.pad, c)
				x := randT(rng, 3, g.InH, g.InW, c)
				for i := 0; i < len(x.data); i += 5 {
					x.data[i] = math.Copysign(0, -1)
				}
				cols := naiveIm2col(x, g)
				k2 := k.kernel * k.kernel
				want := New(3, g.OutH(), g.OutW(), c)
				for r := 0; r < cols.Dim(0); r++ {
					for ch := 0; ch < c; ch++ {
						s := 0.0
						for tap := 0; tap < k2; tap++ {
							s += cols.At(r, tap*c+ch)
						}
						want.data[r*c+ch] = 1 / float64(k2) * s
					}
				}
				sameBits(t, name+" AvgPoolInto", AvgPoolInto(nanFilled(want.shape...), x, g), want)
				got := nanFilled(want.shape...)
				shardRows(cols.Dim(0), parallelWork, func(lo, hi int) { avgPoolRows(got.data, x.data, g, lo, hi) })
				sameBits(t, name+" sharded AvgPool", got, want)
			}
		}
	}
}

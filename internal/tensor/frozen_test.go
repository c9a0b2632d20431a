package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// zeroRuns overwrites runs of x with +0 and −0: every fourth run of five
// values is +0 and every other fourth −0, so whole kernel windows and
// lone taps both meet zeros of either sign.
func zeroRuns(x *Tensor) {
	for i := range x.data {
		switch (i / 5) % 4 {
		case 1:
			x.data[i] = 0
		case 3:
			x.data[i] = math.Copysign(0, -1)
		}
	}
}

// poisoned returns copies of t with a NaN, a +Inf and a −Inf planted,
// each alone, at the given index.
func poisoned(t *Tensor, at int) map[string]*Tensor {
	out := map[string]*Tensor{"finite": t}
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		p := t.Clone()
		p.data[at] = v
		out[name] = p
	}
	return out
}

// TestConvIntoMatchesPatchProduct pins ConvInto to the composite it
// replaces, AddRowInto(MatMulInto(Im2colInto(x, g), w), bias), bit for
// bit: at stride 1 and 2, pad 0 and 1, C = 1, 3 and 8, F = 8 and 10 (a
// column tail), batch 1 and 64, on inputs with runs of +0 and −0 and with
// a NaN or ±Inf planted in w, where the zeros the product skips decide
// which outputs turn non-finite. Each case runs into a NaN-filled
// destination, at GOMAXPROCS 1 and 2, and once more sharded through
// shardRows whatever its size.
func TestConvIntoMatchesPatchProduct(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(31))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, c := range []int{1, 3, 8} {
					for _, f := range []int{8, 10} {
						for _, batch := range []int{1, 64} {
							g := ConvGeom{Kernel: 3, Stride: stride, Pad: pad, InH: 6, InW: 7, Channel: c}
							x := randT(rng, batch, g.InH, g.InW, c)
							zeroRuns(x)
							bias := randT(rng, f)
							taps := g.Kernel * g.Kernel * c
							for kind, w := range poisoned(randT(rng, taps, f), rng.Intn(taps*f)) {
								name := fmt.Sprintf("GOMAXPROCS=%d stride=%d pad=%d C=%d F=%d batch=%d w %s", procs, stride, pad, c, f, batch, kind)
								want := AddRowInto(nil, MatMulInto(nil, Im2colInto(nil, x, g), w), bias).View(batch, g.OutH(), g.OutW(), f)
								sameBits(t, name+": ConvInto", ConvInto(nanFilled(want.shape...), x, w, bias, g), want)
								got := nanFilled(want.shape...)
								shardRows(batch*g.OutH()*g.OutW(), parallelWork, func(lo, hi int) {
									convRows(got.data, x.data, w.data, bias.data, g, f, lo, hi)
								})
								sameBits(t, name+": sharded convRows", got, want)
							}
						}
					}
				}
			}
		}
	}
}

// instanceNormComposite is the chain of kernels autodiff.InstanceNorm runs
// for a differentiable input.
func instanceNormComposite(x, gamma, beta *Tensor, eps float64) *Tensor {
	c := x.Dim(3)
	area := float64(x.Dim(1) * x.Dim(2))
	mean := ScaleInto(nil, SumAxesInto(nil, x, 1, 2), 1/area)
	centered := SubBcastInto(nil, x, mean)
	variance := ScaleInto(nil, MulSumInto(nil, centered, centered, 1, 2), 1/area)
	inv := PowInto(nil, AddConstInto(nil, variance, eps), -0.5)
	scaled := MulBcastInto(nil, MulBcastInto(nil, centered, inv), gamma.View(1, 1, 1, c))
	return AddBcastInto(nil, scaled, beta.View(1, 1, 1, c))
}

// TestInstanceNormIntoMatchesComposite pins InstanceNormInto to the
// composite's kernels bit for bit: at C = 1, 3 and 8, batch 1 and 64 (one
// sample is the composite's single-row reduction, 1×1 maps its same-shape
// one), on inputs with runs of +0 and −0 — one sample's channel all zero,
// so its variance is 0 — and with a NaN or ±Inf planted in gamma. Each
// case runs into a NaN-filled destination, at GOMAXPROCS 1 and 2, and
// once more sharded through shardRows whatever its size.
func TestInstanceNormIntoMatchesComposite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(37))
	const eps = 1e-5
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, hw := range [][2]int{{8, 8}, {5, 6}, {1, 1}} {
			for _, c := range []int{1, 3, 8} {
				for _, batch := range []int{1, 64} {
					x := randT(rng, batch, hw[0], hw[1], c)
					zeroRuns(x)
					for p := 0; p < hw[0]*hw[1]; p++ {
						x.data[p*c] = 0 // sample 0, channel 0
					}
					beta := randT(rng, c)
					for kind, gamma := range poisoned(randT(rng, c), rng.Intn(c)) {
						name := fmt.Sprintf("GOMAXPROCS=%d %dx%d C=%d batch=%d gamma %s", procs, hw[0], hw[1], c, batch, kind)
						want := instanceNormComposite(x, gamma, beta, eps)
						sameBits(t, name+": InstanceNormInto", InstanceNormInto(nanFilled(want.shape...), nil, x, gamma, beta, eps), want)
						got := nanFilled(want.shape...)
						n := hw[0] * hw[1] * c
						shardRows(batch, parallelWork, func(lo, hi int) {
							instanceNormSamples(got.data[lo*n:hi*n], nil, x.data[lo*n:hi*n], gamma.data, beta.data, n, c, eps)
						})
						sameBits(t, name+": sharded instanceNormSamples", got, want)
					}
				}
			}
		}
	}
}

// The frozen kernels keep the shape and aliasing checks of the kernels
// they replace.
func TestFrozenKernelsRejectBadOperands(t *testing.T) {
	g := ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
	x, w, bias := New(2, 4, 4, 2), New(18, 5), New(5)
	gamma, beta := New(2), New(2)
	for name, f := range map[string]func(){
		"conv input":         func() { ConvInto(nil, New(2, 4, 4, 3), w, bias, g) },
		"conv weight rows":   func() { ConvInto(nil, x, New(17, 5), bias, g) },
		"conv weight rank":   func() { ConvInto(nil, x, New(18, 5, 1), bias, g) },
		"conv bias":          func() { ConvInto(nil, x, w, New(4), g) },
		"conv dst size":      func() { ConvInto(New(3), x, w, bias, g) },
		"conv dst aliases":   func() { ConvInto(x.View(2, 4, 4, 2), x, New(18, 2), New(2), g) },
		"norm rank":          func() { InstanceNormInto(nil, nil, New(2, 16, 2), gamma, beta, 1e-5) },
		"norm gamma":         func() { InstanceNormInto(nil, nil, x, New(3), beta, 1e-5) },
		"norm beta":          func() { InstanceNormInto(nil, nil, x, gamma, New(1), 1e-5) },
		"norm dst size":      func() { InstanceNormInto(New(3), nil, x, gamma, beta, 1e-5) },
		"norm dst aliases x": func() { InstanceNormInto(x, nil, x, gamma, beta, 1e-5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

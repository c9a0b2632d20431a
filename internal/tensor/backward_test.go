package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// plant returns copies of t with a NaN, a +Inf and a −Inf planted, each
// alone, at a random index, keyed by what and the value's name; t itself
// is the "finite" case.
func plant(rng *rand.Rand, what string, t *Tensor) map[string]*Tensor {
	out := map[string]*Tensor{}
	for kind, p := range poisoned(t, rng.Intn(t.Len())) {
		out[what+" "+kind] = p
	}
	return out
}

// TestConvGradsMatchPatchProducts pins the two convolution gradients to
// the composite kernels they replace, bit for bit: ConvWeightGradInto to
// MatMulTNInto(Im2colInto(x), gy) and ConvInputGradInto to
// Col2imInto(MatMulNTInto(gy, w)). It runs at stride 1 and 2, pad 0 and
// 1, C = 1, 3 and 8, F = 8 and 10 (a column tail), batch 1, 5 and 64, on
// inputs and gradients with runs of +0 and −0, with a NaN or ±Inf planted
// in x, w or gy — which outputs turn non-finite depends on the zeros each
// product skips or not — into NaN-filled destinations, at GOMAXPROCS 1
// and 2, and once more sharded through shardRows whatever the size.
func TestConvGradsMatchPatchProducts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(41))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, c := range []int{1, 3, 8} {
					for _, f := range []int{8, 10} {
						for _, batch := range []int{1, 5, 64} {
							g := ConvGeom{Kernel: 3, Stride: stride, Pad: pad, InH: 6, InW: 7, Channel: c}
							rows, taps := batch*g.OutH()*g.OutW(), g.Kernel*g.Kernel*c
							x, w, gy := randT(rng, batch, g.InH, g.InW, c), randT(rng, taps, f), randT(rng, batch, g.OutH(), g.OutW(), f)
							zeroRuns(x)
							zeroRuns(gy)
							name := fmt.Sprintf("GOMAXPROCS=%d stride=%d pad=%d C=%d F=%d batch=%d", procs, stride, pad, c, f, batch)

							cases := plant(rng, "x", x)
							for k, v := range plant(rng, "gy", gy) {
								cases[k] = v
							}
							for kind, in := range cases {
								xk, gk := x, gy
								if kind[0] == 'x' {
									xk = in
								} else {
									gk = in
								}
								want := MatMulTNInto(nil, Im2colInto(nil, xk, g), gk.View(rows, f))
								what := name + " " + kind + ": ConvWeightGradInto"
								sameBits(t, what, ConvWeightGradInto(nanFilled(taps, f), xk, gk, g), want)
								got := nanFilled(taps, f)
								skip := hasNonFinite(gk.data)
								shardRows(taps, parallelWork, func(lo, hi int) { convWeightGradTaps(got.data, xk.data, gk.data, g, f, skip, lo, hi) })
								sameBits(t, what+" sharded", got, want)
							}

							cases = plant(rng, "w", w)
							for k, v := range plant(rng, "gy", gy) {
								cases[k] = v
							}
							for kind, in := range cases {
								wk, gk := w, gy
								if kind[0] == 'w' {
									wk = in
								} else {
									gk = in
								}
								want := Col2imInto(nil, MatMulNTInto(nil, gk.View(rows, f), wk), batch, g)
								what := name + " " + kind + ": ConvInputGradInto"
								sameBits(t, what, ConvInputGradInto(nanFilled(want.shape...), gk, wk, g), want)
								got := nanFilled(want.shape...)
								shardRows(batch, parallelWork, func(lo, hi int) { convInputGradImages(got.data, gk.data, wk.data, g, f, lo, hi) })
								sameBits(t, what+" sharded", got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestAvgPoolBackMatchesScatter pins AvgPoolBackInto to the pooling's
// composite backward, Col2im(Reshape(BroadcastTo(Scale(gy, 1/K²)))), bit
// for bit, on the geometries of TestAvgPoolMatchesPatchSums (overlapping
// windows, windows wholly in the padding), batch 1, 5 and 64, gradients
// with runs of ±0 and a NaN or ±Inf planted, into NaN-filled
// destinations, at GOMAXPROCS 1 and 2 and sharded through shardRows.
func TestAvgPoolBackMatchesScatter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(43))
	type kp struct{ kernel, pad int }
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, k := range []kp{{2, 0}, {2, 1}, {3, 0}, {3, 1}, {2, 3}} {
			for _, stride := range []int{1, 2} {
				for _, c := range []int{1, 3, 8} {
					for _, batch := range []int{1, 5, 64} {
						g := ConvGeom{Kernel: k.kernel, Stride: stride, Pad: k.pad, InH: 5, InW: 6, Channel: c}
						rows, k2 := batch*g.OutH()*g.OutW(), k.kernel*k.kernel
						gy := randT(rng, batch, g.OutH(), g.OutW(), c)
						zeroRuns(gy)
						for kind, gk := range plant(rng, "gy", gy) {
							name := fmt.Sprintf("GOMAXPROCS=%d K=%d stride=%d pad=%d C=%d batch=%d %s", procs, k.kernel, stride, k.pad, c, batch, kind)
							sums := ScaleInto(nil, gk.View(rows, 1, c), 1/float64(k2))
							want := Col2imInto(nil, BroadcastToInto(nil, sums, rows, k2, c).View(rows, k2*c), batch, g)
							sameBits(t, name+": AvgPoolBackInto", AvgPoolBackInto(nanFilled(want.shape...), gk, g), want)
							got := nanFilled(want.shape...)
							shardRows(batch, parallelWork, func(lo, hi int) { avgPoolBackImages(got.data, gk.data, g, lo, hi) })
							sameBits(t, name+": sharded", got, want)
						}
					}
				}
			}
		}
	}
}

// instanceNormBackComposite runs the kernels autodiff.InstanceNorm's
// composite graph runs backward from gy, in its order: the forward
// intermediates, then each VJP, with every reduction to an equal shape
// passing its operand through as sumAxesLike does.
func instanceNormBackComposite(gy, x, gamma *Tensor, eps float64) (dx, dgamma, dbeta *Tensor) {
	c := x.Dim(3)
	area := float64(x.Dim(1) * x.Dim(2))
	sumLike := func(a, ref *Tensor) *Tensor {
		if a.SameShape(ref) {
			return a
		}
		return SumLikeInto(nil, a, ref)
	}
	gR := gamma.View(1, 1, 1, c)
	mean := ScaleInto(nil, SumAxesInto(nil, x, 1, 2), 1/area)
	centered := SubBcastInto(nil, x, mean)
	ve := AddConstInto(nil, ScaleInto(nil, MulSumInto(nil, centered, centered, 1, 2), 1/area), eps)
	inv := PowInto(nil, ve, -0.5)
	xhat := MulBcastInto(nil, centered, inv)

	dbeta = sumLike(gy, gR).View(c)
	dgamma = MulSumLikeInto(nil, gy, xhat, gR).View(c)
	gxhat := MulBcastInto(nil, gy, gR)
	t1 := MulBcastInto(nil, gxhat, inv)
	ginv := MulSumLikeInto(nil, gxhat, centered, inv)
	gms := ScaleInto(nil, MulInto(nil, ginv, ScaleInto(nil, PowInto(nil, ve, -1.5), -0.5)), 1/area)
	a := MulBcastInto(nil, centered, gms)
	gc := AddInto(nil, AddInto(nil, t1, a), a)
	gs1 := ScaleInto(nil, ScaleInto(nil, sumLike(gc, mean), -1), 1/area)
	dx = AddInto(nil, gc, BroadcastLikeInto(nil, gs1, x))
	return dx, dgamma, dbeta
}

// TestInstanceNormGradMatchesComposite pins InstanceNormGradInto's three
// gradients, and the statistics InstanceNormInto saves for it, to the
// composite's kernels bit for bit: on 8×8, 5×6 and 1×1 maps (one-term
// spatial sums), C = 1, 3 and 8, batch 1, 5 and 64 (batch 1 of 1×1 maps
// makes dbeta a one-term sum), inputs with runs of ±0 and one all-zero
// channel (variance 0), gradients with runs of ±0 and a −0 first, whose
// one-term sums keep their sign, and a NaN or ±Inf
// planted in x, gy or gamma; into NaN-filled destinations, at GOMAXPROCS
// 1 and 2. The forward pass that saves the statistics must give the
// frozen pass's floats.
func TestInstanceNormGradMatchesComposite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(47))
	const eps = 1e-5
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, hw := range [][2]int{{8, 8}, {5, 6}, {1, 1}} {
			for _, c := range []int{1, 3, 8} {
				for _, batch := range []int{1, 5, 64} {
					x := randT(rng, batch, hw[0], hw[1], c)
					zeroRuns(x)
					for p := 0; p < hw[0]*hw[1]; p++ {
						x.data[p*c] = 0 // sample 0, channel 0
					}
					gy, gamma, beta := randT(rng, x.shape...), randT(rng, c), randT(rng, c)
					zeroRuns(gy)
					gy.data[0] = math.Copysign(0, -1) // a −0 even in the smallest gradient
					cases := plant(rng, "x", x)
					for _, more := range []map[string]*Tensor{plant(rng, "gy", gy), plant(rng, "gamma", gamma)} {
						for k, v := range more {
							cases[k] = v
						}
					}
					for kind, in := range cases {
						xk, gk, gm := x, gy, gamma
						switch kind[:2] {
						case "x ":
							xk = in
						case "gy":
							gk = in
						default:
							gm = in
						}
						name := fmt.Sprintf("GOMAXPROCS=%d %dx%d C=%d batch=%d %s", procs, hw[0], hw[1], c, batch, kind)
						stats := nanFilled(batch, c, 3)
						y := InstanceNormInto(nanFilled(x.shape...), stats, xk, gm, beta, eps)
						sameBits(t, name+": forward saving statistics", y, InstanceNormInto(nil, nil, xk, gm, beta, eps))

						wantDx, wantDgamma, wantDbeta := instanceNormBackComposite(gk, xk, gm, eps)
						dx, dgamma, dbeta := nanFilled(x.shape...), nanFilled(c), nanFilled(c)
						InstanceNormGradInto(dx, dgamma, dbeta, gk, xk, gm, stats)
						sameBits(t, name+": dx", dx, wantDx)
						sameBits(t, name+": dgamma", dgamma, wantDgamma)
						sameBits(t, name+": dbeta", dbeta, wantDbeta)
						// Each gradient alone, as a graph asks for it.
						dx = nanFilled(x.shape...)
						InstanceNormGradInto(dx, nil, nil, gk, xk, gm, stats)
						sameBits(t, name+": dx alone", dx, wantDx)
						dbeta = nanFilled(c)
						InstanceNormGradInto(nil, nil, dbeta, gk, xk, gm, stats)
						sameBits(t, name+": dbeta alone", dbeta, wantDbeta)
					}
				}
			}
		}
	}
}

// The first-order kernels keep the shape and aliasing checks of the
// kernels they replace, and StackInto checks its samples.
func TestFirstOrderKernelsRejectBadOperands(t *testing.T) {
	g := ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
	pool := ConvGeom{Kernel: 2, Stride: 2, InH: 4, InW: 4, Channel: 2}
	x, w, gy := New(2, 4, 4, 2), New(18, 5), New(2, 4, 4, 5)
	gamma, stats := New(2), New(2, 2, 3)
	for name, f := range map[string]func(){
		"weight grad input":       func() { ConvWeightGradInto(nil, New(2, 4, 4, 3), gy, g) },
		"weight grad gradient":    func() { ConvWeightGradInto(nil, x, New(2, 3, 4, 5), g) },
		"weight grad batch":       func() { ConvWeightGradInto(nil, x, New(1, 4, 4, 5), g) },
		"weight grad dst size":    func() { ConvWeightGradInto(New(3), x, gy, g) },
		"weight grad dst aliases": func() { ConvWeightGradInto(gy.View(32, 5), x, gy.View(2, 4, 4, 5), g) },
		"input grad weight":       func() { ConvInputGradInto(nil, gy, New(18, 4), g) },
		"input grad gradient":     func() { ConvInputGradInto(nil, New(2, 16, 5), w, g) },
		"input grad geometry":     func() { ConvInputGradInto(nil, gy, w, ConvGeom{Kernel: 3}) },
		"input grad dst aliases": func() {
			ConvInputGradInto(gy.View(2, 4, 4, 5), gy, w, ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 5})
		},
		"pool back channels":      func() { AvgPoolBackInto(nil, New(2, 2, 2, 3), pool) },
		"pool back size":          func() { AvgPoolBackInto(nil, New(2, 3, 2, 2), pool) },
		"pool back dst size":      func() { AvgPoolBackInto(New(5), New(2, 2, 2, 2), pool) },
		"norm stats shape":        func() { InstanceNormInto(nil, New(5), x, gamma, gamma, 1e-5) },
		"norm stats aliases":      func() { xx := New(2, 1, 3, 2); InstanceNormInto(nil, xx.View(2, 2, 3), xx, gamma, gamma, 1e-5) },
		"norm grad gradient":      func() { InstanceNormGradInto(New(2, 4, 4, 2), nil, nil, New(2, 4, 4, 3), x, gamma, stats) },
		"norm grad stats":         func() { InstanceNormGradInto(New(2, 4, 4, 2), nil, nil, x.Clone(), x, gamma, New(2, 3, 3)) },
		"norm grad gamma":         func() { InstanceNormGradInto(nil, New(2), nil, x.Clone(), x, New(3), stats) },
		"norm grad dx aliases":    func() { InstanceNormGradInto(x, nil, nil, x.Clone(), x, gamma, stats) },
		"norm grad dbeta aliases": func() { InstanceNormGradInto(nil, nil, gamma, x.Clone(), x, gamma, stats) },
		"stack shapes":            func() { StackInto(nil, []*Tensor{New(2, 2), New(4)}, []int{0, 1}) },
		"stack dst aliases":       func() { a := New(2); StackInto(a.View(1, 2), []*Tensor{a}, []int{0}) },
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

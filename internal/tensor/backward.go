package tensor

import (
	"fmt"
	"math"
)

// This file holds the first-order backward kernels: the gradients of a
// convolution, an instance normalization and an average pooling, each
// computed in one kernel with the floats of the composite graph the
// layer builds when something may differentiate it twice. autodiff's
// first-order nodes call them inside a graph that is differentiated
// exactly once (autodiff.Arena.FirstOrderGrad), so a training step
// builds no patch matrix and no per-statistic intermediates on its way
// back either.
//
// Where the composite stores a product or a sum to memory before the next
// kernel reads it, these kernels round it with an explicit float64
// conversion; where one composite kernel accumulates s += a·b, so do they.
// A compiler that fuses multiply-adds therefore fuses the same ones in
// both.

// outRange returns the output positions [lo, hi) along an axis of n input
// and out output positions whose window puts kernel offset k in range
// (lo ≤ hi).
func (g ConvGeom) outRange(k, n, out int) (lo, hi int) {
	if d := g.Pad - k; d > 0 {
		lo = (d + g.Stride - 1) / g.Stride
	}
	if last := n + g.Pad - k - 1; last >= 0 {
		hi = min(last/g.Stride+1, out)
	}
	return lo, max(hi, lo)
}

// mustFitOutput panics unless gy is a [B, OH, OW, F] gradient of the
// geometry's output maps, with B = batch unless batch < 0, and returns B
// and F.
func (g ConvGeom) mustFitOutput(gy *Tensor, batch int, op string) (int, int) {
	if gy.Dims() != 4 || (batch >= 0 && gy.Dim(0) != batch) || gy.Dim(1) != g.OutH() || gy.Dim(2) != g.OutW() {
		panic(fmt.Sprintf("tensor: %s gradient %v does not match batch %d geometry %+v", op, gy.shape, batch, g))
	}
	return gy.Dim(0), gy.Dim(3)
}

// ConvWeightGradInto computes the gradient of ConvInto's output with
// respect to its weights, dst of shape [K·K·C, F], from the input maps x
// and the output gradient gy, shape [B, OH, OW, F]. It is
// MatMulTNInto(Im2colInto(x, g), gy) bit for bit, without the patch
// matrix: each (tap, filter) sum starts at +0 and runs over the output
// rows in ascending order, eight filters at a time in registers like
// matMulRows, and never visits a padding tap. Like MatMulTNInto it adds
// a zero input's ±0 term when gy is finite, which leaves a +0-started sum
// unchanged, and skips it when gy holds a NaN or ±Inf, which a zero must
// not turn into a NaN term. dst must not alias x or gy; a nil dst
// allocates. Large gradients shard their taps like MatMulTNInto shards
// its output rows.
func ConvWeightGradInto(dst, x, gy *Tensor, g ConvGeom) *Tensor {
	g.mustFit(x, "ConvWeightGrad")
	_, f := g.mustFitOutput(gy, x.Dim(0), "ConvWeightGrad")
	taps := g.Kernel * g.Kernel * g.Channel
	dst = prepDst(dst, []int{taps, f}, "ConvWeightGradInto")
	mustNoAlias(dst, "ConvWeightGradInto", x, gy)
	od, xd, gd := dst.data, x.data, gy.data
	skip := hasNonFinite(gd)
	shardRows(taps, taps*len(gd), func(lo, hi int) { convWeightGradTaps(od, xd, gd, g, f, skip, lo, hi) })
	return dst
}

// convWeightGradTaps writes weight-gradient rows [lo, hi), one per tap,
// into od; skip must be set when gd holds a NaN or ±Inf. Every value of
// those rows is written: od may be a recycled buffer.
func convWeightGradTaps(od, xd, gd []float64, g ConvGeom, f int, skip bool, lo, hi int) {
	oh, ow, c := g.OutH(), g.OutW(), g.Channel
	batch := len(xd) / (g.InH * g.InW * c)
	step := g.Stride * c // input distance between neighbouring output columns
	for t := lo; t < hi; t++ {
		kh, kw, ch := t/(g.Kernel*c), (t/c)%g.Kernel, t%c
		oyLo, oyHi := g.outRange(kh, g.InH, oh)
		oxLo, oxHi := g.outRange(kw, g.InW, ow)
		// at(bi, oy) is the input under tap t at output (bi, oy, oxLo),
		// row(bi, oy) the output row (bi, oy, 0).
		at := func(bi, oy int) int {
			return ((bi*g.InH+oy*g.Stride-g.Pad+kh)*g.InW+oxLo*g.Stride-g.Pad+kw)*c + ch
		}
		out := od[t*f : (t+1)*f]
		j := 0
		for ; j+8 <= f; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for bi := 0; bi < batch; bi++ {
				for oy := oyLo; oy < oyHi; oy++ {
					src, row := at(bi, oy), (bi*oh+oy)*ow
					for ox := oxLo; ox < oxHi; ox, src = ox+1, src+step {
						v := xd[src]
						if skip && v == 0 {
							continue
						}
						p := (row+ox)*f + j
						gj := gd[p : p+8 : p+8]
						s0 += v * gj[0]
						s1 += v * gj[1]
						s2 += v * gj[2]
						s3 += v * gj[3]
						s4 += v * gj[4]
						s5 += v * gj[5]
						s6 += v * gj[6]
						s7 += v * gj[7]
					}
				}
			}
			oj := out[j : j+8 : j+8]
			oj[0], oj[1], oj[2], oj[3] = s0, s1, s2, s3
			oj[4], oj[5], oj[6], oj[7] = s4, s5, s6, s7
		}
		for ; j < f; j++ {
			s := 0.0
			for bi := 0; bi < batch; bi++ {
				for oy := oyLo; oy < oyHi; oy++ {
					src, row := at(bi, oy), (bi*oh+oy)*ow
					for ox := oxLo; ox < oxHi; ox, src = ox+1, src+step {
						if v := xd[src]; !skip || v != 0 {
							s += v * gd[(row+ox)*f+j]
						}
					}
				}
			}
			out[j] = s
		}
	}
}

// ConvInputGradInto computes the gradient of ConvInto's output with
// respect to its input maps, dst of shape [B, H, W, C], from the output
// gradient gy, shape [B, OH, OW, F], and the weights w, shape [K·K·C, F].
// It is Col2imInto(MatMulNTInto(gy, w), B, g) bit for bit, without the
// patch gradient: dst starts at +0, and each output pixel, in row order,
// adds to its in-range taps in (kh, kw, c) order the dot product of its
// gradient row and the tap's weight row, summed over the filters in
// ascending order from +0. An out-of-range tap's dot product, which the
// scatter drops, is never computed. dst must not alias gy or w; a nil dst
// allocates. Large gradients shard their images like Col2imInto.
func ConvInputGradInto(dst, gy, w *Tensor, g ConvGeom) *Tensor {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	taps := g.Kernel * g.Kernel * g.Channel
	batch, f := g.mustFitOutput(gy, -1, "ConvInputGrad")
	if w.Dims() != 2 || w.Dim(0) != taps || w.Dim(1) != f {
		panic(fmt.Sprintf("tensor: ConvInputGrad weight %v is not the [%d, %d] of geometry %+v", w.shape, taps, f, g))
	}
	dst = prepDst(dst, []int{batch, g.InH, g.InW, g.Channel}, "ConvInputGradInto")
	mustNoAlias(dst, "ConvInputGradInto", gy, w)
	od, gd, wd := dst.data, gy.data, w.data
	shardRows(batch, len(gd)*taps, func(bLo, bHi int) { convInputGradImages(od, gd, wd, g, f, bLo, bHi) })
	return dst
}

// convInputGradImages writes the input gradient of images [bLo, bHi)
// into od, clearing them first.
func convInputGradImages(od, gd, wd []float64, g ConvGeom, f, bLo, bHi int) {
	oh, ow, c := g.OutH(), g.OutW(), g.Channel
	perImage := g.InH * g.InW * c
	for bi := bLo; bi < bHi; bi++ {
		img := od[bi*perImage : (bi+1)*perImage]
		clear(img)
		row := bi * oh * ow
		for oy := 0; oy < oh; oy++ {
			y0 := oy*g.Stride - g.Pad
			khLo, khHi := g.inRange(y0, g.InH)
			for ox := 0; ox < ow; ox++ {
				x0 := ox*g.Stride - g.Pad
				kwLo, kwHi := g.inRange(x0, g.InW)
				gr := gd[row*f : (row+1)*f]
				for kh := khLo; kh < khHi; kh++ {
					// The in-range taps of one kernel row are contiguous in
					// the image and consecutive rows of w.
					at := ((y0+kh)*g.InW + x0 + kwLo) * c
					t0 := (kh*g.Kernel + kwLo) * c
					n := (kwHi - kwLo) * c
					addDots(img[at:at+n], gr, wd[t0*f:(t0+n)*f])
				}
				row++
			}
		}
	}
}

// addDots adds to each d[i] the dot product of gr with row i of ws (rows
// of len(gr)), each summed in ascending order from +0 like matMulNTRows,
// four rows side by side.
func addDots(d, gr, ws []float64) {
	f := len(gr)
	i := 0
	for ; i+4 <= len(d); i += 4 {
		w0 := ws[i*f : (i+1)*f : (i+1)*f]
		w1 := ws[(i+1)*f : (i+2)*f : (i+2)*f]
		w2 := ws[(i+2)*f : (i+3)*f : (i+3)*f]
		w3 := ws[(i+3)*f : (i+4)*f : (i+4)*f]
		var s0, s1, s2, s3 float64
		for k, v := range gr {
			s0 += v * w0[k]
			s1 += v * w1[k]
			s2 += v * w2[k]
			s3 += v * w3[k]
		}
		d[i] += s0
		d[i+1] += s1
		d[i+2] += s2
		d[i+3] += s3
	}
	for ; i < len(d); i++ {
		wi := ws[i*f : (i+1)*f]
		s := 0.0
		for k, v := range gr {
			s += v * wi[k]
		}
		d[i] += s
	}
}

// AvgPoolBackInto computes the gradient of AvgPoolInto's output with
// respect to its input, dst of shape [B, H, W, C], from the output
// gradient gy, shape [B, OH, OW, C]. It is the scatter the pooling's
// composite backward builds, Col2im(Reshape(BroadcastTo(Scale(gy,
// 1/K²)))), bit for bit, without the broadcast patch matrix: dst starts
// at +0, and each output pixel, in row order, adds its gradient scaled by
// 1/K² to its in-range window positions in (kh, kw) order. dst must not
// alias gy; a nil dst allocates. Large gradients shard their images like
// Col2imInto.
func AvgPoolBackInto(dst, gy *Tensor, g ConvGeom) *Tensor {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	batch, c := g.mustFitOutput(gy, -1, "AvgPoolBack")
	if c != g.Channel {
		panic(fmt.Sprintf("tensor: AvgPoolBack gradient %v does not have the %d channels of geometry %+v", gy.shape, g.Channel, g))
	}
	dst = prepDst(dst, []int{batch, g.InH, g.InW, g.Channel}, "AvgPoolBackInto")
	mustNoAlias(dst, "AvgPoolBackInto", gy)
	od, gd := dst.data, gy.data
	shardRows(batch, len(gd)*g.Kernel*g.Kernel, func(bLo, bHi int) { avgPoolBackImages(od, gd, g, bLo, bHi) })
	return dst
}

// avgPoolBackImages writes the input gradient of images [bLo, bHi) into
// od, clearing them first.
func avgPoolBackImages(od, gd []float64, g ConvGeom, bLo, bHi int) {
	oh, ow, c := g.OutH(), g.OutW(), g.Channel
	perImage := g.InH * g.InW * c
	scale := 1 / float64(g.Kernel*g.Kernel)
	for bi := bLo; bi < bHi; bi++ {
		img := od[bi*perImage : (bi+1)*perImage]
		clear(img)
		row := bi * oh * ow
		for oy := 0; oy < oh; oy++ {
			y0 := oy*g.Stride - g.Pad
			khLo, khHi := g.inRange(y0, g.InH)
			for ox := 0; ox < ow; ox++ {
				x0 := ox*g.Stride - g.Pad
				kwLo, kwHi := g.inRange(x0, g.InW)
				gr := gd[row*c : (row+1)*c]
				for kh := khLo; kh < khHi; kh++ {
					at := ((y0+kh)*g.InW + x0) * c
					for kw := kwLo; kw < kwHi; kw++ {
						d := img[at+kw*c : at+(kw+1)*c]
						for i, v := range gr {
							d[i] += float64(scale * v)
						}
					}
				}
				row++
			}
		}
	}
}

// InstanceNormGradInto computes the gradients of InstanceNormInto's output
// with respect to its input, scale and shift from the output gradient gy,
// the input x, the scale gamma and the statistics the forward pass saved
// (stats, shape [B, C, 3]): dx of x's shape, dgamma and dbeta of gamma's.
// A nil destination is not computed, as a graph asks a node only for the
// gradients of its live inputs. Each equals what the composite
// autodiff.InstanceNorm builds gives, bit for bit. With c = x − mean and
// x̂ = c·inv recomputed from x and the saved mean, and area the H·W
// positions of one channel:
//
//	dbeta  = Σ gy                              over (b, h, w), from +0
//	dgamma = Σ gy·x̂                            over (b, h, w), from +0
//	ginv   = Σ_hw (gy·γ)·c                     per (b, channel), from +0
//	gms    = (1/area)·(ginv·(−0.5·(var+eps)^−1.5))
//	gc     = ((gy·γ)·inv + c·gms) + c·gms      the composite's three terms, in its order
//	dx     = gc + (1/area)·(−1·Σ_hw gc)
//
// A one-term Σ_hw (1×1 maps), and dbeta's sum over a single (b, h, w), is
// the term itself, −0 included, as the composite's reduction to an equal
// shape is. dx equals the composite's only while the norm's input has no
// other consumer: the composite adds its two terms one at a time to what
// the input already holds, the kernel adds them as one; every stack nn
// builds feeds a norm from a convolution alone. The kernel runs on the
// calling goroutine, like the composite. No destination may alias an
// operand.
func InstanceNormGradInto(dx, dgamma, dbeta, gy, x, gamma, stats *Tensor) {
	if x.Dims() != 4 || !gy.SameShape(x) {
		panic(fmt.Sprintf("tensor: InstanceNormGrad gradient %v does not match input %v", gy.shape, x.shape))
	}
	b, c := x.Dim(0), x.Dim(3)
	if gamma.Len() != c || stats.Dims() != 3 || stats.Dim(0) != b || stats.Dim(1) != c || stats.Dim(2) != 3 {
		panic(fmt.Sprintf("tensor: InstanceNormGrad gamma %v and stats %v do not match input %v", gamma.shape, stats.shape, x.shape))
	}
	n := x.Dim(1) * x.Dim(2) * c
	gd, xd, gm, st := gy.data, x.data, gamma.data, stats.data
	if dx != nil {
		dx = prepDst(dx, x.shape, "InstanceNormGradInto")
		mustNoAlias(dx, "InstanceNormGradInto", gy, x, gamma, stats)
		instanceNormGradSamples(dx.data, gd, xd, gm, st, n, c)
	}
	if dgamma != nil {
		dgamma = prepDst(dgamma, gamma.shape, "InstanceNormGradInto")
		mustNoAlias(dgamma, "InstanceNormGradInto", gy, x, gamma, stats)
		od := dgamma.data
		clear(od)
		for lo, bi := 0, 0; lo < len(xd); lo, bi = lo+n, bi+1 {
			xs, gs := xd[lo:lo+n], gd[lo:lo+n]
			for ch := range od {
				at := 3 * (bi*c + ch)
				mean, inv := st[at], st[at+2]
				s := od[ch]
				for p := ch; p < n; p += c {
					xhat := float64(float64(xs[p]-mean) * inv)
					s += gs[p] * xhat
				}
				od[ch] = s
			}
		}
	}
	if dbeta != nil {
		dbeta = prepDst(dbeta, gamma.shape, "InstanceNormGradInto")
		mustNoAlias(dbeta, "InstanceNormGradInto", gy, x, gamma, stats)
		od := dbeta.data
		if len(gd) == c {
			copy(od, gd)
			return
		}
		clear(od)
		for base := 0; base < len(gd); base += c {
			for ch, v := range gd[base : base+c] {
				od[ch] += v
			}
		}
	}
}

// instanceNormGradSamples writes the input gradient of the samples of xd,
// n values of c channels each, into dd; see InstanceNormGradInto.
func instanceNormGradSamples(dd, gd, xd, gm, st []float64, n, c int) {
	scale := 1 / float64(n/c)
	for lo, bi := 0, 0; lo < len(xd); lo, bi = lo+n, bi+1 {
		xs, gs, ds := xd[lo:lo+n], gd[lo:lo+n], dd[lo:lo+n]
		for ch, gamma := range gm[:c] {
			at := 3 * (bi*c + ch)
			mean, ve, inv := st[at], st[at+1], st[at+2]
			s := 0.0
			for p := ch; p < n; p += c {
				gxhat, cp := float64(gs[p]*gamma), float64(xs[p]-mean)
				s += gxhat * cp
			}
			gms := scale * float64(s*float64(-0.5*math.Pow(ve, -1.5)))
			s = 0
			for p := ch; p < n; p += c {
				cg := float64(float64(xs[p]-mean) * gms)
				gc := float64(float64(float64(float64(gs[p]*gamma)*inv)+cg) + cg)
				ds[p] = gc
				s += gc
			}
			if n == c {
				s = ds[ch]
			}
			gs1 := scale * float64(-1*s)
			for p := ch; p < n; p += c {
				ds[p] += gs1
			}
		}
	}
}

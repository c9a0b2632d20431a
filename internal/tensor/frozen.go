package tensor

import (
	"fmt"
	"math"
)

// This file holds the direct forward kernels: a convolution and an
// instance normalization that each compute, in one kernel, the floats of
// the composite their layer builds for a graph that may be differentiated
// twice. autodiff.Conv and autodiff.InstanceNorm call them when no input
// needs a gradient, so inference builds no patch matrix and no
// per-statistic intermediates, and for the first-order nodes of a
// training step, whose gradients are backward.go's.

// ConvInto computes the convolution of x (shape [B, H, W, C]) with the
// weight matrix w (shape [K·K·C, F], rows in the patch order (kh, kw, c))
// plus the length-F bias, into dst of shape [B, OH, OW, F]. The result is
// AddRowInto(MatMulInto(Im2colInto(x, g), w), bias) bit for bit, without
// the patch matrix: each output row holds eight columns in registers like
// matMulRows, walks its in-range taps in (kh, kw, c) order — the patch
// row's column order — skips a zero input as the forward product skips a
// zero patch entry, and adds the bias in the final store. An out-of-range
// tap is a padding zero of the patch matrix, which the product skips too,
// so a NaN or ±Inf in w meets exactly the inputs it meets there. dst must
// not alias x, w or bias; a nil dst allocates. Large convolutions shard
// their output rows like MatMulInto.
func ConvInto(dst, x, w, bias *Tensor, g ConvGeom) *Tensor {
	g.mustFit(x, "Conv")
	taps := g.Kernel * g.Kernel * g.Channel
	if w.Dims() != 2 || w.Dim(0) != taps {
		panic(fmt.Sprintf("tensor: Conv weight %v does not have the %d rows of geometry %+v", w.shape, taps, g))
	}
	f := w.Dim(1)
	if bias.Len() != f {
		panic(fmt.Sprintf("tensor: Conv bias length %d does not match %d filters", bias.Len(), f))
	}
	b, oh, ow := x.Dim(0), g.OutH(), g.OutW()
	rows := b * oh * ow
	dst = prepDst(dst, []int{b, oh, ow, f}, "ConvInto")
	mustNoAlias(dst, "ConvInto", x, w, bias)
	od, xd, wd, bd := dst.data, x.data, w.data, bias.data
	shardRows(rows, rows*f*taps, func(lo, hi int) { convRows(od, xd, wd, bd, g, f, lo, hi) })
	return dst
}

// convRows writes output rows [lo, hi) of the convolution of xd by the
// [K·K·C, f] weights wd plus bias bd into od, walking the rows like
// im2colRows. Every value of those rows is written: od may be a recycled
// buffer.
func convRows(od, xd, wd, bd []float64, g ConvGeom, f, lo, hi int) {
	oh, ow, c := g.OutH(), g.OutW(), g.Channel
	bi, oy, ox := lo/(oh*ow), (lo/ow)%oh, lo%ow
	for row := lo; row < hi; row++ {
		out := od[row*f : (row+1)*f]
		x0, y0 := ox*g.Stride-g.Pad, oy*g.Stride-g.Pad
		kwLo, kwHi := g.inRange(x0, g.InW)
		khLo, khHi := g.inRange(y0, g.InH)
		j := 0
		for ; j+8 <= f; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for kh := khLo; kh < khHi; kh++ {
				// The in-range taps of one kernel row are contiguous in
				// the image and consecutive rows of w.
				src := ((bi*g.InH+y0+kh)*g.InW + x0) * c
				col := (kh*g.Kernel + kwLo) * c
				for t, v := range xd[src+kwLo*c : src+kwHi*c] {
					if v == 0 {
						continue
					}
					p := (col+t)*f + j
					wj := wd[p : p+8 : p+8]
					s0 += v * wj[0]
					s1 += v * wj[1]
					s2 += v * wj[2]
					s3 += v * wj[3]
					s4 += v * wj[4]
					s5 += v * wj[5]
					s6 += v * wj[6]
					s7 += v * wj[7]
				}
			}
			bj, oj := bd[j:j+8:j+8], out[j:j+8:j+8]
			oj[0], oj[1], oj[2], oj[3] = s0+bj[0], s1+bj[1], s2+bj[2], s3+bj[3]
			oj[4], oj[5], oj[6], oj[7] = s4+bj[4], s5+bj[5], s6+bj[6], s7+bj[7]
		}
		for ; j < f; j++ {
			s := 0.0
			for kh := khLo; kh < khHi; kh++ {
				src := ((bi*g.InH+y0+kh)*g.InW + x0) * c
				col := (kh*g.Kernel + kwLo) * c
				for t, v := range xd[src+kwLo*c : src+kwHi*c] {
					if v != 0 {
						s += v * wd[(col+t)*f+j]
					}
				}
			}
			out[j] = s + bd[j]
		}
		if ox++; ox == ow {
			ox = 0
			if oy++; oy == oh {
				oy = 0
				bi++
			}
		}
	}
}

// InstanceNormInto normalizes each channel of each sample of x (shape
// [B, H, W, C]) over its H·W positions and applies the per-channel scale
// gamma and shift beta (length C each), into dst of x's shape. Per
// (sample, channel) it makes one pass for the mean, one for the variance
// and one for the output, and reproduces the floats of the composite
// autodiff.InstanceNorm builds for a differentiable input, operation by
// operation: the mean is (1/area)·s of the strided sum s from +0, the
// variance (1/area)·Σ(x − mean)², inv = (variance + eps)^−½ by math.Pow,
// and each output ((x − mean)·inv)·gamma + beta. The explicit conversions
// keep a compiler from fusing a product and a sum the composite rounds
// apart. dst must not alias x, gamma or beta; a nil dst allocates.
//
// A non-nil stats, prepared like dst, receives each (sample, channel)'s
// mean, variance + eps and inv, shape [B, C, 3]: what InstanceNormGradInto
// reads back. Such a pass is a training step's, and runs on the calling
// goroutine like the composite it stands for; an inference pass (nil
// stats) shards its samples when the batch is large.
func InstanceNormInto(dst, stats, x, gamma, beta *Tensor, eps float64) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: InstanceNorm requires [B, H, W, C] maps, got %v", x.shape))
	}
	b, c := x.Dim(0), x.Dim(3)
	if gamma.Len() != c || beta.Len() != c {
		panic(fmt.Sprintf("tensor: InstanceNorm gamma %v and beta %v do not match %d channels", gamma.shape, beta.shape, c))
	}
	dst = prepDst(dst, x.shape, "InstanceNormInto")
	mustNoAlias(dst, "InstanceNormInto", x, gamma, beta)
	n := x.Dim(1) * x.Dim(2) * c
	od, xd, gd, bd := dst.data, x.data, gamma.data, beta.data
	if stats != nil {
		stats = prepDst(stats, []int{b, c, 3}, "InstanceNormInto")
		mustNoAlias(stats, "InstanceNormInto", dst, x, gamma, beta)
		instanceNormSamples(od, stats.data, xd, gd, bd, n, c, eps)
		return dst
	}
	shardRows(b, 3*len(xd), func(lo, hi int) {
		instanceNormSamples(od[lo*n:hi*n], nil, xd[lo*n:hi*n], gd, bd, n, c, eps)
	})
	return dst
}

// instanceNormSamples normalizes the samples of xd, n values of c
// channels each, into od, and writes their statistics into st unless it
// is nil.
func instanceNormSamples(od, st, xd, gd, bd []float64, n, c int, eps float64) {
	scale := 1 / float64(n/c)
	for lo, bi := 0, 0; lo < len(xd); lo, bi = lo+n, bi+1 {
		xs, ds := xd[lo:lo+n], od[lo:lo+n]
		for ch, g := range gd[:c] {
			s := 0.0
			for p := ch; p < n; p += c {
				s += xs[p]
			}
			mean := scale * s
			s = 0
			for p := ch; p < n; p += c {
				d := xs[p] - mean
				s += d * d
			}
			ve := float64(scale*s) + eps
			inv := math.Pow(ve, -0.5)
			if st != nil {
				at := 3 * (bi*c + ch)
				st[at], st[at+1], st[at+2] = mean, ve, inv
			}
			b := bd[ch]
			for p := ch; p < n; p += c {
				ds[p] = float64(float64((xs[p]-mean)*inv)*g) + b
			}
		}
	}
}

package tensor

import "fmt"

// ConvGeom describes the geometry of a patch-extraction (im2col) operation
// on NHWC feature maps.
type ConvGeom struct {
	Kernel  int // square kernel side
	Stride  int
	Pad     int // symmetric zero padding
	InH     int
	InW     int
	Channel int
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.Kernel)/g.Stride + 1 }

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.Kernel)/g.Stride + 1 }

// Validate checks that the geometry yields a positive output size.
func (g ConvGeom) Validate() error {
	if g.Kernel <= 0 || g.Stride <= 0 || g.Pad < 0 || g.InH <= 0 || g.InW <= 0 || g.Channel <= 0 {
		return fmt.Errorf("tensor: invalid conv geometry %+v", g) //lint:allow hotpathalloc failure path only, like a panic argument
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv geometry %+v yields empty output", g) //lint:allow hotpathalloc failure path only, like a panic argument
	}
	return nil
}

// Im2col extracts sliding kernel patches from x (shape [B, H, W, C]) and
// lays them out as a matrix of shape [B*OH*OW, K*K*C]. Row r corresponds to
// output position (b, oh, ow) in row-major order; within a row, elements are
// ordered (kh, kw, c). Out-of-bounds positions (from padding) contribute 0.
func Im2col(x *Tensor, g ConvGeom) *Tensor { return Im2colInto(nil, x, g) }

// Im2colInto is the destination-passing form of Im2col. dst must not alias
// x; a nil dst allocates. Large extractions shard their patch rows across
// GOMAXPROCS goroutines — each row is written by exactly one worker, so
// the result is identical to the sequential extraction.
//
//lint:hotpath
func Im2colInto(dst, x *Tensor, g ConvGeom) *Tensor {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	if x.Dims() != 4 || x.Dim(1) != g.InH || x.Dim(2) != g.InW || x.Dim(3) != g.Channel {
		panic(fmt.Sprintf("tensor: Im2col input %v does not match geometry %+v", x.shape, g))
	}
	b, oh, ow := x.Dim(0), g.OutH(), g.OutW()
	cols := g.Kernel * g.Kernel * g.Channel
	rows := b * oh * ow
	dst = prepDst(dst, []int{rows, cols}, "Im2colInto")
	mustNoAlias(dst, "Im2colInto", x)
	xd, od := x.Data(), dst.Data()
	shardRows(rows, rows*cols, func(lo, hi int) { im2colRows(od, xd, g, lo, hi) })
	return dst
}

// im2colRows writes patch rows [lo, hi) of the extraction from xd into od.
// Every value of those rows is written: od may be a recycled buffer.
func im2colRows(od, xd []float64, g ConvGeom, lo, hi int) {
	oh, ow := g.OutH(), g.OutW()
	kc := g.Kernel * g.Channel
	cols := g.Kernel * kc
	// Walk (image, oy, ox) from row lo on by increments, not divisions.
	bi, oy, ox := lo/(oh*ow), (lo/ow)%oh, lo%ow
	for row := lo; row < hi; row++ {
		out := od[row*cols : (row+1)*cols]
		x0, y0 := ox*g.Stride-g.Pad, oy*g.Stride-g.Pad
		kwLo, kwHi := g.inRange(x0, g.InW)
		for kh := 0; kh < g.Kernel; kh++ {
			// One kernel row: K·C values, of which the in-range columns
			// are contiguous in the image.
			o := out[kh*kc : (kh+1)*kc]
			iy := y0 + kh
			if iy < 0 || iy >= g.InH || kwLo == kwHi {
				clear(o)
				continue
			}
			clear(o[:kwLo*g.Channel])
			src := ((bi*g.InH+iy)*g.InW + x0) * g.Channel
			copy(o[kwLo*g.Channel:kwHi*g.Channel], xd[src+kwLo*g.Channel:src+kwHi*g.Channel])
			clear(o[kwHi*g.Channel:])
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

// inRange returns the kernel columns [lo, hi) of a patch starting at input
// column x0 that fall inside an axis of length n (lo ≤ hi, both in
// [0, Kernel]).
func (g ConvGeom) inRange(x0, n int) (lo, hi int) {
	lo = min(max(-x0, 0), g.Kernel)
	hi = max(min(n-x0, g.Kernel), lo)
	return lo, hi
}

// Col2im is the adjoint of Im2col: it scatter-adds a patch matrix of shape
// [B*OH*OW, K*K*C] back into an NHWC tensor [B, H, W, C]. Positions covered
// by multiple patches accumulate, making Col2im the exact transpose of the
// linear map Im2col.
func Col2im(cols *Tensor, batch int, g ConvGeom) *Tensor {
	return Col2imInto(nil, cols, batch, g)
}

// Col2imInto is the destination-passing form of Col2im. dst must not alias
// cols; a nil dst allocates. Because patches of the same image overlap, the
// scatter-add is sharded per batch image (disjoint output regions), which
// keeps the per-position accumulation order — and therefore the floating-
// point result — identical to the sequential scatter.
func Col2imInto(dst, cols *Tensor, batch int, g ConvGeom) *Tensor {
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	oh, ow := g.OutH(), g.OutW()
	nc := g.Kernel * g.Kernel * g.Channel
	if cols.Dims() != 2 || cols.Dim(0) != batch*oh*ow || cols.Dim(1) != nc {
		panic(fmt.Sprintf("tensor: Col2im input %v does not match batch %d geometry %+v", cols.shape, batch, g))
	}
	dst = prepDst(dst, []int{batch, g.InH, g.InW, g.Channel}, "Col2imInto")
	mustNoAlias(dst, "Col2imInto", cols)
	dst.Zero()
	cd, od := cols.Data(), dst.Data()
	shardRows(batch, batch*oh*ow*nc, func(bLo, bHi int) { col2imImages(od, cd, g, bLo, bHi) })
	return dst
}

// col2imImages scatter-adds the patch rows of images [bLo, bHi) from cd
// into od, which holds zeros there: each image position receives its
// contributions in patch-row order.
func col2imImages(od, cd []float64, g ConvGeom, bLo, bHi int) {
	oh, ow := g.OutH(), g.OutW()
	perImage := g.InH * g.InW * g.Channel
	kc := g.Kernel * g.Channel
	nc := g.Kernel * kc
	for bi := bLo; bi < bHi; bi++ {
		img := od[bi*perImage : (bi+1)*perImage]
		row := bi * oh * ow
		for oy := 0; oy < oh; oy++ {
			y0 := oy*g.Stride - g.Pad
			for ox := 0; ox < ow; ox++ {
				src := cd[row*nc : (row+1)*nc]
				x0 := ox*g.Stride - g.Pad
				kwLo, kwHi := g.inRange(x0, g.InW)
				for kh := 0; kh < g.Kernel; kh++ {
					iy := y0 + kh
					if iy < 0 || iy >= g.InH || kwLo == kwHi {
						continue
					}
					// The in-range columns of one kernel row are contiguous
					// in the image.
					at := (iy*g.InW + x0) * g.Channel
					s := src[kh*kc+kwLo*g.Channel : kh*kc+kwHi*g.Channel]
					d := img[at+kwLo*g.Channel : at+kwHi*g.Channel]
					for i, v := range s {
						d[i] += v
					}
				}
				row++
			}
		}
	}
}

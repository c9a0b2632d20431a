package tensor

import (
	"fmt"
	"math"
)

// This file implements the destination-passing ("Into") forms of the hot
// kernels. Every function takes an explicit destination tensor and returns
// it; passing a nil destination allocates a fresh tensor of the result
// shape, so the allocating methods on Tensor are thin wrappers over these.
//
// Aliasing rules:
//
//   - Elementwise kernels (AddInto, SubInto, MulInto, ScaleInto, ApplyInto,
//     ReLUInto, AddScaledInto, AddRowInto) compute dst[i] from position i
//     of their inputs only, so dst may alias either input exactly (same
//     backing array).
//   - Gather/scatter and contraction kernels (MatMulInto, MatMulNTInto,
//     MatMulTNInto, TransposeInto, SumAxesInto, BroadcastToInto,
//     Im2colInto, Col2imInto) read inputs after writing dst; dst must not
//     alias any input. They panic when they detect sharing.
//
// Because tensors own (or, via View, share) a whole backing slice, aliasing
// is detected by comparing the address of the first element. RowsView
// tensors offset into a parent are the one case this check cannot see —
// callers passing row views must enforce the rules themselves.

// sharesData reports whether a and b are backed by the same storage.
func sharesData(a, b *Tensor) bool {
	return a != nil && b != nil && len(a.data) > 0 && len(b.data) > 0 && &a.data[0] == &b.data[0]
}

// prepDst validates or allocates the destination for a result of the given
// shape. A nil destination allocates a fresh tensor; a zero-valued header
// (no storage yet — e.g. a node's inline tensor) gets storage of the
// result size, uncleared from its arena when it is tagged with one
// (Arena.Header) and fresh from the heap otherwise; otherwise the destination must hold exactly the result's
// element count and adopts the result shape, so pooled buffers can be
// reused across results of equal size but different shape.
func prepDst(dst *Tensor, shape []int, op string) *Tensor {
	if dst == nil {
		return New(shape...)
	}
	if dst.data == nil {
		n := checkShape(shape)
		dst.setShape(shape)
		if dst.arena != nil {
			dst.data = dst.arena.get(n)
		} else {
			dst.data = make([]float64, n)
		}
		return dst
	}
	if len(dst.data) != prod(shape) {
		panic(dstShapeErr(op, dst.shape, shape))
	}
	// The destination adopts the result shape (it may come from the pool
	// with a stale shape of equal element count).
	dst.setShape(shape)
	return dst
}

func prod(shape []int) int {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return n
}

func mustNoAlias(dst *Tensor, op string, inputs ...*Tensor) {
	for _, in := range inputs {
		if sharesData(dst, in) {
			panic(fmt.Sprintf("tensor: %s destination must not alias an input", op))
		}
	}
}

// AddInto computes dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Tensor) *Tensor {
	a.mustSameShape(b, "AddInto")
	dst = prepDst(dst, a.shape, "AddInto")
	bd := b.data
	for i, v := range a.data {
		dst.data[i] = v + bd[i]
	}
	return dst
}

// SubInto computes dst = a - b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Tensor) *Tensor {
	a.mustSameShape(b, "SubInto")
	dst = prepDst(dst, a.shape, "SubInto")
	bd := b.data
	for i, v := range a.data {
		dst.data[i] = v - bd[i]
	}
	return dst
}

// MulInto computes the elementwise product dst = a ⊙ b. dst may alias a or b.
func MulInto(dst, a, b *Tensor) *Tensor {
	a.mustSameShape(b, "MulInto")
	dst = prepDst(dst, a.shape, "MulInto")
	bd := b.data
	for i, v := range a.data {
		dst.data[i] = v * bd[i]
	}
	return dst
}

// ScaleInto computes dst = c * a. dst may alias a.
func ScaleInto(dst, a *Tensor, c float64) *Tensor {
	dst = prepDst(dst, a.shape, "ScaleInto")
	for i, v := range a.data {
		dst.data[i] = c * v
	}
	return dst
}

// AddScaledInto computes dst = a + alpha*b. dst may alias a or b.
func AddScaledInto(dst, a *Tensor, alpha float64, b *Tensor) *Tensor {
	a.mustSameShape(b, "AddScaledInto")
	dst = prepDst(dst, a.shape, "AddScaledInto")
	bd := b.data
	for i, v := range a.data {
		dst.data[i] = v + alpha*bd[i]
	}
	return dst
}

// ApplyInto computes dst[i] = f(a[i]). dst may alias a.
func ApplyInto(dst, a *Tensor, f func(float64) float64) *Tensor {
	dst = prepDst(dst, a.shape, "ApplyInto")
	for i, v := range a.data {
		dst.data[i] = f(v)
	}
	return dst
}

// ReLUInto computes the rectifier and, when mask is non-nil, its derivative
// in one pass: dst[i] = a[i] where a[i] > 0 and +0 elsewhere, mask[i] = 1
// where a[i] > 0 and 0 elsewhere. A nil mask skips the derivative (a forward
// pass nothing will differentiate); a non-nil mask is prepared like dst.
// dst and mask may each alias a; dst must not alias mask.
func ReLUInto(dst, mask, a *Tensor) *Tensor {
	dst = prepDst(dst, a.shape, "ReLUInto")
	dd := dst.data[:len(a.data)]
	if mask == nil {
		for i, v := range a.data {
			bits := math.Float64bits(v)
			dd[i] = math.Float64frombits(bits & positive(bits))
		}
		return dst
	}
	mask = prepDst(mask, a.shape, "ReLUInto")
	if sharesData(dst, mask) {
		panic("tensor: ReLUInto destination must not alias the mask")
	}
	md := mask.data[:len(a.data)]
	const one = 0x3FF0000000000000 // math.Float64bits(1)
	for i, v := range a.data {
		bits := math.Float64bits(v)
		keep := positive(bits)
		dd[i] = math.Float64frombits(bits & keep)
		md[i] = math.Float64frombits(one & keep)
	}
	return dst
}

// positive returns all ones when the float64 with the given bit pattern is
// > 0 and zero otherwise. Testing the pattern instead of the float lets the
// compiler select the result without a data-dependent branch
// (pre-activation signs are close to a coin flip): the patterns of the
// positive values are exactly 1 … +Inf, so bits-1 < bits(+Inf) unsigned —
// zero wraps around, negatives and NaNs lie above.
func positive(bits uint64) uint64 {
	const posInf = 0x7FF0000000000000
	if bits-1 < posInf {
		return ^uint64(0)
	}
	return 0
}

// FullInto sets dst to a tensor of the given shape with every element v.
// It reads no tensor, so there is nothing for dst to alias.
func FullInto(dst *Tensor, v float64, shape ...int) *Tensor {
	dst = prepDst(dst, shape, "FullInto")
	for i := range dst.data {
		dst.data[i] = v
	}
	return dst
}

// AddConstInto computes dst = a + c elementwise. dst may alias a.
func AddConstInto(dst, a *Tensor, c float64) *Tensor {
	dst = prepDst(dst, a.shape, "AddConstInto")
	for i, v := range a.data {
		dst.data[i] = v + c
	}
	return dst
}

// PowInto computes dst = aᵖ elementwise. dst may alias a.
func PowInto(dst, a *Tensor, p float64) *Tensor {
	dst = prepDst(dst, a.shape, "PowInto")
	for i, v := range a.data {
		dst.data[i] = math.Pow(v, p)
	}
	return dst
}

// AddRowInto treats a as [R, C] and adds the length-C vector row to every
// row: dst[r,c] = a[r,c] + row[c]. dst may alias a.
func AddRowInto(dst, a, row *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: AddRowInto requires a matrix, got %v", a.shape))
	}
	cols := a.shape[1]
	if row.Len() != cols {
		panic(fmt.Sprintf("tensor: AddRowInto row length %d does not match %d columns", row.Len(), cols))
	}
	dst = prepDst(dst, a.shape, "AddRowInto")
	rd := row.data
	for r := 0; r < a.shape[0]; r++ {
		ar := a.data[r*cols : (r+1)*cols]
		dr := dst.data[r*cols : (r+1)*cols]
		for c, v := range ar {
			dr[c] = v + rd[c]
		}
	}
	return dst
}

// MaxRowsInto treats a as [R, C] and writes each row's maximum into dst,
// shape [R, 1]. dst must not alias a.
func MaxRowsInto(dst, a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: MaxRowsInto requires a matrix, got %v", a.shape))
	}
	rows, cols := a.shape[0], a.shape[1]
	dst = prepDst(dst, []int{rows, 1}, "MaxRowsInto")
	mustNoAlias(dst, "MaxRowsInto", a)
	for r := 0; r < rows; r++ {
		row := a.data[r*cols : (r+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		dst.data[r] = m
	}
	return dst
}

// TransposeInto computes the matrix transpose dst = aᵀ. dst must not alias a.
func TransposeInto(dst, a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic(fmt.Sprintf("tensor: TransposeInto requires a matrix, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	dst = prepDst(dst, []int{n, m}, "TransposeInto")
	mustNoAlias(dst, "TransposeInto", a)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.data[j*m+i] = a.data[i*n+j]
		}
	}
	return dst
}

// bcastSpans decomposes a broadcast between a full shape and a small shape
// of equal rank (small has 1s on the broadcast axes) into contiguous
// (outer, mid, inner) spans: full = [outer, mid, inner] row-major where mid
// collapses the broadcast axes and small = [outer, inner]. It succeeds
// whenever the broadcast axes form one contiguous run — every pattern this
// repository uses ([B,1,1,C], [B,1], [1,C], same-shape) — and reports
// ok=false otherwise so callers can fall back to the generic walk.
func bcastSpans(full, small []int) (outer, mid, inner int, ok bool) {
	if len(full) != len(small) {
		panic(bcastRankErr(small, full))
	}
	first, last := -1, -1
	for i, s := range small {
		if s != full[i] {
			if s != 1 {
				panic(bcastShapeErr(small, full))
			}
			if first == -1 {
				first = i
			}
			last = i
		}
	}
	outer, mid, inner = 1, 1, 1
	if first == -1 {
		for _, s := range full {
			outer *= s
		}
		return outer, 1, 1, true
	}
	for i := first; i <= last; i++ {
		if small[i] != 1 {
			return 0, 0, 0, false // broadcast axes are not contiguous
		}
	}
	for i := 0; i < first; i++ {
		outer *= full[i]
	}
	for i := first; i <= last; i++ {
		mid *= full[i]
	}
	for i := last + 1; i < len(full); i++ {
		inner *= full[i]
	}
	return outer, mid, inner, true
}

// forEachBcast invokes f(i, j) for every flat index i of the full shape
// with j the matching flat index of the small (broadcast) shape. It is the
// generic fallback for non-contiguous broadcast axes.
func forEachBcast(full, small []int, f func(i, j int)) {
	var idxArr [8]int
	idx := idxArr[:0]
	if len(full) > len(idxArr) {
		idx = make([]int, 0, len(full))
	}
	idx = idx[:len(full)]
	for i := range idx {
		idx[i] = 0
	}
	n := prod(full)
	for i := 0; i < n; i++ {
		j := 0
		for d, ix := range idx {
			if small[d] == 1 {
				ix = 0
			}
			j = j*small[d] + ix
		}
		f(i, j)
		incIndex(idx, full)
	}
}

// SumAxesInto sums a over the given axes (sorted, unique, in range),
// keeping them as size-1 dimensions. dst must not alias a.
func SumAxesInto(dst, a *Tensor, axes ...int) *Tensor {
	var outArr [8]int
	outShape := outArr[:0]
	if len(a.shape) > len(outArr) {
		outShape = make([]int, 0, len(a.shape))
	}
	outShape = append(outShape, a.shape...)
	for i, ax := range axes {
		if ax < 0 || ax >= len(a.shape) {
			panic(fmt.Sprintf("tensor: SumAxesInto axis %d out of range for shape %v", ax, a.shape))
		}
		if i > 0 && axes[i-1] >= ax {
			panic("tensor: SumAxesInto axes must be sorted and unique")
		}
		outShape[ax] = 1
	}
	dst = prepDst(dst, outShape, "SumAxesInto")
	mustNoAlias(dst, "SumAxesInto", a)
	sumToShape(dst, a)
	return dst
}

// SumLikeInto sums a down to ref's shape (same rank; ref has size 1 on
// every reduced axis). dst must not alias a.
func SumLikeInto(dst, a, ref *Tensor) *Tensor {
	dst = prepDst(dst, ref.shape, "SumLikeInto")
	mustNoAlias(dst, "SumLikeInto", a)
	sumToShape(dst, a)
	return dst
}

// sumToShape accumulates a into an already-shaped, not-yet-zeroed dst.
func sumToShape(dst, a *Tensor) {
	dst.Zero()
	dd, ad := dst.data, a.data
	if outer, mid, inner, ok := bcastSpans(a.shape, dst.shape); ok {
		for o := 0; o < outer; o++ {
			do := dd[o*inner : (o+1)*inner]
			for m := 0; m < mid; m++ {
				ao := ad[(o*mid+m)*inner : (o*mid+m+1)*inner]
				for i, v := range ao {
					do[i] += v
				}
			}
		}
		return
	}
	forEachBcast(a.shape, dst.shape, func(i, j int) { dd[j] += ad[i] })
}

// BroadcastToInto expands size-1 dimensions of a to shape. dst must not
// alias a.
func BroadcastToInto(dst, a *Tensor, shape ...int) *Tensor {
	dst = prepDst(dst, shape, "BroadcastToInto")
	mustNoAlias(dst, "BroadcastToInto", a)
	dd, ad := dst.data, a.data
	if outer, mid, inner, ok := bcastSpans(dst.shape, a.shape); ok {
		for o := 0; o < outer; o++ {
			ao := ad[o*inner : (o+1)*inner]
			for m := 0; m < mid; m++ {
				copy(dd[(o*mid+m)*inner:(o*mid+m+1)*inner], ao)
			}
		}
		return dst
	}
	forEachBcast(dst.shape, a.shape, func(i, j int) { dd[i] = ad[j] })
	return dst
}

// BroadcastLikeInto expands size-1 dimensions of a to ref's shape.
// dst must not alias a (the expansion reads a while writing dst).
func BroadcastLikeInto(dst, a, ref *Tensor) *Tensor {
	return BroadcastToInto(dst, a, ref.shape...)
}

// --- fused broadcast arithmetic ---
//
// The kernels below combine an elementwise operation with an implicit
// broadcast of the second (small) operand, so normalization layers and
// losses never materialize a broadcast tensor. The small operand must have
// the same rank as a with size 1 on the broadcast axes. dst may alias a
// (position-wise independent in the full index); it must not alias b.

// AddBcastInto computes dst = a + broadcast(b). dst may alias a; it
// must not alias b.
func AddBcastInto(dst, a, b *Tensor) *Tensor { return bcastBinary(dst, a, b, '+', "AddBcastInto") }

// SubBcastInto computes dst = a - broadcast(b). dst may alias a; it
// must not alias b.
func SubBcastInto(dst, a, b *Tensor) *Tensor { return bcastBinary(dst, a, b, '-', "SubBcastInto") }

// MulBcastInto computes dst = a ⊙ broadcast(b). dst may alias a; it
// must not alias b.
func MulBcastInto(dst, a, b *Tensor) *Tensor { return bcastBinary(dst, a, b, '*', "MulBcastInto") }

// bcastBinary computes dst = a op broadcast(b) for op '+', '-' or '*'. On
// contiguous spans each op runs its own direct loop — the op is chosen
// once per outer span, never per element.
func bcastBinary(dst, a, b *Tensor, op byte, name string) *Tensor {
	dst = prepDst(dst, a.shape, name)
	mustNoAlias(dst, name, b)
	dd, ad, bd := dst.data, a.data, b.data
	outer, mid, inner, ok := bcastSpans(a.shape, b.shape)
	if !ok {
		forEachBcast(a.shape, b.shape, func(i, j int) { dd[i] = bcastOp(op, ad[i], bd[j]) })
		return dst
	}
	for o := 0; o < outer; o++ {
		bo := bd[o*inner : (o+1)*inner]
		switch op {
		case '+':
			for base := o * mid * inner; base < (o+1)*mid*inner; base += inner {
				do := dd[base : base+inner]
				for i, v := range ad[base : base+inner] {
					do[i] = v + bo[i]
				}
			}
		case '-':
			for base := o * mid * inner; base < (o+1)*mid*inner; base += inner {
				do := dd[base : base+inner]
				for i, v := range ad[base : base+inner] {
					do[i] = v - bo[i]
				}
			}
		default:
			for base := o * mid * inner; base < (o+1)*mid*inner; base += inner {
				do := dd[base : base+inner]
				for i, v := range ad[base : base+inner] {
					do[i] = v * bo[i]
				}
			}
		}
	}
	return dst
}

// bcastOp applies one of bcastBinary's ops to a pair of elements.
func bcastOp(op byte, x, y float64) float64 {
	switch op {
	case '+':
		return x + y
	case '-':
		return x - y
	}
	return x * y
}

// MulSumInto computes dst = Σ_axes (a ⊙ b) — the product reduced over the
// given axes (kept as size-1 dims) without materializing it. a and b must
// have the same shape; dst must not alias either input.
func MulSumInto(dst, a, b *Tensor, axes ...int) *Tensor {
	a.mustSameShape(b, "MulSumInto")
	var outArr [8]int
	outShape := outArr[:0]
	if len(a.shape) > len(outArr) {
		outShape = make([]int, 0, len(a.shape))
	}
	outShape = append(outShape, a.shape...)
	for i, ax := range axes {
		if ax < 0 || ax >= len(a.shape) {
			panic(fmt.Sprintf("tensor: MulSumInto axis %d out of range for shape %v", ax, a.shape))
		}
		if i > 0 && axes[i-1] >= ax {
			panic("tensor: MulSumInto axes must be sorted and unique")
		}
		outShape[ax] = 1
	}
	dst = prepDst(dst, outShape, "MulSumInto")
	mustNoAlias(dst, "MulSumInto", a, b)
	mulSumToShape(dst, a, b)
	return dst
}

// MulSumLikeInto computes dst = a ⊙ b reduced to ref's shape (same rank;
// size 1 on reduced axes). dst must not alias a or b.
func MulSumLikeInto(dst, a, b, ref *Tensor) *Tensor {
	a.mustSameShape(b, "MulSumLikeInto")
	dst = prepDst(dst, ref.shape, "MulSumLikeInto")
	mustNoAlias(dst, "MulSumLikeInto", a, b)
	mulSumToShape(dst, a, b)
	return dst
}

func mulSumToShape(dst, a, b *Tensor) {
	dst.Zero()
	dd, ad, bd := dst.data, a.data, b.data
	if outer, mid, inner, ok := bcastSpans(a.shape, dst.shape); ok {
		for o := 0; o < outer; o++ {
			do := dd[o*inner : (o+1)*inner]
			for m := 0; m < mid; m++ {
				base := (o*mid + m) * inner
				ao := ad[base : base+inner]
				bo := bd[base : base+inner]
				for i, v := range ao {
					do[i] += v * bo[i]
				}
			}
		}
		return
	}
	forEachBcast(a.shape, dst.shape, func(i, j int) { dd[j] += ad[i] * bd[i] })
}

// MatMulInto computes the matrix product dst = a·b for a [M,K] and b [K,N].
// dst must not alias a or b. Above the parallelism threshold the output
// rows are sharded across GOMAXPROCS goroutines; each row is produced by
// exactly one goroutine running the sequential kernel, so the result is
// bitwise identical to the sequential product.
//
//lint:hotpath
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b, false, false)
	dst = prepDst(dst, []int{m, n}, "MatMulInto")
	mustNoAlias(dst, "MatMulInto", a, b)
	shardRows(m, m*n*k, func(lo, hi int) { matMulRows(dst, a, b, false, true, lo, hi) })
	return dst
}

// MatMulNTInto computes dst = a·bᵀ for a [M,K] and b [N,K] without
// materializing the transpose. dst must not alias a or b.
func MatMulNTInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b, false, true)
	dst = prepDst(dst, []int{m, n}, "MatMulNTInto")
	mustNoAlias(dst, "MatMulNTInto", a, b)
	shardRows(m, m*n*k, func(lo, hi int) { matMulNTRows(dst, a, b, lo, hi) })
	return dst
}

// MatMulTNInto computes dst = aᵀ·b for a [K,M] and b [K,N] without
// materializing the transpose. dst must not alias a or b.
func MatMulTNInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b, true, false)
	dst = prepDst(dst, []int{m, n}, "MatMulTNInto")
	mustNoAlias(dst, "MatMulTNInto", a, b)
	// The dense loop whenever b is finite (see the row kernels' contract),
	// proven by scanning the smaller of b and the dense result: a NaN or
	// ±Inf in b enters every product it meets, so it leaves a whole column
	// of the dense result non-finite. Only a dense result that is
	// non-finite while b is too is computed again, with the skip.
	scanB := len(b.data) <= len(dst.data)
	skip := scanB && hasNonFinite(b.data)
	shardRows(m, m*n*k, func(lo, hi int) { matMulRows(dst, a, b, true, skip, lo, hi) })
	if !scanB && hasNonFinite(dst.data) && hasNonFinite(b.data) {
		shardRows(m, m*n*k, func(lo, hi int) { matMulRows(dst, a, b, true, true, lo, hi) })
	}
	return dst
}

// matMulDims validates operand shapes for a (possibly transposed) matrix
// product and returns the result dims M, K (contraction), N.
func matMulDims(a, b *Tensor, ta, tb bool) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(matMulRankErr(a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if ta {
		m, k = k, m
	}
	kb, nb := b.shape[0], b.shape[1]
	if tb {
		kb, nb = nb, kb
	}
	if k != kb {
		panic(matMulDimErr(a.shape, b.shape, ta, tb))
	}
	return m, k, nb
}

// The row kernels below share one contract: every dst[i][j] starts from +0
// and accumulates its products over the contraction index in ascending
// order, and a·b and aᵀ·b skip a contraction step whose a-side factor is
// zero. That is exactly what the textbook loops do (kept as the oracles of
// TestMatMulKernelsMatchNaiveLoops), so the results are bit-identical to
// them — the kernels differ only in holding a tile of output columns in
// registers across the whole contraction, where the naive loops
// read-modify-write dst once per product.
//
// The skip only matters when b holds a NaN or ±Inf: it keeps 0·NaN and
// 0·Inf out of the sums. Against a finite b, a zero a-side factor adds a
// product of ±0, and an accumulator that starts at +0 never becomes −0
// (x + y rounds to −0 only when both are −0), so adding ±0 leaves every
// accumulator's bits unchanged and the dense loop — no data-dependent
// branch — gives the same result. matMulRows takes the skip as a flag.
// Only aᵀ·b runs dense (whenever b is finite). Measured in paired
// benchmark runs on a 2-core host, dense aᵀ·b and a·b together cut
// training and unlearning operation times 6–8 % against skipping
// everywhere, but a dense a·b gave back 2–3 % of that in training and
// slowed 8-image inference 4–6 %: the zeros of a forward patch matrix are
// mostly padding, in runs the skip's branch predicts, so there a skipped
// zero saves eight multiply-adds at almost no cost.

// hasNonFinite reports whether xs holds a NaN or ±Inf.
func hasNonFinite(xs []float64) bool {
	for _, x := range xs {
		if x-x != 0 {
			return true
		}
	}
	return false
}

// matMulRows computes output rows [lo, hi) of dst = a·b (ta false, a is
// [M,K]) or of dst = aᵀ·b (ta true, a is [K,M]) sequentially, eight output
// columns at a time. The two products differ only in how a is walked.
// skip must be set when b holds a NaN or ±Inf (see hasNonFinite).
func matMulRows(dst, a, b *Tensor, ta, skip bool, lo, hi int) {
	k, rowStep, kStep := a.shape[1], a.shape[1], 1
	if ta {
		k, rowStep, kStep = a.shape[0], 1, a.shape[1]
	}
	n := b.shape[1]
	ad, bd := a.data, b.data
	for i := lo; i < hi; i++ {
		di := dst.data[i*n : (i+1)*n]
		j := 0
		for ; j+8 <= n; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for kk, p := 0, i*rowStep; kk < k; kk, p = kk+1, p+kStep {
				v := ad[p]
				if skip && v == 0 {
					continue
				}
				bj := bd[kk*n+j : kk*n+j+8 : kk*n+j+8]
				s0 += v * bj[0]
				s1 += v * bj[1]
				s2 += v * bj[2]
				s3 += v * bj[3]
				s4 += v * bj[4]
				s5 += v * bj[5]
				s6 += v * bj[6]
				s7 += v * bj[7]
			}
			dj := di[j : j+8 : j+8]
			dj[0], dj[1], dj[2], dj[3] = s0, s1, s2, s3
			dj[4], dj[5], dj[6], dj[7] = s4, s5, s6, s7
		}
		for ; j < n; j++ {
			s := 0.0
			for kk, p := 0, i*rowStep; kk < k; kk, p = kk+1, p+kStep {
				if v := ad[p]; !skip || v != 0 {
					s += v * bd[kk*n+j]
				}
			}
			di[j] = s
		}
	}
}

// matMulNTRows computes output rows [lo, hi) of dst = a·bᵀ sequentially:
// four dot products against consecutive rows of b run side by side.
func matMulNTRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.shape[1], b.shape[0]
	bd := b.data
	for i := lo; i < hi; i++ {
		ai := a.data[i*k : (i+1)*k]
		di := dst.data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[j*k : (j+1)*k : (j+1)*k]
			b1 := bd[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := bd[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := bd[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for kk, v := range ai {
				s0 += v * b0[kk]
				s1 += v * b1[kk]
				s2 += v * b2[kk]
				s3 += v * b3[kk]
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj := bd[j*k : (j+1)*k]
			s := 0.0
			for kk, v := range ai {
				s += v * bj[kk]
			}
			di[j] = s
		}
	}
}

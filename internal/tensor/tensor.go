// Package tensor provides a dense, row-major float64 tensor with the
// numerical kernels required by the rest of the repository: elementwise
// arithmetic, matrix multiplication, im2col/col2im patch extraction, and
// axis reductions. It is deliberately minimal — no views, no strides beyond
// row-major — so that every operation has obvious copy semantics and can be
// verified in isolation.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// maxInlineRank is the rank up to which a tensor's shape is stored in the
// struct itself rather than a separate heap slice. Every tensor in this
// repository is rank ≤ 4 (NHWC maps), so shape storage is effectively free.
const maxInlineRank = 4

// Tensor is a dense row-major float64 array with an explicit shape.
// The zero value is an empty tensor; use New or the constructors below.
type Tensor struct {
	shape []int
	data  []float64
	// arena, set by Arena.Header on a header with no storage yet, is where
	// prepDst takes that storage from; nil means the heap.
	arena    *Arena
	shapeArr [maxInlineRank]int
}

// setShape copies shape into t, using the inline backing array for ranks
// up to maxInlineRank so no separate allocation is needed.
func (t *Tensor) setShape(shape []int) {
	if len(shape) <= maxInlineRank {
		t.shape = t.shapeArr[:len(shape)]
	} else {
		t.shape = make([]int, len(shape))
	}
	copy(t.shape, shape)
}

// New returns a zero-filled tensor with the given shape. All dimensions
// must be positive; a scalar is represented as shape [1].
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	t := &Tensor{data: make([]float64, n)}
	t.setShape(shape)
	return t
}

// FromSlice wraps a copy of data in a tensor of the given shape.
// It panics if len(data) does not match the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %s (want %d)", len(data), shapeStr(shape), n))
	}
	d := make([]float64, n)
	copy(d, data)
	t := &Tensor{data: d}
	t.setShape(shape)
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor { return FullInto(nil, v, shape...) }

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Randn returns a tensor with elements drawn from N(0, stddev²) using rng.
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * stddev
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneInts(t.shape) }

// ShapeString renders the shape as "[d0 d1 …]" without cloning it — the
// form diagnostics should use instead of formatting Shape() with %v.
func (t *Tensor) ShapeString() string { return shapeStr(t.shape) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. The slice is shared, not copied;
// callers that mutate it mutate the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{data: append([]float64(nil), t.data...)}
	c.setShape(t.shape)
	return c
}

// NewLike returns a zero-filled tensor with the same shape as t.
func NewLike(t *Tensor) *Tensor {
	c := &Tensor{data: make([]float64, len(t.data))}
	c.setShape(t.shape)
	return c
}

// Zero sets every element to 0 and returns t.
func (t *Tensor) Zero() *Tensor {
	for i := range t.data {
		t.data[i] = 0
	}
	return t
}

// CopyFrom overwrites t's elements with o's (shapes must match) and
// returns t.
func (t *Tensor) CopyFrom(o *Tensor) *Tensor {
	t.mustSameShape(o, "CopyFrom")
	copy(t.data, o.data)
	return t
}

// View returns a tensor with a new shape sharing t's storage (no copy).
// Mutating either tensor mutates both; callers relying on views — the
// autodiff graph in particular — must treat the storage as immutable.
// It panics if the element counts differ.
func (t *Tensor) View(shape ...int) *Tensor {
	t.mustLive("View")
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot view %v (%d elems) as %s (%d elems)", t.shape, len(t.data), shapeStr(shape), n))
	}
	v := &Tensor{data: t.data}
	v.setShape(shape)
	return v
}

// ViewInto writes a reshaped view of t (shared storage) into the
// caller-provided header dst — typically an autodiff node's inline tensor
// — and returns dst. dst must be a zero-valued header; the result
// deliberately aliases t's storage, that is the point of a view.
func ViewInto(dst, t *Tensor, shape ...int) *Tensor {
	t.mustLive("ViewInto")
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot view %v (%d elems) as %s (%d elems)", t.shape, len(t.data), shapeStr(shape), n))
	}
	if dst == nil || dst.data != nil {
		panic("tensor: ViewInto needs an empty destination header")
	}
	dst.setShape(shape)
	dst.data = t.data
	return dst
}

// ViewLikeInto is ViewInto with the shape taken from ref; like ViewInto
// the result deliberately aliases t's storage.
func ViewLikeInto(dst, t, ref *Tensor) *Tensor { return ViewInto(dst, t, ref.shape...) }

// StackInto copies src[idx[0]], src[idx[1]], … — tensors of one shape
// s — into dst of shape [len(idx), s...], in that order: a batch gathered
// from per-sample tensors. dst is prepared like an Into kernel's
// destination (a nil dst allocates) and must not alias any of them.
func StackInto(dst *Tensor, src []*Tensor, idx []int) *Tensor {
	if len(idx) == 0 {
		panic("tensor: StackInto of no tensors")
	}
	first := src[idx[0]]
	var arr [maxInlineRank]int
	dst = prepDst(dst, append(append(arr[:0], len(idx)), first.shape...), "StackInto")
	per := len(first.data)
	for bi, i := range idx {
		s := src[i]
		if !s.SameShape(first) {
			panic(fmt.Sprintf("tensor: StackInto of %v and %v", first.shape, s.shape))
		}
		mustNoAlias(dst, "StackInto", s)
		copy(dst.data[bi*per:(bi+1)*per], s.data)
	}
	return dst
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

// --- elementwise ---

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(shapeErr(op, t.shape, o.shape))
	}
}

// Add returns t + o elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor { return AddInto(nil, t, o) }

// Sub returns t - o elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor { return SubInto(nil, t, o) }

// ScaleInPlace multiplies every element by c and returns t.
func (t *Tensor) ScaleInPlace(c float64) *Tensor {
	for i := range t.data {
		t.data[i] *= c
	}
	return t
}

// AxpyInPlace computes t += alpha*o in place and returns t.
func (t *Tensor) AxpyInPlace(alpha float64, o *Tensor) *Tensor {
	t.mustSameShape(o, "AxpyInPlace")
	for i, v := range o.data {
		t.data[i] += alpha * v
	}
	return t
}

// --- reductions and broadcasting ---

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Dot returns the inner product of two same-shape tensors.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.mustSameShape(o, "Dot")
	s := 0.0
	for i, v := range t.data {
		s += v * o.data[i]
	}
	return s
}

// Norm returns the Euclidean norm of all elements.
func (t *Tensor) Norm() float64 { return math.Sqrt(t.Dot(t)) }

// ArgMaxRows treats t as [R, C] and returns the argmax column per row.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows requires a matrix, got %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bestV := 0, math.Inf(-1)
		for c := 0; c < cols; c++ {
			if v := t.data[r*cols+c]; v > bestV {
				best, bestV = c, v
			}
		}
		out[r] = best
	}
	return out
}

// incIndex advances a row-major multi-index by one position.
func incIndex(idx, shape []int) {
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < shape[i] {
			return
		}
		idx[i] = 0
	}
}

// --- helpers ---

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic("tensor: non-positive dimension in shape " + shapeStr(shape))
		}
		n *= s
	}
	return n
}

func cloneInts(s []int) []int { return append([]int(nil), s...) }

// shapeStr formats a shape like fmt's %v without forcing the slice to
// escape to the heap: the hot kernels pass stack-allocated shape scratch
// through checkShape/prepDst, and an fmt call on the panic path would
// otherwise make every call site allocate.
func shapeStr(s []int) string {
	b := make([]byte, 0, 24)
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ']')
	return string(b)
}

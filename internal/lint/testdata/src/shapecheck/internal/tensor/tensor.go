// Package tensor is a minimal stub of the real tensor package; the
// shapecheck analyzer models these functions by name and package-path
// suffix, so only the signatures matter.
package tensor

// Tensor mirrors the real row-major tensor header.
type Tensor struct{ data []float64 }

// New allocates a zeroed tensor of the given shape.
func New(shape ...int) *Tensor { _ = shape; return &Tensor{} }

// GetLike borrows a pooled tensor shaped like t.
func GetLike(t *Tensor) *Tensor { _ = t; return &Tensor{} }

// Put returns a borrowed tensor to the pool.
func Put(t *Tensor) { _ = t }

// Add accumulates o into t element-wise; shapes must match.
func (t *Tensor) Add(o *Tensor) *Tensor { _ = o; return t }

// Reshape returns a view of t with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) *Tensor { _ = shape; return t }

// AddInto writes a+b into dst.
func AddInto(dst, a, b *Tensor) *Tensor { _, _ = a, b; return dst }

// MatMulInto writes the matrix product a·b into dst.
func MatMulInto(dst, a, b *Tensor) *Tensor { _, _ = a, b; return dst }

// ReLUInto writes max(a, 0) into dst and, when mask is non-nil, its
// derivative into mask.
func ReLUInto(dst, mask, a *Tensor) *Tensor { _, _ = mask, a; return dst }

// AddBcastInto writes a+broadcast(b) into dst.
func AddBcastInto(dst, a, b *Tensor) *Tensor { _, _ = a, b; return dst }

// ViewInto points the empty header dst at t's storage under a new shape.
func ViewInto(dst, t *Tensor, shape ...int) *Tensor { _, _ = t, shape; return dst }

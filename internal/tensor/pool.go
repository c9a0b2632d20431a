package tensor

import (
	"fmt"
	"sync"
)

// Pool is a sync.Pool-backed arena of tensor buffers keyed by element
// count. It recycles the transient tensors of forward/backward passes —
// which otherwise dominate allocation in the gradient-matching hot path —
// without any global free list or locking beyond sync.Pool's own.
//
// Ownership rules (see DESIGN.md, "Pool ownership"):
//
//   - Only the caller that obtained a tensor from Get may Put it back, and
//     only once, after every reference to it (including views and autodiff
//     graph nodes holding it) is dead.
//   - Tensors held by a live autodiff graph must never be Put: graph-held
//     tensors are immutable for the graph's lifetime.
//   - Put poisons the returned tensor (its shape becomes empty), so
//     accidental use-after-Put panics on indexing rather than corrupting
//     a later borrower.
//
// The zero value is ready to use. The package-level Get/Put operate on a
// shared default pool.
type Pool struct {
	classes sync.Map // element count -> *sync.Pool of *Tensor
}

func (p *Pool) classFor(n int) *sync.Pool {
	if sp, ok := p.classes.Load(n); ok {
		return sp.(*sync.Pool)
	}
	sp, _ := p.classes.LoadOrStore(n, &sync.Pool{})
	return sp.(*sync.Pool)
}

// Get returns a zero-filled tensor of the given shape, reusing pooled
// storage of matching element count when available.
func (p *Pool) Get(shape ...int) *Tensor {
	n := checkShape(shape)
	if v := p.classFor(n).Get(); v != nil {
		t := v.(*Tensor)
		t.setShape(shape)
		t.Zero()
		return t
	}
	return New(shape...)
}

// Put recycles t's storage into the pool and poisons t against further
// use. Putting a tensor whose storage is still referenced elsewhere (a
// view, a graph node) corrupts the next borrower; see the ownership rules
// above. A nil or empty tensor is ignored.
func (p *Pool) Put(t *Tensor) {
	if t == nil || len(t.data) == 0 {
		return
	}
	// The recycled handle must not share t's inline shape array: t is
	// poisoned, and a later Get would otherwise resurrect t's storage
	// under an aliased shape.
	recycled := &Tensor{data: t.data}
	t.shape = nil
	t.data = nil
	p.classFor(len(recycled.data)).Put(recycled)
}

var defaultPool Pool

// Get returns a zero-filled tensor from the package-level pool.
func Get(shape ...int) *Tensor { return defaultPool.Get(shape...) }

// Put recycles a tensor into the package-level pool. See Pool.Put for the
// ownership rules.
func Put(t *Tensor) { defaultPool.Put(t) }

// mustLive panics if t has been poisoned by Put. It is used by methods
// whose misuse after Put would otherwise fail with a confusing index
// panic far from the cause.
func (t *Tensor) mustLive(op string) {
	if len(t.shape) == 0 {
		panic(fmt.Sprintf("tensor: %s on a tensor already returned to the pool", op))
	}
}

package autodiff

import "quickdrop/internal/tensor"

// slabChunk is the number of Value nodes per slab chunk. Chunks are never
// reallocated, so node pointers stay valid while the slab grows.
const slabChunk = 256

// Arena recycles everything one training step's graph is made of: the
// result tensors' storage (a tensor.Arena), the Value nodes themselves (a
// chunked slab) and the scratch Grad traverses with. Leaves created with
// Const and Var carry the arena, every op's result node inherits it from
// its inputs, and Reset — called once the optimizer has consumed the
// step's gradients — hands all of it to the next step. After the first
// step of a given shape, building and differentiating the graph allocates
// no nodes and no float storage.
//
// Every Value and tensor reachable from an arena's leaves dies at Reset;
// whatever must outlive the step (a loss reading, an updated parameter)
// is copied out first. A scope nested inside a step — an inference pass —
// takes a Mark and Rewinds to it, which recycles only what the scope
// built. An arena serves one goroutine. Const, Var and
// Reset accept a nil receiver, which means "no arena": leaves and their
// graphs live on the heap, owned by the garbage collector.
type Arena struct {
	bufs tensor.Arena
	slab [][]Value
	next int // nodes handed out since the last Reset
	grad gradScratch
	// firstOrder is set while FirstOrderGrad builds and differentiates a
	// graph: Conv, InstanceNorm and AvgPool then build first-order nodes.
	firstOrder bool
	// res holds FirstOrderGrad's gradient nodes between Grad and the copy
	// out of their tensors.
	res []*Value
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Const wraps a tensor as a constant leaf (no gradient flows into it)
// whose graph is built in the arena.
func (a *Arena) Const(t *tensor.Tensor) *Value {
	v := a.constNode()
	v.Data = t
	return v
}

// Var wraps a tensor as a differentiable leaf whose graph is built in the
// arena.
func (a *Arena) Var(t *tensor.Tensor) *Value {
	v := a.node()
	v.Data, v.op, v.requiresGrad = t, "var", true
	return v
}

// Tensor returns an empty tensor header whose storage, taken when a
// destination-passing kernel first fills it, comes from the arena and
// dies with the step: a step's gathered input batch or one-hot targets.
// On a nil arena the storage comes from the heap.
func (a *Arena) Tensor() *tensor.Tensor { return a.constNode().scratch() }

// FirstOrderGrad builds a scalar graph in the arena with build,
// differentiates it once with respect to wrt, stores ∂out/∂wrt[i]'s
// tensor in grads[i] and returns out's value. It panics where MustGrad
// would.
//
// While it runs, the arena is in the first-order scope: Conv,
// InstanceNorm and AvgPool on differentiable inputs each build one node
// whose forward and VJPs are direct kernels (tensor.ConvInto,
// ConvWeightGradInto, ConvInputGradInto, InstanceNormInto with saved
// statistics, InstanceNormGradInto, AvgPoolBackInto), where outside it
// they build the composite of primitives whose VJPs are themselves
// differentiable. The floats are the composite's: in a graph
// differentiated once, each patch matrix the composite builds has one
// consumer, so receives one contribution, and the kernels sum every other
// gradient in the order Grad would (DESIGN.md, "First-order training
// graph"). The VJPs of those nodes return constants, so none of their
// gradients may be differentiated again: build must not call Grad, and no
// value built inside may reach a later Grad — which the call enforces by
// returning tensors, not values. The scope closes when the call returns
// or panics. A nil arena builds a heap graph, which never enters the
// scope.
func (a *Arena) FirstOrderGrad(grads []*tensor.Tensor, wrt []*Value, build func() *Value) float64 {
	var res []*Value
	if a != nil {
		defer func(was bool) { a.firstOrder = was }(a.firstOrder)
		a.firstOrder = true
		res = append(a.res[:0], make([]*Value, len(wrt))...)
		a.res = res
	} else {
		res = make([]*Value, len(wrt))
	}
	out := build()
	if err := gradInto(res, out, wrt); err != nil {
		panic(err)
	}
	for i, g := range res {
		grads[i] = g.Data
	}
	clear(res)
	return out.Item()
}

// inScope reports whether a graph built in the arena is in the
// first-order scope; a nil arena never is.
func (a *Arena) inScope() bool { return a != nil && a.firstOrder }

// Mark is a position in an arena: the nodes and tensor storage handed out
// before it. The zero Mark is the empty arena, and the only position of a
// nil one.
type Mark struct {
	bufs tensor.Mark
	next int
}

// Mark returns the arena's current position, for a later Rewind.
func (a *Arena) Mark() Mark {
	if a == nil {
		return Mark{}
	}
	return Mark{bufs: a.bufs.Mark(), next: a.next}
}

// Rewind recycles every node and all tensor storage handed out since m,
// and leaves what was built before m live; see tensor.Arena.Rewind.
func (a *Arena) Rewind(m Mark) {
	if a == nil {
		return
	}
	a.bufs.Rewind(m.bufs)
	a.next = m.next
}

// Reset ends the step: it rewinds to the empty mark, recycling all nodes
// and tensor storage.
func (a *Arena) Reset() { a.Rewind(Mark{}) }

// PoisonOnReset is a test hook; see tensor.Arena.PoisonOnReset.
func (a *Arena) PoisonOnReset(on bool) { a.bufs.PoisonOnReset(on) }

// node returns a zeroed node tagged with the arena, from the slab — or,
// without an arena, from the heap.
func (a *Arena) node() *Value {
	if a == nil {
		return &Value{}
	}
	if a.next == len(a.slab)*slabChunk {
		a.slab = append(a.slab, make([]Value, slabChunk))
	}
	v := &a.slab[a.next/slabChunk][a.next%slabChunk]
	a.next++
	*v = Value{arena: a}
	return v
}

// header tags a node's inline tensor header so the kernel that fills it
// draws storage from the arena.
func (a *Arena) header(t *tensor.Tensor) *tensor.Tensor {
	if a == nil {
		return t
	}
	return a.bufs.Header(t)
}

// constNode returns a constant node with no Data yet: the caller either
// wraps a tensor or computes one into the node's scratch header.
func (a *Arena) constNode() *Value {
	v := a.node()
	v.op = "const"
	return v
}

// full returns a constant node of the given shape with every element x.
func (a *Arena) full(x float64, shape ...int) *Value {
	v := a.constNode()
	v.Data = tensor.FullInto(v.scratch(), x, shape...)
	return v
}

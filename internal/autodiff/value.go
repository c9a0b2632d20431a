// Package autodiff implements define-by-run reverse-mode automatic
// differentiation over tensor.Tensor values.
//
// The distinguishing property — required by QuickDrop's gradient-matching
// distillation — is support for higher-order derivatives: every primitive's
// vector-Jacobian product (VJP) is itself expressed in terms of autodiff
// primitives, so the backward pass builds a differentiable graph. Calling
// Grad on the output of a previous Grad therefore yields exact second-order
// gradients, which is what ∂d(∇θL^S, ∇θL^D)/∂S needs.
package autodiff

import (
	"fmt"

	"quickdrop/internal/tensor"
)

// Value is a node in the computation graph: an eagerly computed tensor plus
// the recipe to backpropagate through the operation that produced it.
//
// Nodes with one or two inputs — every primitive except ConcatRows — store
// them in the inline inputsArr and carry one VJP per input, so Grad asks
// only for the input gradients it needs. VJP functions receive the node
// itself, so they read their operands from it instead of capturing them:
// almost every primitive's VJP is a non-capturing func literal, which Go
// places in static storage. Building and backpropagating a node therefore
// costs one allocation for the Value and whatever the eager kernel
// allocates — and neither when the graph's leaves carry an Arena, which
// every result node inherits from its inputs.
type Value struct {
	// Data holds the node's computed tensor. It must not be mutated after
	// the node participates in a graph.
	Data *tensor.Tensor

	op     string
	inputs []*Value
	// vjp[i] maps the output gradient g to the gradient of inputs[i];
	// vjpN serves every input of a variadic node, by index.
	vjp  [2]func(n, g *Value) *Value
	vjpN func(n, g *Value, i int) *Value
	// c holds the scalar constant of constant-parameterized ops (Scale,
	// PowConst, AddConst), letting their VJPs stay non-capturing.
	c            float64
	requiresGrad bool
	// mark holds the running Grad call's traversal bits (seen, wrtNode,
	// live) for this node; it is zero outside a Grad call.
	mark uint8
	// arena is where this node and its result storage came from, and where
	// the nodes computed from it go; nil means the heap.
	arena     *Arena
	inputsArr [2]*Value
	// dataInline is the storage for Data on interior nodes: ops pass
	// &dataInline as the destination header to the Into kernels (or the
	// view constructors), so node + tensor header are one allocation.
	dataInline tensor.Tensor
}

// scratch returns the node's inline tensor header for an op to compute its
// result into, tagged with the node's arena. Valid only before the node's
// Data is set.
func (v *Value) scratch() *tensor.Tensor { return v.arena.header(&v.dataInline) }

// Const wraps a tensor as a constant leaf (no gradient flows into it) of a
// heap graph; Arena.Const is the step-scoped form.
func Const(t *tensor.Tensor) *Value { return (*Arena)(nil).Const(t) }

// Var wraps a tensor as a differentiable leaf of a heap graph; Arena.Var
// is the step-scoped form.
func Var(t *tensor.Tensor) *Value { return (*Arena)(nil).Var(t) }

// Scalar returns a constant scalar node of shape [1].
func Scalar(v float64) *Value {
	return Const(tensor.FromSlice([]float64{v}, 1))
}

// Arena returns the arena the node was built in (nil: the heap), where a
// constant leaf joining its graph belongs.
func (v *Value) Arena() *Arena { return v.arena }

// RequiresGrad reports whether gradients flow into this node.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// Op returns the name of the operation that produced this node.
func (v *Value) Op() string { return v.op }

// Shape returns the shape of the node's tensor.
func (v *Value) Shape() []int { return v.Data.Shape() }

// Item returns the single element of a scalar node.
func (v *Value) Item() float64 {
	if v.Data.Len() != 1 {
		panic(fmt.Sprintf("autodiff: Item on non-scalar %s", v.Data.ShapeString()))
	}
	return v.Data.Data()[0]
}

// newNode1 constructs a one-input interior node. requiresGrad is inherited
// from the input; constant subgraphs collapse to leaves so the backward
// traversal never visits them.
func newNode1(op string, data *tensor.Tensor, a *Value, vjp func(n, g *Value) *Value) *Value {
	v := a.arena.node()
	v.Data, v.op = data, op
	if !a.requiresGrad {
		return v
	}
	v.vjp[0], v.requiresGrad = vjp, true
	v.inputsArr[0] = a
	v.inputs = v.inputsArr[:1]
	return v
}

// newNode1c is newNode1 for ops parameterized by a scalar constant.
func newNode1c(op string, data *tensor.Tensor, a *Value, c float64, vjp func(n, g *Value) *Value) *Value {
	v := newNode1(op, data, a, vjp)
	v.c = c
	return v
}

// newNode2 constructs a two-input interior node; see newNode1. vjpA and
// vjpB return the gradients of a and b.
func newNode2(op string, data *tensor.Tensor, a, b *Value, vjpA, vjpB func(n, g *Value) *Value) *Value {
	ar := a.arena
	if ar == nil {
		ar = b.arena
	}
	v := ar.node()
	v.Data, v.op = data, op
	if !a.requiresGrad && !b.requiresGrad {
		return v
	}
	v.vjp, v.requiresGrad = [2]func(n, g *Value) *Value{vjpA, vjpB}, true
	v.inputsArr[0], v.inputsArr[1] = a, b
	v.inputs = v.inputsArr[:2]
	return v
}

// newNodeN constructs a variadic-input interior node (ConcatRows).
func newNodeN(op string, data *tensor.Tensor, inputs []*Value, vjp func(n, g *Value, i int) *Value) *Value {
	var ar *Arena
	rg := false
	for _, in := range inputs {
		if ar == nil {
			ar = in.arena
		}
		rg = rg || in.requiresGrad
	}
	v := ar.node()
	v.Data, v.op = data, op
	if rg {
		v.inputs, v.vjpN, v.requiresGrad = inputs, vjp, true
	}
	return v
}

// Grad computes ∂out/∂wrt[i] for a scalar-valued out. The returned values
// are themselves graph nodes, so they can be differentiated again
// (higher-order gradients). Inputs that out does not depend on receive a
// zero gradient of matching shape.
//
// Grad differentiates only the live set: the nodes between out and some
// wrt. A node outside it gets no VJP call, and a two-input node's VJP is
// asked only for its live inputs' gradients. Every consumer of a live node
// is itself live, so each live node receives the same contributions in the
// same order as in a sweep that differentiates everything — the results
// are bit-identical, minus the gradients no caller reads.
func Grad(out *Value, wrt []*Value) ([]*Value, error) {
	if out.Data.Len() != 1 {
		return nil, fmt.Errorf("autodiff: Grad requires a scalar output, got shape %s", out.Data.ShapeString())
	}
	if !out.requiresGrad {
		zs := make([]*Value, len(wrt))
		for i, w := range wrt {
			zs[i] = Const(tensor.NewLike(w.Data))
		}
		return zs, nil
	}

	// Topological order of the subgraph reachable from out that requires
	// gradient, via iterative DFS (models can be deep), with the live set
	// marked on the way.
	sc := out.arena.gradScratch()
	defer sc.clear(wrt)
	order := sc.topoOrder(out, wrt)

	grads := sc.grads
	grads[out] = out.arena.full(1, 1)

	// Traverse in reverse topological order, accumulating VJPs. Only live
	// nodes ever receive a gradient.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		g, ok := grads[n]
		if !ok {
			continue
		}
		for j, in := range n.inputs {
			if in.mark&live == 0 {
				continue
			}
			var ig *Value
			if n.vjpN != nil {
				ig = n.vjpN(n, g, j)
			} else {
				ig = n.vjp[j](n, g)
			}
			if err := accumulate(grads, n, in, ig); err != nil {
				return nil, err
			}
		}
	}

	res := make([]*Value, len(wrt))
	for i, w := range wrt {
		if g, ok := grads[w]; ok {
			res[i] = g
		} else {
			res[i] = Const(tensor.NewLike(w.Data))
		}
	}
	return res, nil
}

// accumulate folds one input gradient into the running per-node gradient
// map, validating its shape against the input.
func accumulate(grads map[*Value]*Value, n, in *Value, ig *Value) error {
	if !ig.Data.SameShape(in.Data) {
		return fmt.Errorf("autodiff: op %q produced gradient shape %s for input shape %s", n.op, ig.Data.ShapeString(), in.Data.ShapeString())
	}
	if acc, ok := grads[in]; ok {
		grads[in] = Add(acc, ig)
	} else {
		grads[in] = ig
	}
	return nil
}

// MustGrad is Grad but panics on error; convenient inside training loops
// where the graph shape is fixed and an error indicates a programming bug.
func MustGrad(out *Value, wrt []*Value) []*Value {
	gs, err := Grad(out, wrt)
	if err != nil {
		panic(err)
	}
	return gs
}

// gradScratch is the working state of one Grad call: the per-node gradient
// map and the topological sort's order and DFS stack. A graph built in an
// arena borrows the arena's, so a step's Grad calls share one map and two
// slices instead of allocating them per call. The per-node traversal bits
// live on the nodes (Value.mark), and clear resets them; a graph is
// therefore differentiated by one goroutine at a time, as an arena is used
// by one.
type gradScratch struct {
	grads map[*Value]*Value
	order []*Value
	stack []dfsFrame
}

// Bits of Value.mark.
const (
	seen    uint8 = 1 << iota // reached by the DFS
	wrtNode                   // one of Grad's wrt
	live                      // depends on some wrt
)

type dfsFrame struct {
	node *Value
	next int
	live bool // the node is a wrt, or one of its inputs so far is live
}

// gradScratch returns empty scratch for a Grad call; the caller clears it
// when done.
func (a *Arena) gradScratch() *gradScratch {
	if a == nil {
		return &gradScratch{grads: make(map[*Value]*Value)}
	}
	if a.grad.grads == nil {
		a.grad.grads = make(map[*Value]*Value)
	}
	return &a.grad
}

// clear empties the scratch and zeroes the marks of the call's nodes:
// every node the traversal marked is in order, or one of wrt.
func (s *gradScratch) clear(wrt []*Value) {
	for _, n := range s.order {
		n.mark = 0
	}
	for _, w := range wrt {
		if w.requiresGrad {
			w.mark = 0
		}
	}
	clear(s.grads)
	s.order, s.stack = s.order[:0], s.stack[:0]
}

// topoOrder returns nodes reachable from root that require gradients, in
// topological order (inputs before outputs), and marks live the ones that
// depend on some wrt. A node's inputs all finish before it does, so its
// liveness is settled when it leaves the stack.
func (s *gradScratch) topoOrder(root *Value, wrt []*Value) []*Value {
	for _, w := range wrt {
		if w.requiresGrad {
			w.mark = wrtNode
		}
	}
	root.mark |= seen
	s.stack = append(s.stack, dfsFrame{node: root, live: root.mark&wrtNode != 0})
	for len(s.stack) > 0 {
		f := &s.stack[len(s.stack)-1]
		if f.next < len(f.node.inputs) {
			in := f.node.inputs[f.next]
			f.next++
			if !in.requiresGrad {
				continue
			}
			switch {
			case in.mark&seen == 0:
				in.mark |= seen
				s.stack = append(s.stack, dfsFrame{node: in, live: in.mark&wrtNode != 0})
			case in.mark&live != 0:
				f.live = true
			}
			continue
		}
		n, isLive := f.node, f.live
		s.stack = s.stack[:len(s.stack)-1]
		if isLive {
			n.mark |= live
			if len(s.stack) > 0 {
				s.stack[len(s.stack)-1].live = true
			}
		}
		s.order = append(s.order, n)
	}
	return s.order
}

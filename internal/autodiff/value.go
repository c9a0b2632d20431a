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
// them in the inline inputsArr and return their input gradients as plain
// multiple return values. VJP functions receive the node itself, so they
// read their operands from it instead of capturing them: almost every
// primitive's VJP is a non-capturing func literal, which Go places in
// static storage. Building and backpropagating a node therefore costs one
// allocation for the Value and whatever the eager kernel allocates — and
// neither when the graph's leaves carry an Arena, which every result node
// inherits from its inputs.
type Value struct {
	// Data holds the node's computed tensor. It must not be mutated after
	// the node participates in a graph.
	Data *tensor.Tensor

	op     string
	inputs []*Value
	vjp1   func(n, g *Value) *Value
	vjp2   func(n, g *Value) (*Value, *Value)
	vjpN   func(n, g *Value) []*Value
	// c holds the scalar constant of constant-parameterized ops (Scale,
	// PowConst, AddConst), letting their VJPs stay non-capturing.
	c            float64
	requiresGrad bool
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
	v.vjp1, v.requiresGrad = vjp, true
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

// newNode2 constructs a two-input interior node; see newNode1.
func newNode2(op string, data *tensor.Tensor, a, b *Value, vjp func(n, g *Value) (*Value, *Value)) *Value {
	ar := a.arena
	if ar == nil {
		ar = b.arena
	}
	v := ar.node()
	v.Data, v.op = data, op
	if !a.requiresGrad && !b.requiresGrad {
		return v
	}
	v.vjp2, v.requiresGrad = vjp, true
	v.inputsArr[0], v.inputsArr[1] = a, b
	v.inputs = v.inputsArr[:2]
	return v
}

// newNodeN constructs a variadic-input interior node (ConcatRows).
func newNodeN(op string, data *tensor.Tensor, inputs []*Value, vjp func(n, g *Value) []*Value) *Value {
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
	// gradient, via iterative DFS (models can be deep).
	sc := out.arena.gradScratch()
	defer sc.clear()
	order := sc.topoOrder(out)

	grads := sc.grads
	grads[out] = out.arena.full(1, 1)

	// Traverse in reverse topological order, accumulating VJPs.
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		g, ok := grads[n]
		if !ok {
			continue
		}
		var err error
		switch {
		case n.vjp1 != nil:
			err = accumulate(grads, n, n.inputs[0], n.vjp1(n, g))
		case n.vjp2 != nil:
			ga, gb := n.vjp2(n, g)
			if err = accumulate(grads, n, n.inputs[0], ga); err == nil {
				err = accumulate(grads, n, n.inputs[1], gb)
			}
		case n.vjpN != nil:
			inGrads := n.vjpN(n, g)
			if len(inGrads) != len(n.inputs) {
				return nil, fmt.Errorf("autodiff: op %q returned %d gradients for %d inputs", n.op, len(inGrads), len(n.inputs))
			}
			for j, in := range n.inputs {
				if err = accumulate(grads, n, in, inGrads[j]); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, err
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
	if ig == nil || !in.requiresGrad {
		return nil
	}
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
// map and the topological sort's visited set, order and DFS stack. A graph
// built in an arena borrows the arena's, so a step's Grad calls share one
// set of maps and slices instead of allocating them per call.
type gradScratch struct {
	grads   map[*Value]*Value
	visited map[*Value]bool
	order   []*Value
	stack   []dfsFrame
}

type dfsFrame struct {
	node *Value
	next int
}

// gradScratch returns empty scratch for a Grad call; the caller clears it
// when done.
func (a *Arena) gradScratch() *gradScratch {
	if a == nil {
		return &gradScratch{grads: make(map[*Value]*Value), visited: make(map[*Value]bool)}
	}
	if a.grad.grads == nil {
		a.grad.grads = make(map[*Value]*Value)
		a.grad.visited = make(map[*Value]bool)
	}
	return &a.grad
}

func (s *gradScratch) clear() {
	clear(s.grads)
	clear(s.visited)
	s.order, s.stack = s.order[:0], s.stack[:0]
}

// topoOrder returns nodes reachable from root that require gradients, in
// topological order (inputs before outputs).
func (s *gradScratch) topoOrder(root *Value) []*Value {
	s.stack = append(s.stack, dfsFrame{node: root})
	s.visited[root] = true
	for len(s.stack) > 0 {
		f := &s.stack[len(s.stack)-1]
		if f.next < len(f.node.inputs) {
			in := f.node.inputs[f.next]
			f.next++
			if !s.visited[in] && in.requiresGrad {
				s.visited[in] = true
				s.stack = append(s.stack, dfsFrame{node: in})
			}
			continue
		}
		s.order = append(s.order, f.node)
		s.stack = s.stack[:len(s.stack)-1]
	}
	return s.order
}

// Package nn builds neural networks on top of the autodiff engine: layers,
// the ConvNet architecture used throughout the QuickDrop paper
// ([W, InstanceNorm, ReLU, AvgPool] × D followed by a linear classifier),
// the softmax cross-entropy loss, and parameter plumbing (flattening,
// cloning, serialization) needed by federated averaging.
package nn

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

// Param is a named, trainable tensor owned by a model. The tensor is the
// master copy: optimizers mutate it in place, and each forward pass binds
// it into the graph as a fresh autodiff variable.
type Param struct {
	Name string
	Data *tensor.Tensor
}

// Layer is one stage of a feed-forward network. Forward consumes the
// layer's bound parameter variables in the order returned by Params.
type Layer interface {
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// Forward applies the layer. ps holds one bound variable per Param,
	// in the same order.
	Forward(x *ad.Value, ps []*ad.Value) *ad.Value
}

// Model is an ordered stack of layers.
type Model struct {
	layers []Layer
	params []*Param
	// ends[i] is where layer i's parameters end in params, so a forward
	// pass slices its bound variables without asking a layer for its
	// Params, which builds a slice.
	ends []int
	// arena recycles the graph of every training step bound from this
	// model; see Arena.
	arena *ad.Arena
	// InputShape is the per-sample input shape [H, W, C].
	InputShape []int
	// Classes is the size of the output layer.
	Classes int
}

// NewModel assembles a model from layers. inputShape is [H, W, C].
func NewModel(inputShape []int, classes int, layers ...Layer) *Model {
	m := &Model{layers: layers, arena: ad.NewArena(), InputShape: append([]int(nil), inputShape...), Classes: classes}
	for _, l := range layers {
		m.params = append(m.params, l.Params()...)
		m.ends = append(m.ends, len(m.params))
	}
	return m
}

// Params returns all trainable parameters in layer order.
func (m *Model) Params() []*Param { return m.params }

// Arena returns the model's step arena: the allocator behind every graph
// that starts at BindStep, at BindFrozen or at an input leaf made with
// Arena().Const / Var. One optimizer step is its unit of lifetime — bind,
// forward, backward, apply the gradients, then Arena().Reset(), after
// which every value and tensor of that step is dead and its memory serves
// the next step. Whoever takes leaves from the arena owes the Reset:
// without one the graphs accumulate until the model is garbage. Inference
// (Logits, Predict, ForwardLayers) runs here too, between a Mark and the
// Rewind to it, so it leaves the arena where it found it, mid-step
// included. The model's goroutine owns the arena; models never share one.
func (m *Model) Arena() *ad.Arena { return m.arena }

// DetachArena drops the model's arena, so that BindStep, BindFrozen and
// inference graphs too live on the heap. It exists for the tests that pin
// the arena-backed paths bitwise against the allocation path they
// replaced.
func (m *Model) DetachArena() { m.arena = nil }

// Layers returns the model's layer stack. Callers must treat it as
// read-only; it is exposed for structural methods such as FU-MP's
// channel pruning, which needs to locate convolution layers.
func (m *Model) Layers() []Layer { return m.layers }

// ForwardLayers runs only the first n layers on x with frozen parameters
// and returns a copy of the intermediate activation — used to probe
// channel activations for model-pruning baselines.
func (m *Model) ForwardLayers(x *tensor.Tensor, n int) *tensor.Tensor {
	defer m.arena.Rewind(m.arena.Mark())
	return m.infer(x, n).Clone()
}

// NumParams returns the total number of scalar parameters.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.Data.Len()
	}
	return n
}

// ParamNames returns the parameter names in layer order — the labels
// the numerics health monitor binds its per-layer series to.
func (m *Model) ParamNames() []string {
	out := make([]string, len(m.params))
	for i, p := range m.params {
		out[i] = p.Name
	}
	return out
}

// ParamTensors returns the live parameter tensors (shared storage).
func (m *Model) ParamTensors() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(m.params))
	for i, p := range m.params {
		out[i] = p.Data
	}
	return out
}

// CloneParams returns deep copies of the current parameter tensors.
func (m *Model) CloneParams() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(m.params))
	for i, p := range m.params {
		out[i] = p.Data.Clone()
	}
	return out
}

// SetParams overwrites the model's parameters with copies of src.
func (m *Model) SetParams(src []*tensor.Tensor) {
	if len(src) != len(m.params) {
		panic(fmt.Sprintf("nn: SetParams got %d tensors for %d params", len(src), len(m.params)))
	}
	for i, p := range m.params {
		if !p.Data.SameShape(src[i]) {
			panic(fmt.Sprintf("nn: SetParams shape mismatch at %q: %s vs %s", p.Name, p.Data.ShapeString(), src[i].ShapeString()))
		}
		copy(p.Data.Data(), src[i].Data())
	}
}

// Bound is a model with its parameters bound into an autodiff graph for
// one forward/backward episode.
type Bound struct {
	model *Model
	vars  []*ad.Value
}

// Bind wraps the current parameter tensors as differentiable variables.
// The returned Bound shares no graph with previous episodes; its graph
// lives on the heap and belongs to the garbage collector, so it may be
// kept as long as needed. It is the only bind that builds a heap graph;
// training loops use BindStep instead.
func (m *Model) Bind() *Bound { return m.bind(nil, false) }

// BindStep is Bind for one optimization step: the variables, and with
// them everything computed from them, live in the model's step arena and
// die at the next Arena().Reset(), which the caller owes once the step's
// gradients are applied.
func (m *Model) BindStep() *Bound { return m.bind(m.arena, false) }

// bind wraps the parameters as leaves of arena a (nil: the heap),
// constant when frozen.
func (m *Model) bind(a *ad.Arena, frozen bool) *Bound {
	vars := make([]*ad.Value, len(m.params))
	for i, p := range m.params {
		if frozen {
			vars[i] = a.Const(p.Data)
		} else {
			vars[i] = a.Var(p.Data)
		}
	}
	return &Bound{model: m, vars: vars}
}

// BindFrozen wraps the parameters as constants of the model's arena, for
// graphs whose gradients never reach the parameters: inference, and the
// embeddings distribution matching differentiates with respect to its
// input. Like BindStep's, the graph dies at the next Arena().Reset() or at
// the Rewind to a mark taken before it, which the caller owes.
func (m *Model) BindFrozen() *Bound { return m.bind(m.arena, true) }

// ParamVars returns the bound parameter variables, aligned with
// Model.Params.
func (b *Bound) ParamVars() []*ad.Value { return b.vars }

// Forward runs the full stack on a batch x of shape [B, H, W, C] (or
// [B, features] for purely dense models) and returns the logits.
func (b *Bound) Forward(x *ad.Value) *ad.Value {
	return b.ForwardUpTo(x, len(b.model.layers))
}

// ForwardUpTo runs only the first n layers, returning the intermediate
// activation as a differentiable value — the embedding hook used by
// distribution-matching distillation.
func (b *Bound) ForwardUpTo(x *ad.Value, n int) *ad.Value {
	if n < 0 || n > len(b.model.layers) {
		panic(fmt.Sprintf("nn: ForwardUpTo n=%d out of range [0,%d]", n, len(b.model.layers)))
	}
	off := 0
	for i, l := range b.model.layers[:n] {
		end := b.model.ends[i]
		x = l.Forward(x, b.vars[off:end])
		off = end
	}
	return x
}

// Logits runs the model on the raw batch x with frozen parameters and
// returns a copy of the [B, classes] logits.
func (m *Model) Logits(x *tensor.Tensor) *tensor.Tensor {
	defer m.arena.Rewind(m.arena.Mark())
	return m.infer(x, len(m.layers)).Clone()
}

// Predict returns the argmax class per sample.
func (m *Model) Predict(x *tensor.Tensor) []int {
	defer m.arena.Rewind(m.arena.Mark())
	return m.infer(x, len(m.layers)).ArgMaxRows()
}

// infer runs the first n layers on x with frozen parameters, in the
// model's arena, and returns the activation, which lives there. Its
// callers mark the arena on entry (a deferred call's arguments are
// evaluated when it is deferred) and rewind to that mark on the way out,
// after copying out what they return: the rewind releases this pass's
// graph and nothing older, so inference between a step's forward and its
// backward leaves the step intact, and the next call reuses the memory.
func (m *Model) infer(x *tensor.Tensor, n int) *tensor.Tensor {
	return m.BindFrozen().ForwardUpTo(m.arena.Const(x), n).Data
}

// WriteTo serializes all parameter tensors in order.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, p := range m.params {
		k, err := p.Data.WriteTo(w)
		n += k
		if err != nil {
			return n, fmt.Errorf("nn: write param %q: %w", p.Name, err)
		}
	}
	return n, nil
}

// LoadFrom restores parameters serialized by WriteTo into the model.
// The model must have been constructed with the same architecture.
func (m *Model) LoadFrom(r io.Reader) error {
	for _, p := range m.params {
		t, err := tensor.ReadFrom(r)
		if err != nil {
			return fmt.Errorf("nn: read param %q: %w", p.Name, err)
		}
		if !t.SameShape(p.Data) {
			return fmt.Errorf("nn: param %q shape %s does not match stored %s", p.Name, p.Data.ShapeString(), t.ShapeString())
		}
		copy(p.Data.Data(), t.Data())
	}
	return nil
}

// heInit fills weights with He-normal initialization for fan-in.
func heInit(rng *rand.Rand, fanIn int, shape ...int) *tensor.Tensor {
	return tensor.Randn(rng, math.Sqrt(2/float64(fanIn)), shape...)
}

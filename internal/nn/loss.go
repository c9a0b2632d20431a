package nn

import (
	"fmt"
	"math"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

// OneHot encodes integer labels as a [B, classes] matrix.
func OneHot(labels []int, classes int) *tensor.Tensor { return OneHotInto(nil, labels, classes) }

// OneHotInto is the destination-passing form of OneHot: dst is prepared
// like an Into kernel's (a nil dst allocates, an arena's header takes its
// storage there), so a step's targets can live in its arena.
func OneHotInto(dst *tensor.Tensor, labels []int, classes int) *tensor.Tensor {
	t := tensor.FullInto(dst, 0, len(labels), classes)
	for i, y := range labels {
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		t.Data()[i*classes+y] = 1
	}
	return t
}

// CrossEntropy returns the mean softmax cross-entropy between logits
// [B, C] and a one-hot target matrix of the same shape, as a scalar node.
// The log-sum-exp is stabilized by subtracting the detached row-wise max.
func CrossEntropy(logits *ad.Value, oneHot *tensor.Tensor) *ad.Value {
	if logits.Data.Dims() != 2 || !oneHot.SameShape(logits.Data) {
		panic(fmt.Sprintf("nn: CrossEntropy logits %s vs targets %s", logits.Data.ShapeString(), oneHot.ShapeString()))
	}
	b := logits.Data.Dim(0)

	// Row-wise max as a constant: shifting by a constant leaves both the
	// loss value and its gradients unchanged, so detaching is exact.
	shifted := ad.SubBcast(logits, ad.RowMax(logits))

	// lse_i = log Σ_j exp(z_ij), shape [B,1].
	lse := ad.Log(ad.SumAxes(ad.Exp(shifted), 1))
	// picked_i = Σ_j z_ij · onehot_ij, shape [B,1], with the product
	// reduced in one fused pass.
	picked := ad.MulSum(shifted, logits.Arena().Const(oneHot), 1)
	perSample := ad.Sub(lse, picked)
	return ad.Scale(ad.SumAll(perSample), 1/float64(b))
}

// LossGrads runs one supervised forward and backward pass in the model's
// step arena: it binds the parameters, takes the mean cross-entropy of the
// batch x against labels, stores ∂loss/∂θ in grads (aligned with Params)
// and returns the loss. The graph is differentiated once, so it is built
// in the arena's first-order scope (autodiff.Arena.FirstOrderGrad): each
// conv, norm and pooling layer is one node with direct-kernel gradients,
// the floats of the graph Bind builds. The gradient tensors, and the
// one-hot targets, belong to the step: apply them, then call
// Arena().Reset().
func (m *Model) LossGrads(grads []*tensor.Tensor, x *tensor.Tensor, labels []int) float64 {
	bound := m.BindStep()
	targets := OneHotInto(m.arena.Tensor(), labels, m.Classes)
	return m.arena.FirstOrderGrad(grads, bound.ParamVars(), func() *ad.Value {
		return CrossEntropy(bound.Forward(m.arena.Const(x)), targets)
	})
}

// Softmax returns row-wise softmax probabilities for a logits tensor.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("nn: Softmax expects a matrix, got %s", logits.ShapeString()))
	}
	b, c := logits.Dim(0), logits.Dim(1)
	out := logits.Clone()
	d := out.Data()
	for i := 0; i < b; i++ {
		row := d[i*c : (i+1)*c]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := expStable(v - m)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return out
}

func expStable(x float64) float64 {
	// exp on already max-shifted values; guard against -inf underflow noise.
	if x < -700 {
		return 0
	}
	return math.Exp(x)
}

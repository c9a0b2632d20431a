package nn

import (
	"math/rand"
	"testing"

	ad "quickdrop/internal/autodiff"
	"quickdrop/internal/tensor"
)

func TestInstanceNormGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := NewInstanceNorm("n", 2)
	x := tensor.Randn(rng, 1, 1, 3, 3, 2)
	gamma := tensor.ApplyInto(nil, tensor.Randn(rng, 0.5, 2), func(v float64) float64 { return v + 1 })
	beta := tensor.Randn(rng, 0.5, 2)
	err := ad.CheckGradient(func(xs []*ad.Value) *ad.Value {
		y := n.Forward(xs[0], []*ad.Value{xs[1], xs[2]})
		return ad.SumAll(ad.Mul(y, y))
	}, []*tensor.Tensor{x, gamma, beta}, 1e-5, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
}

func TestInstanceNormShapeValidation(t *testing.T) {
	n := NewInstanceNorm("n", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on channel mismatch")
		}
	}()
	ps := []*ad.Value{ad.Const(tensor.Ones(4)), ad.Const(tensor.New(4))}
	n.Forward(ad.Const(tensor.New(1, 2, 2, 3)), ps)
}

package optim

import (
	"math"
	"testing"

	"quickdrop/internal/tensor"
)

// quadGrad is the gradient of f(x) = (x-3)².
func quadGrad(x *tensor.Tensor) []*tensor.Tensor {
	return []*tensor.Tensor{tensor.FromSlice([]float64{2 * (x.Data()[0] - 3)}, 1)}
}

func TestMomentumConvergesFasterThanSGDOnQuadratic(t *testing.T) {
	run := func(opt Optimizer) int {
		x := tensor.FromSlice([]float64{0}, 1)
		for i := 0; i < 500; i++ {
			if math.Abs(x.Data()[0]-3) < 1e-6 {
				return i
			}
			opt.Step([]*tensor.Tensor{x}, quadGrad(x))
		}
		return 500
	}
	sgdSteps := run(NewSGD(0.05))
	momSteps := run(NewMomentum(0.05, 0.8))
	if momSteps >= sgdSteps {
		t.Fatalf("momentum (%d steps) should beat plain SGD (%d steps)", momSteps, sgdSteps)
	}
}

func TestMomentumAscends(t *testing.T) {
	m := NewMomentum(0.1, 0.9)
	m.Dir = Ascend
	// A matrix parameter: the velocity must take the parameter's shape,
	// not only its length.
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	g := tensor.FromSlice([]float64{2, 2}, 1, 2)
	m.Step([]*tensor.Tensor{x}, []*tensor.Tensor{g})
	for _, v := range x.Data() {
		if v <= 1 {
			t.Fatalf("ascent must increase the parameter, got %v", x.Data())
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	a := NewAdam(0.2)
	x := tensor.FromSlice([]float64{0}, 1)
	for i := 0; i < 400; i++ {
		a.Step([]*tensor.Tensor{x}, quadGrad(x))
	}
	if math.Abs(x.Data()[0]-3) > 1e-3 {
		t.Fatalf("Adam converged to %g, want 3", x.Data()[0])
	}
	if a.Steps != 400 {
		t.Fatalf("Steps = %d", a.Steps)
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ≈ LR.
	// A matrix parameter, so the moments must take its shape.
	a := NewAdam(0.1)
	x := tensor.FromSlice([]float64{0, 0}, 1, 2)
	g := tensor.FromSlice([]float64{123, -7}, 1, 2)
	a.Step([]*tensor.Tensor{x}, []*tensor.Tensor{g})
	for _, v := range x.Data() {
		if math.Abs(math.Abs(v)-0.1) > 1e-6 {
			t.Fatalf("first Adam step = %v, want ≈0.1 per element", x.Data())
		}
	}
}

func TestOptimizersValidateLengths(t *testing.T) {
	for _, opt := range []Optimizer{NewMomentum(0.1, 0.9), NewAdam(0.1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			opt.Step([]*tensor.Tensor{tensor.New(1)}, nil)
		}()
	}
}

func TestSchedules(t *testing.T) {
	c := ConstantLR(0.5)
	if c(0) != 0.5 || c(100) != 0.5 {
		t.Fatal("ConstantLR must be constant")
	}
	s := StepDecay(1.0, 0.5, 10)
	if s(0) != 1.0 || s(9) != 1.0 || s(10) != 0.5 || s(20) != 0.25 {
		t.Fatalf("StepDecay wrong: %g %g %g", s(9), s(10), s(20))
	}
	cos := CosineDecay(1.0, 0.1, 100)
	if math.Abs(cos(0)-1.0) > 1e-12 {
		t.Fatalf("cosine start = %g", cos(0))
	}
	if math.Abs(cos(100)-0.1) > 1e-12 || math.Abs(cos(200)-0.1) > 1e-12 {
		t.Fatal("cosine must settle at the floor")
	}
	if !(cos(25) > cos(50) && cos(50) > cos(75)) {
		t.Fatal("cosine must decrease monotonically")
	}
}

func TestScheduleValidation(t *testing.T) {
	for _, f := range []func(){
		func() { StepDecay(1, 0.5, 0) },
		func() { CosineDecay(1, 0, 0) },
		func() { ClipGradNorm(nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestClipGradNorm(t *testing.T) {
	g := []*tensor.Tensor{tensor.FromSlice([]float64{3, 4}, 2)} // norm 5
	pre := ClipGradNorm(g, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %g", pre)
	}
	post := math.Hypot(g[0].Data()[0], g[0].Data()[1])
	if math.Abs(post-1) > 1e-12 {
		t.Fatalf("post-clip norm = %g, want 1", post)
	}
	// Already-small gradients are untouched.
	g2 := []*tensor.Tensor{tensor.FromSlice([]float64{0.1}, 1)}
	ClipGradNorm(g2, 1)
	if g2[0].Data()[0] != 0.1 {
		t.Fatal("small gradient must not be scaled")
	}
}

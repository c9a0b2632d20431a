package optim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"quickdrop/internal/tensor"
)

func TestSGDDescends(t *testing.T) {
	p := tensor.FromSlice([]float64{1, 2}, 2)
	g := tensor.FromSlice([]float64{10, -10}, 2)
	s := NewSGD(0.1)
	s.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if p.Data()[0] != 0 || p.Data()[1] != 3 {
		t.Fatalf("params = %v", p.Data())
	}
	if s.Steps != 1 {
		t.Fatalf("Steps = %d", s.Steps)
	}
}

func TestSGAAscends(t *testing.T) {
	p := tensor.FromSlice([]float64{1}, 1)
	g := tensor.FromSlice([]float64{5}, 1)
	(&SGD{LR: 0.1, Dir: Ascend}).Step([]*tensor.Tensor{p}, []*tensor.Tensor{g})
	if math.Abs(p.Data()[0]-1.5) > 1e-12 {
		t.Fatalf("param = %g, want 1.5", p.Data()[0])
	}
}

// Property: ascent with rate η equals descent with rate −η (Algorithm 1's
// unlearn phase is sign-flipped SGD).
func TestAscentIsNegatedDescent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p1 := tensor.Randn(r, 1, 4)
		p2 := p1.Clone()
		g := tensor.Randn(r, 1, 4)
		(&SGD{LR: 0.05, Dir: Ascend}).Step([]*tensor.Tensor{p1}, []*tensor.Tensor{g})
		(&SGD{LR: -0.05}).Step([]*tensor.Tensor{p2}, []*tensor.Tensor{g})
		for i := range p1.Data() {
			if math.Abs(p1.Data()[i]-p2.Data()[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStepValidatesLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSGD(0.1).Step([]*tensor.Tensor{tensor.New(1)}, nil)
}

func TestSGDQuadraticConvergence(t *testing.T) {
	// Minimize f(x) = (x-3)² by hand-computed gradients.
	x := tensor.FromSlice([]float64{0}, 1)
	s := NewSGD(0.1)
	for i := 0; i < 100; i++ {
		g := tensor.FromSlice([]float64{2 * (x.Data()[0] - 3)}, 1)
		s.Step([]*tensor.Tensor{x}, []*tensor.Tensor{g})
	}
	if math.Abs(x.Data()[0]-3) > 1e-6 {
		t.Fatalf("converged to %g, want 3", x.Data()[0])
	}
}

func TestDirectionString(t *testing.T) {
	if Descend.String() != "descend" || Ascend.String() != "ascend" {
		t.Fatal("bad Direction strings")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Fatal("bad unknown Direction string")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.AddBatch(32)
	c.AddBatch(16)
	if c.GradEvals != 48 || c.SamplesTouched != 48 {
		t.Fatalf("counter = %+v", c)
	}
	var total Counter
	total.Add(c)
	total.Add(c)
	if total.GradEvals != 96 {
		t.Fatalf("merged = %+v", total)
	}
}

// Package optim provides the stochastic gradient optimizers used by
// federated training, unlearning (gradient ascent) and recovery, together
// with the gradient-computation accounting that QuickDrop's efficiency
// tables are built from.
package optim

import (
	"fmt"

	"quickdrop/internal/telemetry/health"
	"quickdrop/internal/tensor"
)

// Direction selects whether SGD descends (training, recovery, relearning)
// or ascends (unlearning) the loss surface. The paper's Algorithm 1 is
// exactly SGD with the sign flipped during the unlearn phase.
type Direction int

const (
	// Descend minimizes the loss (θ ← θ − η∇L).
	Descend Direction = iota
	// Ascend maximizes the loss (θ ← θ + η∇L), used for unlearning.
	Ascend
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Descend:
		return "descend"
	case Ascend:
		return "ascend"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// SGD is plain stochastic gradient descent/ascent.
type SGD struct {
	// LR is the learning rate η.
	LR float64
	// Dir selects descent or ascent.
	Dir Direction
	// Steps counts parameter updates performed.
	Steps int
	// Health, when set, receives sampled per-layer gradient norms and
	// update/param ratios from Step. Read-only observation: the update
	// itself is bitwise identical with or without a monitor.
	Health *health.Monitor
}

// NewSGD returns a descending SGD optimizer.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step applies one update to params given aligned gradients, in place.
func (s *SGD) Step(params, grads []*tensor.Tensor) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("optim: %d params but %d grads", len(params), len(grads)))
	}
	alpha := -s.LR
	if s.Dir == Ascend {
		alpha = s.LR
	}
	for i, p := range params {
		p.AxpyInPlace(alpha, grads[i])
	}
	s.Steps++
	if s.Health.Sample() {
		s.observe(params, grads, alpha)
	}
}

// observe feeds one sampled per-layer health observation per parameter.
// For plain SGD the update is exactly alpha·grad, so the update norm is
// |alpha| times the gradient norm — no extra pass over the update.
func (s *SGD) observe(params, grads []*tensor.Tensor, alpha float64) {
	x := float64(s.Steps)
	scale := alpha
	if scale < 0 {
		scale = -scale
	}
	for i, p := range params {
		gl2, gn, gi := tensor.NormStats(grads[i])
		pl2, pn, pi := tensor.NormStats(p)
		s.Health.RecordLayer(i, x, gl2, gn+gi, scale*gl2, pl2, pn+pi)
	}
}

// Counter tracks the cost drivers reported in the paper's efficiency
// tables: the number of gradient evaluations (one per sample per backward
// pass) and the number of samples touched.
type Counter struct {
	// GradEvals is the number of per-sample gradient computations.
	GradEvals int
	// SamplesTouched is the total number of samples consumed by batches.
	SamplesTouched int
}

// AddBatch records one forward/backward pass over a batch of n samples.
func (c *Counter) AddBatch(n int) {
	c.GradEvals += n
	c.SamplesTouched += n
}

// Add merges another counter into this one.
func (c *Counter) Add(o Counter) {
	c.GradEvals += o.GradEvals
	c.SamplesTouched += o.SamplesTouched
}

package fl

import (
	"fmt"

	"quickdrop/internal/tensor"
)

// StreamAggregator folds client updates into a running weighted sum, so
// a round's aggregation needs one O(model) accumulator instead of
// collecting K parameter sets. The arithmetic is exactly the historical
// collect-then-average loop — acc += w·params per update, then one
// scale by 1/Σw — performed incrementally; folding updates in the same
// order yields bit-identical results (floating-point addition is
// deterministic for a fixed order, which is why every phase folds in
// selection order).
//
// The accumulator is allocated once at construction and reused across
// rounds via Reset: Fold and Finish allocate nothing.
type StreamAggregator struct {
	acc   []*tensor.Tensor
	total float64
	folds int
}

// NewStreamAggregator allocates an accumulator shaped like the given
// parameter set.
func NewStreamAggregator(like []*tensor.Tensor) *StreamAggregator {
	return &StreamAggregator{acc: zerosLike(like)}
}

// Reset zeroes the accumulator for a new round.
func (a *StreamAggregator) Reset() {
	for _, t := range a.acc {
		t.Zero()
	}
	a.total = 0
	a.folds = 0
}

// Fold accumulates one client's parameters with weight w. Non-positive
// weights are rejected by the runners before reaching here; Fold itself
// trusts the caller and never allocates.
func (a *StreamAggregator) Fold(params []*tensor.Tensor, w float64) {
	for j, p := range params {
		a.acc[j].AxpyInPlace(w, p)
	}
	a.total += w
	a.folds++
}

// TotalWeight returns the accumulated Σw for the current round.
func (a *StreamAggregator) TotalWeight() float64 { return a.total }

// Finish scales the accumulator by 1/Σw and returns it — the weighted
// mean of the folded updates. The returned tensors are the accumulator
// itself (valid until the next Reset), so callers copy them out via
// model.SetParams. Finishing a round with zero total weight panics; the
// runners handle that case (all-dropout rounds) before calling Finish.
func (a *StreamAggregator) Finish() []*tensor.Tensor {
	if a.total == 0 {
		panic(fmt.Sprintf("fl: StreamAggregator.Finish with zero total weight after %d folds", a.folds))
	}
	for _, t := range a.acc {
		t.ScaleInPlace(1 / a.total)
	}
	return a.acc
}

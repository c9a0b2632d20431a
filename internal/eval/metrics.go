// Package eval computes the metrics the paper reports: top-1 accuracy,
// per-class accuracy, and F-Set/R-Set accuracy for class- and client-level
// unlearning, plus the cost/speedup bookkeeping behind the efficiency
// tables.
package eval

import (
	"fmt"
	"time"

	"quickdrop/internal/data"
	"quickdrop/internal/nn"
)

// batchSize bounds memory use during evaluation.
const batchSize = 64

// predictBatches runs m over ds in order, batchSize samples at a time, and
// hands each batch's predictions and labels to visit. One index slice
// serves every batch.
func predictBatches(m *nn.Model, ds *data.Dataset, visit func(pred, labels []int)) {
	idx := make([]int, 0, batchSize)
	for lo := 0; lo < ds.Len(); lo += batchSize {
		idx = idx[:0]
		for i := lo; i < min(lo+batchSize, ds.Len()); i++ {
			idx = append(idx, i)
		}
		x, labels := ds.Batch(idx)
		visit(m.Predict(x), labels)
	}
}

// Accuracy returns the model's top-1 accuracy on ds.
func Accuracy(m *nn.Model, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	predictBatches(m, ds, func(pred, labels []int) {
		for i, p := range pred {
			if p == labels[i] {
				correct++
			}
		}
	})
	return float64(correct) / float64(ds.Len())
}

// PerClassAccuracy returns accuracy per label; classes absent from ds
// report NaN-free 0 with a count of 0 in the companion slice.
func PerClassAccuracy(m *nn.Model, ds *data.Dataset) (acc []float64, count []int) {
	acc = make([]float64, ds.Classes)
	count = make([]int, ds.Classes)
	correct := make([]int, ds.Classes)
	predictBatches(m, ds, func(pred, labels []int) {
		for i, p := range pred {
			count[labels[i]]++
			if p == labels[i] {
				correct[labels[i]]++
			}
		}
	})
	for c := range acc {
		if count[c] > 0 {
			acc[c] = float64(correct[c]) / float64(count[c])
		}
	}
	return acc, count
}

// ClassSplit returns the F-Set (samples of forgetClass) and R-Set
// (everything else) accuracies on a test set, the paper's headline metric
// for class-level unlearning.
func ClassSplit(m *nn.Model, test *data.Dataset, forgetClass int) (fset, rset float64) {
	return Accuracy(m, test.OfClass(forgetClass)), Accuracy(m, test.WithoutClass(forgetClass))
}

// SubsetSplit returns accuracy on an explicit forget dataset and on a
// retain dataset — used for client-level unlearning where the F-Set is the
// target client's local data.
func SubsetSplit(m *nn.Model, fset, rset *data.Dataset) (f, r float64) {
	return Accuracy(m, fset), Accuracy(m, rset)
}

// ConfusionMatrix returns counts[true][predicted] over ds.
func ConfusionMatrix(m *nn.Model, ds *data.Dataset) [][]int {
	cm := make([][]int, ds.Classes)
	for i := range cm {
		cm[i] = make([]int, ds.Classes)
	}
	predictBatches(m, ds, func(pred, labels []int) {
		for i, p := range pred {
			cm[labels[i]][p]++
		}
	})
	return cm
}

// Cost aggregates the efficiency measures of one unlearning pipeline run.
type Cost struct {
	Rounds   int
	WallTime time.Duration
	// DataSize is the number of samples involved per round, as reported in
	// the paper's "Data Size" column.
	DataSize int
}

// Add merges another cost into this one (summing rounds and time, and
// accumulating data size).
func (c *Cost) Add(o Cost) {
	c.Rounds += o.Rounds
	c.WallTime += o.WallTime
	c.DataSize += o.DataSize
}

// Speedup returns baseline time divided by this cost's time.
func (c Cost) Speedup(baseline Cost) float64 {
	if c.WallTime <= 0 {
		return 0
	}
	return float64(baseline.WallTime) / float64(c.WallTime)
}

// String renders the cost like the paper's table rows.
func (c Cost) String() string {
	return fmt.Sprintf("rounds=%d time=%s data=%d", c.Rounds, c.WallTime.Round(time.Millisecond), c.DataSize)
}

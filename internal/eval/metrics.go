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

// Scores is what one prediction pass over a dataset yields: per class,
// how many samples it holds and how many of them the model labels
// correctly. Every accuracy in this package is a ratio of these counts,
// so one pass answers any split of the dataset by class.
type Scores struct {
	Correct, Total []int
}

// Score predicts every sample of ds once and counts, per class, the
// samples and the correct predictions.
func Score(m *nn.Model, ds *data.Dataset) Scores {
	s := Scores{Correct: make([]int, ds.Classes), Total: make([]int, ds.Classes)}
	predictBatches(m, ds, func(pred, labels []int) {
		for i, p := range pred {
			s.Total[labels[i]]++
			if p == labels[i] {
				s.Correct[labels[i]]++
			}
		}
	})
	return s
}

// Accuracy returns top-1 accuracy over every scored sample (0 when
// there are none).
func (s Scores) Accuracy() float64 { return ratio(sum(s.Correct), sum(s.Total)) }

// Split returns the accuracy on class c and on every other class: a
// class-level request's F-Set and R-Set. A class outside the scores
// holds no samples.
func (s Scores) Split(c int) (fset, rset float64) {
	var correct, total int
	if c >= 0 && c < len(s.Total) {
		correct, total = s.Correct[c], s.Total[c]
	}
	return ratio(correct, total), ratio(sum(s.Correct)-correct, sum(s.Total)-total)
}

// PerClass returns accuracy per label; classes with no samples report 0
// with a count of 0 in the companion slice.
func (s Scores) PerClass() (acc []float64, count []int) {
	acc = make([]float64, len(s.Total))
	for c := range acc {
		acc[c] = ratio(s.Correct[c], s.Total[c])
	}
	return acc, append([]int(nil), s.Total...)
}

func ratio(correct, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Accuracy returns the model's top-1 accuracy on ds.
func Accuracy(m *nn.Model, ds *data.Dataset) float64 { return Score(m, ds).Accuracy() }

// PerClassAccuracy returns accuracy per label; classes absent from ds
// report NaN-free 0 with a count of 0 in the companion slice.
func PerClassAccuracy(m *nn.Model, ds *data.Dataset) (acc []float64, count []int) {
	return Score(m, ds).PerClass()
}

// ClassSplit returns the F-Set (samples of forgetClass) and R-Set
// (everything else) accuracies on a test set, the paper's headline metric
// for class-level unlearning.
func ClassSplit(m *nn.Model, test *data.Dataset, forgetClass int) (fset, rset float64) {
	return Score(m, test).Split(forgetClass)
}

// SubsetSplit returns accuracy on an explicit forget dataset and on a
// retain dataset — used for client-level unlearning where the F-Set is the
// target client's local data.
func SubsetSplit(m *nn.Model, fset, rset *data.Dataset) (f, r float64) {
	return Accuracy(m, fset), Accuracy(m, rset)
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

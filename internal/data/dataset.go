// Package data provides the image-classification datasets and federated
// partitioning used by the QuickDrop reproduction.
//
// The paper evaluates on MNIST, CIFAR-10 and SVHN. This module is offline
// and dependency-free, so those are substituted by procedurally generated
// datasets with the same structural properties: fixed class count,
// per-class visual structure learnable by a small ConvNet, controllable
// difficulty, and volumes ordered like the originals (see DESIGN.md).
package data

import (
	"fmt"
	"math/rand"

	"quickdrop/internal/tensor"
)

// Dataset is a labelled set of images. Samples are stored individually so
// subsets can share storage with their parent.
type Dataset struct {
	H, W, C int // sample shape
	Classes int
	X       []*tensor.Tensor // each [H, W, C]
	Y       []int
}

// NewDataset returns an empty dataset with the given sample geometry.
func NewDataset(h, w, c, classes int) *Dataset {
	return &Dataset{H: h, W: w, C: c, Classes: classes}
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Append adds a sample. The tensor is stored by reference.
func (d *Dataset) Append(x *tensor.Tensor, y int) {
	if x.Dims() != 3 || x.Dim(0) != d.H || x.Dim(1) != d.W || x.Dim(2) != d.C {
		panic(fmt.Sprintf("data: sample shape %s does not match dataset %dx%dx%d", x.ShapeString(), d.H, d.W, d.C))
	}
	if y < 0 || y >= d.Classes {
		panic(fmt.Sprintf("data: label %d out of range [0,%d)", y, d.Classes))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Subset returns a dataset view containing the given sample indices.
// Sample tensors are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := NewDataset(d.H, d.W, d.C, d.Classes)
	for _, i := range idx {
		s.X = append(s.X, d.X[i])
		s.Y = append(s.Y, d.Y[i])
	}
	return s
}

// ByClass returns sample indices grouped by label.
func (d *Dataset) ByClass() map[int][]int {
	m := make(map[int][]int)
	for i, y := range d.Y {
		m[y] = append(m[y], i)
	}
	return m
}

// ClassCounts returns the number of samples per class, indexed by label.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// OfClass returns the subset with label y.
func (d *Dataset) OfClass(y int) *Dataset { return d.Subset(d.ByClass()[y]) }

// WithoutClass returns the subset excluding label y.
func (d *Dataset) WithoutClass(y int) *Dataset {
	var idx []int
	for i, label := range d.Y {
		if label != y {
			idx = append(idx, i)
		}
	}
	return d.Subset(idx)
}

// WithoutIndices returns the subset excluding the given sample indices.
func (d *Dataset) WithoutIndices(exclude map[int]bool) *Dataset {
	if len(exclude) == 0 {
		return d
	}
	var idx []int
	for i := range d.X {
		if !exclude[i] {
			idx = append(idx, i)
		}
	}
	return d.Subset(idx)
}

// Merge concatenates datasets with identical geometry into a new dataset.
func Merge(parts ...*Dataset) *Dataset {
	if len(parts) == 0 {
		panic("data: Merge of nothing")
	}
	out := NewDataset(parts[0].H, parts[0].W, parts[0].C, parts[0].Classes)
	for _, p := range parts {
		if p.H != out.H || p.W != out.W || p.C != out.C || p.Classes != out.Classes {
			panic("data: Merge geometry mismatch")
		}
		out.X = append(out.X, p.X...)
		out.Y = append(out.Y, p.Y...)
	}
	return out
}

// Batch assembles the samples at idx into an input tensor [B, H, W, C] and
// a label slice.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	return d.BatchInto(nil, make([]int, 0, len(idx)), idx)
}

// BatchInto is Batch into caller-provided storage: the samples go into x,
// prepared like an Into kernel's destination, and the labels are
// appended to labels[:0]. A training step passes its arena's header
// (autodiff.Arena.Tensor) and a label buffer it keeps across steps, so
// gathering its input allocates nothing.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, idx []int) (*tensor.Tensor, []int) {
	if len(idx) == 0 {
		panic("data: empty batch")
	}
	labels = labels[:0]
	for _, i := range idx {
		labels = append(labels, d.Y[i])
	}
	return tensor.StackInto(x, d.X, idx), labels
}

// All returns the whole dataset as one batch.
func (d *Dataset) All() (*tensor.Tensor, []int) {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Batch(idx)
}

// SampleBatch draws a uniform random batch of up to n samples without
// replacement. If the dataset holds fewer than n samples the whole dataset
// is returned (shuffled).
func (d *Dataset) SampleBatch(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	if d.Len() == 0 {
		panic("data: SampleBatch on empty dataset")
	}
	idx := rng.Perm(d.Len())
	if n < len(idx) {
		idx = idx[:n]
	}
	return d.Batch(idx)
}

// Shuffled returns a copy of the dataset with sample order permuted.
func (d *Dataset) Shuffled(rng *rand.Rand) *Dataset {
	return d.Subset(rng.Perm(d.Len()))
}

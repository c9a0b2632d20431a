package eval

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"quickdrop/internal/data"
	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

// constantModel always predicts the same class by biasing the dense layer.
func constantModel(t *testing.T, class, classes int) *nn.Model {
	t.Helper()
	d := nn.NewDense("d", rand.New(rand.NewSource(1)), 4, classes)
	w := d.Params()[0].Data
	w.ScaleInPlace(0)
	b := d.Params()[1].Data
	b.Data()[class] = 10
	return nn.NewModel([]int{2, 2, 1}, classes, nn.Flatten{}, d)
}

func flatSet(n, classes int) *data.Dataset {
	ds := data.NewDataset(2, 2, 1, classes)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		ds.Append(tensor.Randn(rng, 1, 2, 2, 1), i%classes)
	}
	return ds
}

func TestAccuracyConstantPredictor(t *testing.T) {
	m := constantModel(t, 1, 4)
	ds := flatSet(8, 4) // labels 0..3 repeating → 1/4 are class 1
	if got := Accuracy(m, ds); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("accuracy = %g, want 0.25", got)
	}
	if Accuracy(m, data.NewDataset(2, 2, 1, 4)) != 0 {
		t.Fatal("empty dataset accuracy must be 0")
	}
}

func TestPerClassAccuracy(t *testing.T) {
	m := constantModel(t, 2, 3)
	ds := flatSet(9, 3)
	acc, count := PerClassAccuracy(m, ds)
	if acc[2] != 1 || acc[0] != 0 || acc[1] != 0 {
		t.Fatalf("per-class acc = %v", acc)
	}
	for _, c := range count {
		if c != 3 {
			t.Fatalf("counts = %v", count)
		}
	}
}

func TestClassSplit(t *testing.T) {
	m := constantModel(t, 0, 3)
	ds := flatSet(9, 3)
	f, r := ClassSplit(m, ds, 0)
	if f != 1 {
		t.Fatalf("F-Set accuracy = %g, want 1", f)
	}
	if r != 0 {
		t.Fatalf("R-Set accuracy = %g, want 0", r)
	}
}

func TestSubsetSplit(t *testing.T) {
	m := constantModel(t, 1, 2)
	a, b := flatSet(4, 2), flatSet(6, 2)
	f, r := SubsetSplit(m, a, b)
	if math.Abs(f-0.5) > 1e-12 || math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("split = %g/%g", f, r)
	}
}

func TestCostAddAndSpeedup(t *testing.T) {
	a := Cost{Rounds: 1, WallTime: time.Second, DataSize: 100}
	b := Cost{Rounds: 2, WallTime: 3 * time.Second, DataSize: 900}
	a.Add(b)
	if a.Rounds != 3 || a.WallTime != 4*time.Second || a.DataSize != 1000 {
		t.Fatalf("Add = %+v", a)
	}
	base := Cost{WallTime: 40 * time.Second}
	if s := a.Speedup(base); math.Abs(s-10) > 1e-12 {
		t.Fatalf("speedup = %g", s)
	}
	if (Cost{}).Speedup(base) != 0 {
		t.Fatal("zero-time cost must report 0 speedup")
	}
	if a.String() == "" {
		t.Fatal("String must render")
	}
}

func TestEvalLargeBatchPath(t *testing.T) {
	// More samples than the internal batch size exercises the loop.
	m := constantModel(t, 0, 2)
	ds := flatSet(150, 2)
	if got := Accuracy(m, ds); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("accuracy = %g", got)
	}
}

// ClassSplit answers from one pass over the whole set what accuracy on
// the class's own subset and on the rest computes, bit for bit: each
// sample's prediction does not depend on the batch it is predicted in.
func TestClassSplitMatchesSubsets(t *testing.T) {
	m := nn.NewConvNet(nn.ConvNetConfig{InputH: 8, InputW: 8, InputC: 1, Classes: 4, Width: 4, Depth: 2},
		rand.New(rand.NewSource(3)))
	ds := data.NewDataset(8, 8, 1, 4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 150; i++ {
		ds.Append(tensor.Randn(rng, 1, 8, 8, 1), rng.Intn(4))
	}
	for c := -1; c <= 4; c++ {
		f, r := ClassSplit(m, ds, c)
		wantF, wantR := Accuracy(m, ds.OfClass(c)), Accuracy(m, ds.WithoutClass(c))
		if f != wantF || r != wantR {
			t.Fatalf("class %d: split %v/%v, subsets %v/%v", c, f, r, wantF, wantR)
		}
	}
	acc, count := PerClassAccuracy(m, ds)
	for c := range acc {
		if count[c] != ds.OfClass(c).Len() || acc[c] != Accuracy(m, ds.OfClass(c)) {
			t.Fatalf("class %d: per-class %v over %d, subset %v over %d",
				c, acc[c], count[c], Accuracy(m, ds.OfClass(c)), ds.OfClass(c).Len())
		}
	}
}

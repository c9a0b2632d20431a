package tensor

import (
	"math"
	"testing"
)

// Each request takes the next slot: after a Reset the same requests get
// the same buffers back in the same order, a smaller request reuses the
// slot's buffer, and a larger one replaces it, which the slot then keeps.
func TestArenaRecyclesStorageBySlot(t *testing.T) {
	var a Arena
	x, y := Ones(2, 3), Ones(2, 3)

	var h1, h2 Tensor
	AddInto(a.Header(&h1), x, y)
	ScaleInto(a.Header(&h2), x, 3)
	if sharesData(&h1, &h2) {
		t.Fatal("two live headers share one buffer")
	}
	first, second := &h1.data[0], &h2.data[0]
	a.Reset()

	// Same requests after the reset: the step's buffers come back and no
	// new storage is made.
	var h3, h4 Tensor
	allocs := testing.AllocsPerRun(1, func() {
		h3, h4 = Tensor{}, Tensor{}
		MulInto(a.Header(&h3), x, y)
		SubInto(a.Header(&h4), x, y)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("a warm arena step allocated %v objects", allocs)
	}
	if &h3.data[0] != first || &h4.data[0] != second {
		t.Fatal("reset buffers were not reused slot by slot")
	}

	// A smaller request reuses the slot's buffer without allocating.
	v4 := Ones(4)
	var small Tensor
	allocs = testing.AllocsPerRun(1, func() {
		small = Tensor{}
		ScaleInto(a.Header(&small), v4, 2)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("a smaller request allocated %v objects", allocs)
	}
	if &small.data[0] != first || len(small.data) != 4 {
		t.Fatal("a smaller request did not reuse its slot's buffer")
	}

	// A larger request replaces the buffer, and the slot keeps the larger
	// one for the requests after it.
	var large, again Tensor
	ScaleInto(a.Header(&large), Ones(3, 3), 2)
	grown := &large.data[0]
	if grown == first || grown == second || len(large.data) != 9 {
		t.Fatal("a larger request did not get a buffer of its own size")
	}
	a.Reset()
	AddInto(a.Header(&again), x, y)
	if &again.data[0] != grown {
		t.Fatal("the slot did not keep the larger buffer")
	}
}

// Two graphs of different shapes, alternated from the same mark (a step's
// forward and an inference pass of another batch size), leave each slot
// with the larger of their requests: after one pass of each, neither
// allocates and the slot count stays fixed.
func TestArenaAlternatingShapesShareSlots(t *testing.T) {
	var a Arena
	var keep Tensor
	AddInto(a.Header(&keep), Ones(2), Ones(2))
	m := a.Mark()

	p, q := Ones(2, 3), Ones(4, 4)
	var hs [3]Tensor
	graphA := func() { // requests of 6, 16 and 6 elements
		hs = [3]Tensor{}
		AddInto(a.Header(&hs[0]), p, p)
		MulInto(a.Header(&hs[1]), q, q)
		ScaleInto(a.Header(&hs[2]), p, 2)
		a.Rewind(m)
	}
	graphB := func() { // requests of 16, 6 and 16 elements
		hs = [3]Tensor{}
		MulInto(a.Header(&hs[0]), q, q)
		AddInto(a.Header(&hs[1]), p, p)
		ScaleInto(a.Header(&hs[2]), q, 2)
		a.Rewind(m)
	}
	graphA()
	graphB()
	slots := len(a.slots)
	allocs := testing.AllocsPerRun(5, func() {
		graphA()
		graphB()
	})
	if allocs != 0 {
		t.Fatalf("alternating two warm graph shapes allocated %v objects", allocs)
	}
	if len(a.slots) != slots {
		t.Fatalf("the arena grew from %d to %d slots", slots, len(a.slots))
	}
	for _, v := range keep.data {
		if v != 2 {
			t.Fatalf("a buffer handed out before the mark was reused: %v", keep.data)
		}
	}
}

// Rewind releases only what was handed out after the mark: the buffer
// handed out before it stays live and unpoisoned, the one after it serves
// the next request of its size, and a mark the arena has been rewound
// past panics. Reset is the rewind to the empty mark.
func TestArenaRewindReleasesOnlyAfterTheMark(t *testing.T) {
	var a Arena
	a.PoisonOnReset(true)
	x := Ones(2, 3)
	var kept, scoped Tensor
	AddInto(a.Header(&kept), x, x)
	m := a.Mark()
	ScaleInto(a.Header(&scoped), x, 3)
	released := &scoped.data[0]
	a.Rewind(m)
	if a.Mark() != m {
		t.Fatal("Rewind did not return the arena to the mark")
	}
	for _, v := range kept.data {
		if v != 2 {
			t.Fatalf("a buffer handed out before the mark was recycled: %v", kept.data)
		}
	}
	var next Tensor
	MulInto(a.Header(&next), x, x)
	if &next.data[0] != released {
		t.Fatal("the buffer Rewind released was not reused")
	}
	a.Reset()
	if a.Mark() != (Mark{}) {
		t.Fatal("Reset did not rewind to the empty mark")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a Rewind to a mark past the arena's position must panic")
		}
	}()
	a.Rewind(m)
}

func TestArenaUntaggedHeaderStaysOnHeap(t *testing.T) {
	var a Arena
	var h Tensor
	AddInto(&h, Ones(3), Ones(3))
	if a.next != 0 || len(a.slots) != 0 {
		t.Fatal("an untagged header drew from the arena")
	}
}

// Recycled buffers are handed out uncleared; with the poison hook on they
// come back full of NaN, and every kernel must still produce the result it
// produces into fresh storage.
func TestKernelsDoNotRelyOnClearedDestination(t *testing.T) {
	g := ConvGeom{Kernel: 3, Stride: 1, Pad: 1, InH: 4, InW: 4, Channel: 2}
	x := New(2, 4, 4, 2)
	for i := range x.data {
		x.data[i] = float64(i%7) - 3
	}
	m := x.View(8, 8)
	small := New(2, 1, 1, 2)
	small.data = []float64{1, -2, 3, 0.5}

	// ReLUInto's second destination, which a nil does not allocate.
	reluMask := func(mask *Tensor) *Tensor {
		if mask == nil {
			mask = NewLike(x)
		}
		ReLUInto(nil, mask, x)
		return mask
	}

	kernels := map[string]func(dst *Tensor) *Tensor{
		"Add":         func(d *Tensor) *Tensor { return AddInto(d, x, x) },
		"Apply":       func(d *Tensor) *Tensor { return ApplyInto(d, x, math.Abs) },
		"ReLU":        func(d *Tensor) *Tensor { return ReLUInto(d, nil, x) },
		"ReLUMask":    reluMask,
		"Full":        func(d *Tensor) *Tensor { return FullInto(d, 2, 3, 3) },
		"MaxRows":     func(d *Tensor) *Tensor { return MaxRowsInto(d, m) },
		"SumAxes":     func(d *Tensor) *Tensor { return SumAxesInto(d, x, 1, 2) },
		"BroadcastTo": func(d *Tensor) *Tensor { return BroadcastToInto(d, small, 2, 4, 4, 2) },
		"MulBcast":    func(d *Tensor) *Tensor { return MulBcastInto(d, x, small) },
		"SubBcast":    func(d *Tensor) *Tensor { return SubBcastInto(d, x, small) },
		"MulSum":      func(d *Tensor) *Tensor { return MulSumInto(d, x, x, 1, 2) },
		"AddRow":      func(d *Tensor) *Tensor { return AddRowInto(d, m, Ones(8)) },
		"MatMul":      func(d *Tensor) *Tensor { return MatMulInto(d, m, m) },
		"MatMulNT":    func(d *Tensor) *Tensor { return MatMulNTInto(d, m, m) },
		"MatMulTN":    func(d *Tensor) *Tensor { return MatMulTNInto(d, m, m) },
		"Im2col":      func(d *Tensor) *Tensor { return Im2colInto(d, x, g) },
		"Col2im":      func(d *Tensor) *Tensor { return Col2imInto(d, Im2col(x, g), 2, g) },
	}
	for name, k := range kernels {
		var a Arena
		a.PoisonOnReset(true)
		want := k(nil)
		warm := &k(a.Header(&Tensor{})).data[0] // warm the slot
		a.Reset()                               // ... and poison it
		got := k(a.Header(&Tensor{}))
		if a.next != 1 || len(a.slots) != 1 || &got.data[0] != warm {
			t.Fatalf("%s: the poisoned buffer was not the one reused", name)
		}
		if !got.SameShape(want) {
			t.Fatalf("%s: shape %v, want %v", name, got.shape, want.shape)
		}
		for i, v := range want.data {
			if got.data[i] != v {
				t.Fatalf("%s: elem %d = %v into a poisoned buffer, %v into fresh storage", name, i, got.data[i], v)
			}
		}
	}
}

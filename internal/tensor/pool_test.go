package tensor

import "testing"

func TestPoolGetReturnsZeroedShape(t *testing.T) {
	var p Pool
	a := p.Get(2, 3)
	if a.Dims() != 2 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("Get shape = %v, want [2 3]", a.Shape())
	}
	for i, v := range a.Data() {
		if v != 0 {
			t.Fatalf("fresh Get element %d = %g, want 0", i, v)
		}
	}

	// Dirty the buffer, recycle it, and borrow the same size class under a
	// different shape: the recycled tensor must come back zeroed and with
	// the newly requested shape.
	for i := range a.Data() {
		a.Data()[i] = float64(i + 1)
	}
	p.Put(a)
	b := p.Get(6)
	if b.Dims() != 1 || b.Dim(0) != 6 {
		t.Fatalf("recycled Get shape = %v, want [6]", b.Shape())
	}
	for i, v := range b.Data() {
		if v != 0 {
			t.Fatalf("recycled Get element %d = %g, want 0", i, v)
		}
	}
}

func TestPoolPutPoisons(t *testing.T) {
	var p Pool
	a := p.Get(4)
	p.Put(a)
	if a.Len() != 0 || a.Dims() != 0 {
		t.Fatalf("Put left tensor usable: shape %v len %d", a.Shape(), a.Len())
	}
	mustPanic(t, "use after Put", func() { a.View(4) })

	// Double-Put of the now-empty handle must be a no-op, not a duplicate
	// recycle of the same storage.
	p.Put(a)
	p.Put(nil)
}

// TestPoolRecycledShapeIndependence guards the inline-shape aliasing hazard:
// the handle recycled by Put must not share the poisoned tensor's inline
// shape array, or a later borrower's shape could be mutated through the
// dead handle.
func TestPoolRecycledShapeIndependence(t *testing.T) {
	var p Pool
	a := p.Get(2, 2)
	data := a.Data()
	p.Put(a)
	b := p.Get(4) // same size class; may reuse a's storage
	if len(b.Data()) != 4 {
		t.Fatalf("recycled tensor has %d elements, want 4", len(b.Data()))
	}
	if &b.Data()[0] == &data[0] {
		// Storage was reused — the poisoned handle must not reach it.
		if a.Len() != 0 {
			t.Fatal("poisoned handle still references recycled storage")
		}
	}
	if got := b.Shape(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("recycled tensor shape = %v, want [4]", got)
	}
}

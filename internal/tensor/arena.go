package tensor

import "math"

// Arena is a step-scoped allocator of tensor storage: size-keyed free
// lists of []float64 buffers that one training step's result tensors are
// drawn from and that Reset recycles all at once when the step is over.
// The graph of a training step has the same shape every step, so after
// the first step of a given shape a step allocates no float storage.
//
// A zero-valued tensor header tagged with Header draws its storage from
// the arena the first time an *Into kernel fills it (prepDst). Recycled
// buffers are NOT cleared: the destination-passing contract already makes
// every kernel write — or zero, then accumulate into — its whole
// destination.
//
// Ownership rules (see DESIGN.md, "Step arena"):
//
//   - An arena belongs to one goroutine; it is not safe for concurrent use.
//   - Every tensor backed by the arena dies at Reset, or at the Rewind to
//     a mark taken before it. Anything that must outlive the step is
//     copied out first.
//   - Without a Reset the buffers handed out accumulate until the arena
//     itself is garbage, so a caller that builds graphs in a loop resets
//     once per iteration.
//
// The zero value is ready to use; a nil *Arena tags nothing, which leaves
// the header on the heap path.
type Arena struct {
	free map[int][][]float64 // element count -> recycled buffers
	used [][]float64         // handed out since the last Reset
	// poison makes Reset overwrite every recycled buffer with NaN.
	poison bool
}

// Header tags the zero-valued header t so that the kernel filling it takes
// its storage from a, and returns t.
func (a *Arena) Header(t *Tensor) *Tensor {
	t.arena = a
	return t
}

// get returns a buffer of n elements with arbitrary contents.
func (a *Arena) get(n int) []float64 {
	var buf []float64
	if l := a.free[n]; len(l) > 0 {
		buf = l[len(l)-1]
		a.free[n] = l[:len(l)-1]
	} else {
		buf = make([]float64, n)
	}
	a.used = append(a.used, buf)
	return buf
}

// Mark is a position in an arena's allocation history: the buffers handed
// out before it. The zero Mark is the empty arena.
type Mark struct{ used int }

// Mark returns the arena's current position, for a later Rewind.
func (a *Arena) Mark() Mark { return Mark{used: len(a.used)} }

// Rewind releases everything handed out since m: those buffers go back on
// their free lists and every tensor backed by one is dead, while what was
// handed out before m stays live. A scope nested inside a step (an
// inference pass between a forward and its backward) marks on entry and
// rewinds on exit, leaving the step's tensors alone. A mark beyond the
// arena's position — taken before an earlier Rewind or Reset to a lower
// one — panics.
func (a *Arena) Rewind(m Mark) {
	if m.used > len(a.used) {
		panic("tensor: Rewind to a mark past the arena's position")
	}
	if a.free == nil {
		a.free = make(map[int][][]float64)
	}
	for _, buf := range a.used[m.used:] {
		if a.poison {
			for j := range buf {
				buf[j] = math.NaN()
			}
		}
		a.free[len(buf)] = append(a.free[len(buf)], buf)
	}
	a.used = a.used[:m.used]
}

// Reset ends the step: it rewinds to the empty mark, so every buffer
// handed out goes back on its free list.
func (a *Arena) Reset() { a.Rewind(Mark{}) }

// PoisonOnReset is a test hook: when on, Reset fills every recycled buffer
// with NaN, so a tensor read after its step ended, or a kernel relying on
// a zero-initialised destination, shows up in the numbers.
func (a *Arena) PoisonOnReset(on bool) { a.poison = on }

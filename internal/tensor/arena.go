package tensor

import "math"

// Arena is a step-scoped allocator of tensor storage: slots of []float64
// buffers handed out in order to one training step's result tensors, all
// taken back by Reset when the step is over. A request reuses the next
// slot's buffer if its capacity suffices and otherwise swaps in a fresh
// one, so a slot keeps the largest buffer asked of it. A step's graph
// makes the same requests in the same order every step, so once a step of
// a given shape has run, no step of that shape or a smaller batch
// allocates float storage.
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
//   - Without a Reset the slots handed out accumulate until the arena
//     itself is garbage, so a caller that builds graphs in a loop resets
//     once per iteration.
//
// The zero value is ready to use; a nil *Arena tags nothing, which leaves
// the header on the heap path.
type Arena struct {
	slots [][]float64 // full-length buffers in hand-out order; slots[:next] are live
	next  int
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
	if a.next == len(a.slots) {
		a.slots = append(a.slots, nil)
	}
	buf := a.slots[a.next]
	if cap(buf) < n {
		buf = make([]float64, n)
		a.slots[a.next] = buf
	}
	a.next++
	return buf[:n]
}

// Mark is a position in an arena's allocation history: the slots handed
// out before it. The zero Mark is the empty arena.
type Mark struct{ next int }

// Mark returns the arena's current position, for a later Rewind.
func (a *Arena) Mark() Mark { return Mark{next: a.next} }

// Rewind releases everything handed out since m: those slots serve the
// next requests and every tensor backed by one is dead, while what was
// handed out before m stays live. A scope nested inside a step (an
// inference pass between a forward and its backward) marks on entry and
// rewinds on exit, leaving the step's tensors alone. A mark beyond the
// arena's position — taken before an earlier Rewind or Reset to a lower
// one — panics.
func (a *Arena) Rewind(m Mark) {
	if m.next > a.next {
		panic("tensor: Rewind to a mark past the arena's position")
	}
	if a.poison {
		for _, buf := range a.slots[m.next:a.next] {
			for j := range buf {
				buf[j] = math.NaN()
			}
		}
	}
	a.next = m.next
}

// Reset ends the step: it rewinds to the empty mark, so every slot serves
// the next step.
func (a *Arena) Reset() { a.Rewind(Mark{}) }

// PoisonOnReset is a test hook: when on, Reset fills every recycled buffer
// with NaN, so a tensor read after its step ended, or a kernel relying on
// a zero-initialised destination, shows up in the numbers.
func (a *Arena) PoisonOnReset(on bool) { a.poison = on }

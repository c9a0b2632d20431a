package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"quickdrop/internal/tensor"
)

// fill returns a one-tensor parameter set whose every element is v —
// readers can detect torn snapshots by checking uniformity.
func fill(v float64) []*tensor.Tensor {
	p := tensor.New(8)
	d := p.Data()
	for i := range d {
		d[i] = v
	}
	return []*tensor.Tensor{p}
}

func TestSnapshotStoreVersioning(t *testing.T) {
	st := NewSnapshotStore()
	if sn := st.Acquire(); sn != nil {
		t.Fatal("Acquire on empty store should return nil")
	}
	if v := st.Publish(fill(1)); v != 1 {
		t.Fatalf("first publish version %d, want 1", v)
	}
	if v := st.Publish(fill(2)); v != 2 {
		t.Fatalf("second publish version %d, want 2", v)
	}
	sn := st.Acquire()
	if sn.Version() != 2 || sn.Params()[0].Data()[0] != 2 {
		t.Fatalf("acquired version %d with value %v, want 2/2", sn.Version(), sn.Params()[0].Data()[0])
	}
	if st.Version() != 2 {
		t.Fatalf("store version %d, want 2", st.Version())
	}
}

// TestSnapshotStoreDropsSupersededVersions pins reclamation: once a
// newer version is published and no reader holds the old one, the store
// keeps no reference to it and the garbage collector frees it.
func TestSnapshotStoreDropsSupersededVersions(t *testing.T) {
	st := NewSnapshotStore()
	st.Publish(fill(1))
	freed := make(chan struct{})
	runtime.SetFinalizer(st.Acquire(), func(*Snapshot) { close(freed) })
	st.Publish(fill(2))
	collected := false
	for i := 0; i < 100 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The store stays reachable, so only what it no longer references
	// can be collected.
	runtime.KeepAlive(st)
	if !collected {
		t.Fatal("superseded version 1 was never collected: the store still references it")
	}
}

// TestSnapshotConcurrentReaders runs readers against a publisher under
// the race detector: acquisitions never block and never observe a torn
// parameter set.
func TestSnapshotConcurrentReaders(t *testing.T) {
	st := NewSnapshotStore()
	st.Publish(fill(1))

	const versions, readers, reads = 200, 4, 500
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		for v := 2; v <= versions; v++ {
			st.Publish(fill(float64(v)))
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				sn := st.Acquire()
				if sn == nil {
					t.Error("Acquire returned nil after first publish")
					return
				}
				d := sn.Params()[0].Data()
				want := float64(sn.Version())
				for _, got := range d {
					if got != want {
						t.Errorf("torn snapshot: version %d holds value %v", sn.Version(), got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if st.Version() != versions {
		t.Fatalf("final version %d, want %d", st.Version(), versions)
	}
}

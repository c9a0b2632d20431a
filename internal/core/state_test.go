package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"quickdrop/internal/data"
	"quickdrop/internal/eval"
)

// TestStateRoundTripPreservesModelAndSynthetic trains its own system
// rather than taking a fixture copy: a copy has already been through
// SaveState/LoadState, so a field the save dropped would be missing on
// both sides of the comparison.
func TestStateRoundTripPreservesModelAndSynthetic(t *testing.T) {
	sys, test := trained.fresh(t)
	if _, err := sys.Unlearn(Request{Kind: ClassLevel, Class: 2}); err != nil {
		t.Fatal(err)
	}
	accBefore := eval.Accuracy(sys.Model, test)

	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh system with the same config and clients, restored.
	restored, err := NewSystem(sys.Cfg, sys.Clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}

	// Model identical.
	if acc := eval.Accuracy(restored.Model, test); acc != accBefore {
		t.Fatalf("restored accuracy %.3f vs %.3f", acc, accBefore)
	}
	// Synthetic sets identical.
	for i := 0; i < sys.Clients.NumClients(); i++ {
		a, b := sys.Synthetic(i), restored.Synthetic(i)
		if (a == nil) != (b == nil) {
			t.Fatalf("client %d synthetic presence mismatch", i)
		}
		if a == nil {
			continue
		}
		if a.Len() != b.Len() {
			t.Fatalf("client %d synthetic size %d vs %d", i, a.Len(), b.Len())
		}
		for j := range a.X {
			if a.Y[j] != b.Y[j] {
				t.Fatal("label mismatch")
			}
			for k := range a.X[j].Data() {
				if a.X[j].Data()[k] != b.X[j].Data()[k] {
					t.Fatal("synthetic pixel mismatch")
				}
			}
		}
	}
	// Forget ledger preserved: class 2 already unlearned.
	if _, err := restored.Unlearn(Request{Kind: ClassLevel, Class: 2}); err == nil {
		t.Fatal("restored system must remember class 2 was unlearned")
	}
	// And the restored system can serve new requests.
	if _, err := restored.Unlearn(Request{Kind: ClassLevel, Class: 5}); err != nil {
		t.Fatal(err)
	}
	// Including relearning the originally erased class.
	if _, err := restored.Relearn(Request{Kind: ClassLevel, Class: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestStateRoundTripSampleLevel trains its own system for the same
// reason.
func TestStateRoundTripSampleLevel(t *testing.T) {
	sys, _ := sampled.fresh(t)
	req := Request{Kind: SampleLevel, Client: 0, Samples: []int{0, 1}}
	if _, err := sys.Unlearn(req); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewSystem(sys.Cfg, sys.Clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	// The removed-sample and removed-group ledgers survive.
	if len(restored.RemovedSampleSet(0)) != len(sys.RemovedSampleSet(0)) {
		t.Fatal("removed samples lost")
	}
	if len(restored.removedGroups[0]) != len(sys.removedGroups[0]) {
		t.Fatal("removed groups lost")
	}
	// Relearning the samples works on the restored system.
	if _, err := restored.Relearn(req); err != nil {
		t.Fatal(err)
	}
}

func TestSaveStateErrors(t *testing.T) {
	clients, _ := testClients(t, 2, 4, 32)
	sys, err := NewSystem(DefaultConfig(testArch()), clients)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err == nil {
		t.Fatal("SaveState before Train must fail")
	}
}

func TestLoadStateErrors(t *testing.T) {
	sys, _ := trainedSystem(t)
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading into a trained system fails.
	if err := sys.LoadState(&buf); err == nil {
		t.Fatal("LoadState on trained system must fail")
	}
	// Garbage fails cleanly.
	fresh, err := NewSystem(sys.Cfg, sys.Clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(bytes.NewReader([]byte{9, 9, 9, 9})); err == nil {
		t.Fatal("expected bad magic error")
	}
	// Client-count mismatch fails.
	var buf2 bytes.Buffer
	sys2, _ := trainedSystem(t)
	if err := sys2.SaveState(&buf2); err != nil {
		t.Fatal(err)
	}
	smaller, err := NewSystem(sys.Cfg, data.NewCohort([]*data.Dataset{sys.Clients.Shard(0), sys.Clients.Shard(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if err := smaller.LoadState(&buf2); err == nil {
		t.Fatal("expected client-count mismatch error")
	}
}

// errWrite is the error a failingWriter's failing Write returns.
var errWrite = errors.New("write refused")

// failingWriter fails its failAt-th Write (counting from 1) and accepts
// every other, so an error dropped anywhere lets the save run on and
// report success.
type failingWriter struct {
	writes, failAt int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == w.failAt {
		return 0, errWrite
	}
	return len(p), nil
}

// TestWritersReturnEveryWriteError gives every serializer in the state
// path a writer that fails at its k-th Write, for each k a successful
// save reaches, and requires the call to return an error that wraps the
// writer's.
func TestWritersReturnEveryWriteError(t *testing.T) {
	sys, _ := trainedSystem(t)
	syn := sys.Synthetic(0)
	if syn == nil {
		t.Fatal("trained fixture has no synthetic set for client 0")
	}
	writeTo := func(wt io.WriterTo) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := wt.WriteTo(w)
			return err
		}
	}
	for _, c := range []struct {
		name string
		save func(io.Writer) error
	}{
		{"tensor.Tensor.WriteTo", writeTo(syn.X[0])},
		{"data.Dataset.WriteTo", writeTo(syn)},
		{"nn.Model.WriteTo", writeTo(sys.Model)},
		{"core.System.SaveState", sys.SaveState},
	} {
		ok := &failingWriter{}
		if err := c.save(ok); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for k := 1; k <= ok.writes; k++ {
			if err := c.save(&failingWriter{failAt: k}); !errors.Is(err, errWrite) {
				t.Errorf("%s: Write %d of %d failed, but the call returned %v", c.name, k, ok.writes, err)
				break
			}
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/eval"
	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

// slowEval widens the per-ticket state windows (accuracy evaluation
// happens inside the unlearning batch) so concurrent observers get a
// real chance to catch intermediate states. It sleeps both when the
// worker scores a version and on every ticket's lookup, so each ticket
// still waits at least d before coalescing and before publishing.
type slowEval struct{ d time.Duration }

func (e slowEval) Score(*nn.Model) eval.Scores {
	time.Sleep(e.d)
	return eval.Scores{}
}

func (e slowEval) Lookup(*nn.Model, eval.Scores, core.Request) (float64, float64) {
	time.Sleep(e.d)
	return 0, 0
}

// stateRank orders the forward lifecycle; observers poll, so they may
// skip states but must never see one move backwards.
var stateRank = map[string]int{
	"queued":     0,
	"coalesced":  1,
	"unlearning": 2,
	"recovered":  3,
	"published":  4,
}

// legalObservation reports whether observing next after prev is
// consistent with the ticket lifecycle (the legal table beside State):
// forward-only, failed reachable from any non-terminal state, nothing
// after a terminal state.
func legalObservation(prev, next string) bool {
	if prev == next {
		return true
	}
	if prev == "published" || prev == "failed" {
		return false
	}
	if next == "failed" {
		return true
	}
	pr, okP := stateRank[prev]
	nr, okN := stateRank[next]
	return okP && okN && nr > pr
}

// TestTicketTransitionsFollowLifecycle drives every (from, to) pair of
// states through the mutator the worker would use for to: the eight
// lifecycle edges must move the ticket, and every other pair — backward,
// skipping a state, or leaving a terminal state — must panic naming both
// states.
func TestTicketTransitionsFollowLifecycle(t *testing.T) {
	edges := map[[2]State]bool{
		{StateQueued, StateCoalesced}:     true,
		{StateCoalesced, StateUnlearning}: true,
		{StateUnlearning, StateRecovered}: true,
		{StateRecovered, StatePublished}:  true,
		{StateQueued, StateFailed}:        true,
		{StateCoalesced, StateFailed}:     true,
		{StateUnlearning, StateFailed}:    true,
		{StateRecovered, StateFailed}:     true,
	}
	for from := StateQueued; from <= StateFailed; from++ {
		for to := StateQueued; to <= StateFailed; to++ {
			tk := newTicket(1, core.Request{Kind: core.ClassLevel})
			tk.state = from
			msg := func() (msg any) {
				defer func() { msg = recover() }()
				switch to {
				case StateCoalesced:
					tk.coalesce(1, 0, 0)
				case StatePublished, StateFailed:
					tk.finish(to, 1, 0, 0, nil, nil)
				default:
					tk.setState(to)
				}
				return nil
			}()
			switch {
			case edges[[2]State{from, to}] && msg != nil:
				t.Errorf("%s -> %s is a lifecycle edge but panicked: %v", from, to, msg)
			case edges[[2]State{from, to}] && tk.State() != to:
				t.Errorf("%s -> %s left the ticket in %s", from, to, tk.State())
			case !edges[[2]State{from, to}] && msg != fmt.Sprintf("serve: illegal ticket transition %s -> %s", from, to):
				t.Errorf("%s -> %s: panic %v, want one naming both states", from, to, msg)
			}
		}
	}
}

// TestTicketStatesLegalUnderConcurrentObservation hammers GET
// /v1/requests and /v1/status from several goroutines while sequential
// batches run and checks every observed ticket state is a known state,
// every per-ticket observation sequence follows the declared lifecycle,
// and the published total never runs backwards. Run under -race this
// also proves View/views take consistent snapshots and that Stats reads
// the worker's counters safely.
func TestTicketStatesLegalUnderConcurrentObservation(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(11), Config{
		Evaluator:  slowEval{d: 3 * time.Millisecond},
		Sequential: true, // one batch per request: more transitions to observe
	})

	bodies := []string{
		`{"kind":"class","class":1}`,
		`{"kind":"class","class":2}`,
		`{"kind":"client","client":0}`,
	}
	ids := make([]uint64, len(bodies))
	for i, body := range bodies {
		code, v := postForget(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("post %d: status %d, want 202", i, code)
		}
		ids[i] = v.ID
	}

	// Observers start before the worker so the queued state is seen too.
	// Each observer validates its own observation sequence: its polls are
	// issued serially, so per ticket they are ordered in real time.
	stop := make(chan struct{})
	var observations atomic.Int64
	var wg sync.WaitGroup
	const observers = 4
	wg.Add(observers)
	for o := 0; o < observers; o++ {
		go func() {
			defer wg.Done()
			last := make(map[uint64]string)
			var published int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/requests")
				if err != nil {
					t.Error(err)
					return
				}
				var views struct {
					Requests []View `json:"requests"`
				}
				err = json.NewDecoder(resp.Body).Decode(&views)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for _, v := range views.Requests {
					if v.State != "failed" {
						if _, ok := stateRank[v.State]; !ok {
							t.Errorf("ticket %d observed in unknown state %q", v.ID, v.State)
							return
						}
					}
					if prev, ok := last[v.ID]; ok && !legalObservation(prev, v.State) {
						t.Errorf("ticket %d observed moving %s -> %s; the declared lifecycle has no such path", v.ID, prev, v.State)
						return
					}
					last[v.ID] = v.State
				}
				resp, err = http.Get(ts.URL + "/v1/status")
				if err != nil {
					t.Error(err)
					return
				}
				var st Stats
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if st.Published < published || st.Published > int64(len(ids)) {
					t.Errorf("published total observed moving %d -> %d with %d requests", published, st.Published, len(ids))
					return
				}
				published = st.Published
				observations.Add(1)
			}
		}()
	}

	s.Start()
	waitTerminal(t, s, ids...)
	// One more beat so observers can catch the terminal states, then a
	// final validated read after the storm.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if observations.Load() == 0 {
		t.Fatal("observers made no successful polls; the test observed nothing")
	}
	for _, v := range s.views() {
		if v.State != "published" {
			t.Fatalf("ticket %d finished in state %q (error %q), want published", v.ID, v.State, v.Error)
		}
	}
}

// TestPredictReleasesSnapshotOnPanic pins the predict handler's
// resource discipline: the snapshot acquired for inference is released
// on every exit path, including a panic out of SetParams (a
// misconfigured ModelFactory whose architecture does not match the
// published parameters). Predictions race a publish storm, so a leaked
// reference would pin a superseded version and show up as Live() > 1.
func TestPredictReleasesSnapshotOnPanic(t *testing.T) {
	// The factory's architecture disagrees with the system's: SetParams
	// panics after the handler has acquired a snapshot.
	badArch := tinyArch()
	badArch.Width = 8
	s, ts := newTestServer(t, tinyConfig(13), Config{
		Sequential: true,
		ModelFactory: func() *nn.Model {
			return nn.NewConvNet(badArch, rand.New(rand.NewSource(1)))
		},
	})

	good, err := json.Marshal(predictBody{Inputs: [][]float64{make([]float64, 36)}})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := json.Marshal(predictBody{Inputs: [][]float64{make([]float64, 7)}})
	if err != nil {
		t.Fatal(err)
	}

	// Publish storm: sequential batches, one publish per request.
	bodies := []string{
		`{"kind":"class","class":1}`,
		`{"kind":"class","class":2}`,
		`{"kind":"client","client":1}`,
	}
	ids := make([]uint64, len(bodies))
	for i, body := range bodies {
		code, v := postForget(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("post %d: status %d, want 202", i, code)
		}
		ids[i] = v.ID
	}
	s.Start()

	// Drive the handler directly (not through httptest) so the panic
	// unwinds into our recover the way net/http's per-connection recovery
	// would catch it, without failing the client connection.
	h := s.Handler()
	var panics atomic.Int64
	var wg sync.WaitGroup
	const workers, calls = 4, 40
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				body := good
				if i%5 == 4 {
					body = bad // error exit path: rejected before Acquire
				}
				func() {
					defer func() {
						if recover() != nil {
							panics.Add(1)
						}
					}()
					rec := httptest.NewRecorder()
					req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusBadRequest {
						t.Errorf("worker %d call %d returned %d without panicking, want 400 or a SetParams panic", w, i, rec.Code)
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	waitTerminal(t, s, ids...)
	s.Drain()

	if panics.Load() == 0 {
		t.Fatal("no predict call panicked; the panic exit path was never exercised")
	}
	// Every acquired snapshot was released: only the current version is
	// live. A missed Release on the panic path would pin whichever
	// superseded version the panicking handler held.
	if live := s.Store().Live(); live != 1 {
		t.Fatalf("Live = %d after the storm, want 1 — a handler exit path leaked its snapshot", live)
	}
}

// TestPredictBesideWorkerMatchesHeapPath runs /v1/predict on the pooled
// models while the worker evaluates and unlearns a coalesced batch on the
// system's model, each model on its own arena. Every prediction must
// equal what a model with no arena predicts from the snapshot version the
// reply names, and no snapshot may stay pinned after drain.
// scripts/check.sh runs it ten times under -race.
func TestPredictBesideWorkerMatchesHeapPath(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(17), Config{})
	rng := rand.New(rand.NewSource(18))
	inputs := make([][]float64, 8)
	x := tensor.New(len(inputs), 6, 6, 1)
	for i := range inputs {
		inputs[i] = make([]float64, 6*6)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
		copy(x.Data()[i*6*6:], inputs[i])
	}
	body, err := json.Marshal(predictBody{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}

	// heapPredictions[v] is what a model with no arena predicts from
	// version v's parameters.
	heapPredictions := map[uint64][]int{}
	recordHeap := func() {
		snap := s.Store().Acquire()
		defer snap.Release()
		m := nn.NewConvNet(tinyArch(), rand.New(rand.NewSource(1)))
		m.DetachArena()
		m.SetParams(snap.Params())
		heapPredictions[snap.Version()] = m.Predict(x)
	}
	recordHeap()

	var ids []uint64
	for _, b := range []string{`{"kind":"class","class":1}`, `{"kind":"class","class":2}`, `{"kind":"client","client":0}`} {
		code, v := postForget(t, ts.URL, b)
		if code != http.StatusAccepted {
			t.Fatalf("post %s: status %d, want 202", b, code)
		}
		ids = append(ids, v.ID)
	}

	type reply struct {
		Version     uint64 `json:"version"`
		Predictions []int  `json:"predictions"`
	}
	h := s.Handler()
	predict := func() (reply, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		var r reply
		if rec.Code != http.StatusOK {
			return r, fmt.Errorf("predict: status %d: %s", rec.Code, rec.Body)
		}
		return r, json.NewDecoder(rec.Body).Decode(&r)
	}

	var (
		mu      sync.Mutex
		replies []reply
		wg      sync.WaitGroup
	)
	stop := make(chan struct{})
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()
	const readers = 3
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := predict()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				replies = append(replies, rep)
				mu.Unlock()
			}
		}()
	}
	s.Start()
	waitTerminal(t, s, ids...)
	stopReaders()
	recordHeap()
	last, err := predict()
	if err != nil {
		t.Fatal(err)
	}
	replies = append(replies, last)
	s.Drain()

	if len(heapPredictions) != 2 {
		t.Fatalf("%d versions recorded, want 2: the initial one and the coalesced batch's", len(heapPredictions))
	}
	for i, rep := range replies {
		want, ok := heapPredictions[rep.Version]
		if !ok {
			t.Fatalf("reply %d names version %d, which was never published", i, rep.Version)
		}
		if fmt.Sprint(rep.Predictions) != fmt.Sprint(want) {
			t.Fatalf("reply %d (version %d) predicted %v on the arena, %v on the heap", i, rep.Version, rep.Predictions, want)
		}
	}
	if live := s.Store().Live(); live != 1 {
		t.Fatalf("Live = %d after drain, want 1", live)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/distill"
	"quickdrop/internal/nn"
	"quickdrop/internal/telemetry"
)

// tinyArch is small enough that full train/unlearn cycles stay fast
// under the race detector (this package is raced without -short).
func tinyArch() nn.ConvNetConfig {
	return nn.ConvNetConfig{InputH: 6, InputW: 6, InputC: 1, Classes: 4, Width: 4, Depth: 1}
}

func tinyConfig(seed int64) core.Config {
	return core.Config{
		Arch:    tinyArch(),
		Train:   core.PhaseParams{Rounds: 2, LocalSteps: 2, BatchSize: 8, LR: 0.1},
		Unlearn: core.PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.02},
		Recover: core.PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.01},
		Relearn: core.PhaseParams{Rounds: 1, LocalSteps: 2, BatchSize: 8, LR: 0.01},
		Distill: distill.Config{Scale: 2, Steps: 1, LR: 0.1, RealBatch: 8, Eps: 1e-6},
		Augment: true,
		Seed:    seed,
	}
}

// tinySystem trains a 3-client system on a 4-class procedural dataset
// in well under a second.
func tinySystem(t testing.TB, cfg core.Config) (*core.System, *data.Dataset) {
	t.Helper()
	spec := data.Spec{Name: "tiny", H: 6, W: 6, C: 1, Classes: 4,
		TrainPerClass: 8, TestPerClass: 4, Noise: 0.1, Jitter: 1}
	train, test := data.Generate(spec, 5)
	parts := data.PartitionIID(train, 3, rand.New(rand.NewSource(6)))
	sys, err := core.NewSystem(cfg, data.NewCohort(parts))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	return sys, test
}

func newTestServer(t testing.TB, cfg core.Config, serveCfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sys, test := tinySystem(t, cfg)
	serveCfg.System = sys
	if serveCfg.Evaluator == nil {
		serveCfg.Evaluator = CohortEvaluator{Clients: sys.Clients, Test: test}
	}
	if serveCfg.ModelFactory == nil {
		serveCfg.ModelFactory = func() *nn.Model {
			return nn.NewConvNet(tinyArch(), rand.New(rand.NewSource(1)))
		}
	}
	s := New(serveCfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		ts.Close()
		checkSnapshotsReleased(t, s.store)
	})
	return s, ts
}

// checkSnapshotsReleased fails t unless every Acquire on st was
// Released: with the worker drained and every handler returned, the
// store holds one live version, referenced by the store alone.
func checkSnapshotsReleased(t testing.TB, st *SnapshotStore) {
	t.Helper()
	if live := st.Live(); live != 1 {
		t.Errorf("snapshot store has %d live versions after Drain, want 1: a superseded snapshot was Acquired and never Released", live)
	}
	if cur := st.cur.Load(); cur != nil && cur.refs.Load() != 1 {
		t.Errorf("snapshot version %d has %d references after Drain, want 1 (the store's): an Acquire was never Released", cur.version, cur.refs.Load())
	}
}

func postForget(t testing.TB, url string, body string) (int, View) {
	t.Helper()
	resp, err := http.Post(url+"/v1/forget", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, v
}

// postForgetRetryAfter posts a forget request and returns the reply's
// status and Retry-After header.
func postForgetRetryAfter(t testing.TB, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/forget", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func waitTerminal(t testing.TB, s *Server, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		tk, ok := s.ticket(id)
		if !ok {
			t.Fatalf("no ticket %d", id)
		}
		select {
		case <-tk.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("ticket %d stuck in state %v", id, tk.State())
		}
	}
}

// TestServerCoalescesConcurrentRequests is the end-to-end contract:
// K concurrent posts collapse into ONE batched SGA+recovery pass, the
// result publishes as a single new snapshot version, and every request
// carries its own audit entry with before/after accuracies.
func TestServerCoalescesConcurrentRequests(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
	s, ts := newTestServer(t, tinyConfig(9), Config{Telemetry: pipe})

	// Concurrent submissions while the worker is not yet running: they
	// pile up in the queue and must coalesce into exactly one batch.
	bodies := []string{
		`{"kind":"class","class":1}`,
		`{"kind":"class","class":2}`,
		`{"kind":"client","client":0}`,
	}
	ids := make([]uint64, len(bodies))
	var wg sync.WaitGroup
	wg.Add(len(bodies))
	for i, body := range bodies {
		go func(i int, body string) {
			defer wg.Done()
			code, v := postForget(t, ts.URL, body)
			if code != http.StatusAccepted {
				t.Errorf("post %d: status %d, want 202", i, code)
				return
			}
			if v.State != "queued" {
				t.Errorf("post %d: state %q, want queued", i, v.State)
			}
			ids[i] = v.ID
		}(i, body)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	s.Start()
	waitTerminal(t, s, ids...)

	var views struct {
		Requests []View `json:"requests"`
	}
	if code := getJSON(t, ts.URL+"/v1/requests", &views); code != http.StatusOK {
		t.Fatalf("/v1/requests status %d", code)
	}
	if len(views.Requests) != 3 {
		t.Fatalf("%d requests listed, want 3", len(views.Requests))
	}
	for _, v := range views.Requests {
		if v.State != "published" {
			t.Fatalf("request %d state %q (error %q), want published", v.ID, v.State, v.Error)
		}
		if v.Batch != 1 {
			t.Fatalf("request %d ran in batch %d, want 1 (coalesced)", v.ID, v.Batch)
		}
		if v.Version != 2 {
			t.Fatalf("request %d published version %d, want 2", v.ID, v.Version)
		}
	}

	st := s.Stats()
	if st.Batches != 1 {
		t.Fatalf("%d batches executed, want 1", st.Batches)
	}
	if st.Published != 3 || st.Failed != 0 {
		t.Fatalf("published=%d failed=%d, want 3/0", st.Published, st.Failed)
	}
	if st.ModelVersion != 2 {
		t.Fatalf("model version %d, want 2 (initial + one coalesced publish)", st.ModelVersion)
	}

	// One audit entry per request, before/after accuracies populated,
	// folded into the run-ledger manifest.
	entries := pipe.Audit.Entries()
	if len(entries) != 3 {
		t.Fatalf("%d audit entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.Status != "published" || e.Batch != 1 || e.Version != 2 {
			t.Fatalf("audit entry %+v: want published/batch 1/version 2", e)
		}
	}
	man := telemetry.BuildManifest(pipe, "serve-test", 9, nil)
	if len(man.Audit) != 3 {
		t.Fatalf("manifest carries %d audit entries, want 3", len(man.Audit))
	}
}

// TestDrainPublishesCoalescedBatchInOrder pins what Drain's return
// means for a coalesced batch: every ticket is already published, and
// the audit trail holds the batch in its canonical (sortTickets) order,
// so nothing of the batch is still running after the worker exits.
func TestDrainPublishesCoalescedBatchInOrder(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
	s, ts := newTestServer(t, tinyConfig(23), Config{Telemetry: pipe})
	// Queued before Start, in an order sortTickets changes: one batch.
	var batch []*Ticket
	for _, body := range []string{
		`{"kind":"sample","client":1,"samples":[3]}`,
		`{"kind":"client","client":2}`,
		`{"kind":"sample","client":1,"samples":[0]}`,
		`{"kind":"class","class":3}`,
		`{"kind":"sample","client":0,"samples":[2]}`,
		`{"kind":"client","client":0}`,
		`{"kind":"sample","client":1,"samples":[1]}`,
		`{"kind":"class","class":1}`,
	} {
		code, v := postForget(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("post %s: status %d", body, code)
		}
		tk, _ := s.ticket(v.ID)
		batch = append(batch, tk)
	}
	s.Start()
	s.Drain()

	sortTickets(batch)
	var want []uint64
	for _, tk := range batch {
		if v := tk.View(); v.State != "published" || v.Batch != 1 {
			t.Errorf("Drain returned with ticket %d %s in batch %d (error %q), want published in batch 1", tk.ID, v.State, v.Batch, v.Error)
		}
		want = append(want, tk.ID)
	}
	var got []uint64
	for _, e := range pipe.Audit.Entries() {
		got = append(got, e.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Drain returned with audit entries for tickets %v, want %v (the batch in sortTickets order)", got, want)
	}
}

// TestServerArrivalOrderIndependence pins the canonical-batch-order
// guarantee: the same request set posted in opposite orders publishes
// bitwise-identical model parameters.
func TestServerArrivalOrderIndependence(t *testing.T) {
	run := func(bodies []string) []float64 {
		s, ts := newTestServer(t, tinyConfig(21), Config{})
		ids := make([]uint64, len(bodies))
		for i, b := range bodies {
			code, v := postForget(t, ts.URL, b)
			if code != http.StatusAccepted {
				t.Fatalf("post: status %d", code)
			}
			ids[i] = v.ID
		}
		s.Start()
		waitTerminal(t, s, ids...)
		snap := s.Store().Acquire()
		defer snap.Release()
		if snap.Version() != 2 {
			t.Fatalf("version %d, want 2", snap.Version())
		}
		var flat []float64
		for _, p := range snap.Params() {
			flat = append(flat, p.Data()...)
		}
		return flat
	}

	a := run([]string{`{"kind":"class","class":1}`, `{"kind":"client","client":2}`, `{"kind":"class","class":3}`})
	b := run([]string{`{"kind":"class","class":3}`, `{"kind":"class","class":1}`, `{"kind":"client","client":2}`})
	if len(a) != len(b) {
		t.Fatalf("parameter counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("param %d differs across arrival orders: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestServerRejectsConcurrentDirectUnlearn drives the ErrBusy guard
// through the server path: while the worker holds the System inside a
// batch, a direct Unlearn from another goroutine is rejected.
func TestServerRejectsConcurrentDirectUnlearn(t *testing.T) {
	inUnlearn := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	cfg := tinyConfig(33)
	cfg.Observer = func(stage string) {
		if stage != "unlearn" {
			return
		}
		once.Do(func() {
			inUnlearn <- struct{}{}
			<-proceed
		})
	}
	s, ts := newTestServer(t, cfg, Config{})
	code, v := postForget(t, ts.URL, `{"kind":"class","class":0}`)
	if code != http.StatusAccepted {
		t.Fatalf("post: status %d", code)
	}
	s.Start()

	<-inUnlearn // worker is mid-batch, guard held
	_, err := s.sys.Unlearn(core.Request{Kind: core.ClassLevel, Class: 1})
	if !errors.Is(err, core.ErrBusy) {
		t.Errorf("direct Unlearn during batch: got %v, want core.ErrBusy", err)
	}
	close(proceed)
	waitTerminal(t, s, v.ID)
	if tk, _ := s.ticket(v.ID); tk.State() != StatePublished {
		t.Fatalf("ticket state %v, want published", tk.State())
	}
}

// TestServerRejectedAndFailedRequests covers per-request rejection
// inside an otherwise-successful batch, plus submission-time 400s.
func TestServerRejectedAndFailedRequests(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(41), Config{})

	for _, bad := range []string{
		`{"kind":"class"}`,
		`{"kind":"class","class":99}`,
		`{"kind":"client","client":-1}`,
		`{"kind":"sample","client":0}`,
		`{"kind":"nope"}`,
		`not json`,
	} {
		if code, _ := postForget(t, ts.URL, bad); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, code)
		}
	}

	// A duplicate inside the coalesced batch is rejected; the other
	// requests still publish.
	_, v1 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	_, v2 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	_, v3 := postForget(t, ts.URL, `{"kind":"class","class":2}`)
	s.Start()
	waitTerminal(t, s, v1.ID, v2.ID, v3.ID)

	states := map[string]int{}
	for _, id := range []uint64{v1.ID, v2.ID, v3.ID} {
		tk, _ := s.ticket(id)
		states[tk.State().String()]++
	}
	if states["published"] != 2 || states["failed"] != 1 {
		t.Fatalf("states %v, want 2 published + 1 failed", states)
	}
	st := s.Stats()
	if st.Published != 2 || st.Failed != 1 {
		t.Fatalf("stats published=%d failed=%d, want 2/1", st.Published, st.Failed)
	}
}

// TestServerPhaseFailureFailsTicketsAndRestoresModel injects a
// recovery-phase failure into a coalesced batch and pins the failure
// contract: every accepted ticket fails with the phase error (the
// audit trail must NOT record completed deletions), nothing is
// published, the worker's model is rewound bitwise to the last
// published snapshot, and — because core rolls the forget ledger back
// — the same requests succeed once the fault is fixed.
func TestServerPhaseFailureFailsTicketsAndRestoresModel(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
	cfg := tinyConfig(99)
	cfg.Recover.LR = -1 // SGA succeeds, then the recovery phase fails
	s, ts := newTestServer(t, cfg, Config{Telemetry: pipe})

	_, v1 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	_, v2 := postForget(t, ts.URL, `{"kind":"class","class":2}`)
	s.Start()
	waitTerminal(t, s, v1.ID, v2.ID)

	for _, id := range []uint64{v1.ID, v2.ID} {
		tk, _ := s.ticket(id)
		view := tk.View()
		if view.State != "failed" {
			t.Fatalf("ticket %d state %q, want failed", id, view.State)
		}
		if !strings.Contains(view.Error, "recovery phase") {
			t.Fatalf("ticket %d error %q, want the recovery-phase error", id, view.Error)
		}
		if view.Version != 0 {
			t.Fatalf("failed ticket %d claims published version %d", id, view.Version)
		}
	}
	if st := s.Stats(); st.Published != 0 || st.Failed != 2 || st.ModelVersion != 1 {
		t.Fatalf("published=%d failed=%d version=%d, want 0/2/1 (no publish on phase failure)",
			st.Published, st.Failed, st.ModelVersion)
	}

	// The worker's in-memory model must match the served snapshot
	// bitwise — a half-recovered model left in place would silently
	// poison the next batch.
	snap := s.Store().Acquire()
	defer snap.Release()
	cur := s.sys.Model.CloneParams()
	for i, p := range snap.Params() {
		want, got := p.Data(), cur[i].Data()
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("param %d[%d]: model %v != snapshot %v — model not restored after phase failure",
					i, j, got[j], want[j])
			}
		}
	}

	// The audit trail records the failures, not phantom deletions.
	entries := pipe.Audit.Entries()
	if len(entries) != 2 {
		t.Fatalf("%d audit entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Status != "failed" || e.Err == "" {
			t.Fatalf("audit entry %+v records a deletion that never completed", e)
		}
	}

	// Heal the config and resubmit one of the SAME requests: the
	// rolled-back ledger must accept it, and it publishes version 2.
	s.sys.Cfg.Recover.LR = 0.01
	_, v3 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	waitTerminal(t, s, v3.ID)
	tk, _ := s.ticket(v3.ID)
	if view := tk.View(); view.State != "published" || view.Version != 2 {
		t.Fatalf("resubmission after heal: %+v, want published at version 2", view)
	}
}

// TestServerQueueFullTicketsNotRetained pins the memory bound on the
// ticket index: submissions bounced at the door (429) are failed,
// counted and returned to the caller but never registered, so a client
// hammering a saturated queue cannot grow the daemon without bound.
func TestServerQueueFullTicketsNotRetained(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
	s, ts := newTestServer(t, tinyConfig(44), Config{QueueCap: 1, Telemetry: pipe})
	// Worker not started: the first post fills the queue, the rest bounce.
	code, v := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("first post: status %d, want 202", code)
	}
	for i := 0; i < 5; i++ {
		if code, retry := postForgetRetryAfter(t, ts.URL, `{"kind":"class","class":2}`); code != http.StatusTooManyRequests || retry != retryAfter {
			t.Fatalf("post %d into full queue: status %d, Retry-After %q, want 429 with %q", i, code, retry, retryAfter)
		}
	}
	views := s.views()
	if len(views) != 1 || views[0].ID != v.ID {
		t.Fatalf("ticket index holds %d entries, want only the accepted ticket %d", len(views), v.ID)
	}
	if _, ok := s.ticket(v.ID + 1); ok {
		t.Fatal("a 429-rejected ticket was retained in the index")
	}
	if st := s.Stats(); st.Failed != 5 {
		t.Fatalf("Stats().Failed = %d after five 429s, want 5", st.Failed)
	}
	if got := pipe.Registry.Summaries()["quickdropd_requests_failed_total"].Count; got != 5 {
		t.Fatalf("quickdropd_requests_failed_total = %d after five 429s, want 5", got)
	}
}

// TestServerStartAfterDrainRefuses pins the Start/Drain ordering: a
// Start issued after Drain must not launch a worker that Drain
// already decided not to wait for.
func TestServerStartAfterDrainRefuses(t *testing.T) {
	s, _ := newTestServer(t, tinyConfig(3), Config{})
	s.Drain()
	s.Start()
	if s.started.Load() {
		t.Fatal("Start launched a worker after Drain returned")
	}
}

// TestConcurrentDrainsCloseQueueBeforeReturning races two Drains and a
// Start on a server that was never started. Whichever Drain returns,
// and in whatever order, the queue must already refuse new requests and
// no worker may be running: a Drain that returned before another Drain
// closed the queue would let a request in that no worker will ever
// take. The test holds the queue's lock while the three race, so no
// Drain can close the queue, and none may return, until it lets go.
func TestConcurrentDrainsCloseQueueBeforeReturning(t *testing.T) {
	spec := data.Spec{Name: "tiny", H: 6, W: 6, C: 1, Classes: 4, TrainPerClass: 2, TestPerClass: 1}
	train, _ := data.Generate(spec, 1)
	cohort := data.NewCohort(data.PartitionIID(train, 2, rand.New(rand.NewSource(2))))
	req := core.Request{Kind: core.ClassLevel, Class: 1}
	for iter := 0; iter < 20; iter++ {
		sys, err := core.NewSystem(tinyConfig(1), cohort)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{System: sys})
		begin := make(chan struct{})
		returned := make(chan string, 2)
		errs := make(chan error, 3)
		drain := func(name string) {
			<-begin
			s.Drain()
			returned <- name
			if _, err := s.submit(req); !errors.Is(err, ErrQueueClosed) {
				errs <- fmt.Errorf("iteration %d: after the %s Drain returned, submit gave %v, want ErrQueueClosed", iter, name, err)
				return
			}
			if workerRunning() {
				errs <- fmt.Errorf("iteration %d: a worker is still running after the %s Drain returned", iter, name)
				return
			}
			errs <- nil
		}
		s.q.mu.Lock()
		go drain("first")
		go drain("second")
		go func() {
			<-begin
			s.Start()
			errs <- nil
		}()
		close(begin)
		select {
		case name := <-returned:
			s.q.mu.Unlock()
			t.Fatalf("iteration %d: the %s Drain returned before the queue was closed", iter, name)
		case <-time.After(20 * time.Millisecond):
		}
		s.q.mu.Unlock()
		for range 3 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// workerRunning reports whether any goroutine is in a server's worker
// loop. The package's tests do not run in parallel, so it sees only the
// server of the test that calls it.
func workerRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("quickdrop/internal/serve.(*Server).run("))
}

// TestServerWaitAndSequential exercises wait=true through a sequential
// (non-coalescing) server: each request runs in its own batch.
func TestServerWaitAndSequential(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(55), Config{Sequential: true})
	s.Start()

	code, v := postForget(t, ts.URL, `{"kind":"class","class":1,"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("wait post: status %d, want 200", code)
	}
	if v.State != "published" || v.Version != 2 || v.Batch != 1 {
		t.Fatalf("wait view %+v, want published in batch 1 at version 2", v)
	}
	code, v = postForget(t, ts.URL, `{"kind":"class","class":2,"wait":true}`)
	if code != http.StatusOK || v.Batch != 2 || v.Version != 3 {
		t.Fatalf("second wait view %+v (status %d), want batch 2 version 3", v, code)
	}
}

// TestServerPredictAndModel exercises the read path: /v1/model and
// /v1/predict serve from the snapshot store and never 5xx while
// unlearning runs.
func TestServerPredictAndModel(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(66), Config{})
	s.Start()

	var model map[string]any
	if code := getJSON(t, ts.URL+"/v1/model", &model); code != http.StatusOK {
		t.Fatalf("/v1/model status %d", code)
	}
	if v := model["version"].(float64); v != 1 {
		t.Fatalf("model version %v, want 1", v)
	}

	sample := make([]float64, 6*6)
	body, _ := json.Marshal(map[string]any{"inputs": [][]float64{sample, sample}})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewBuffer(body))
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		Version     uint64 `json:"version"`
		Predictions []int  `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pred.Predictions) != 2 {
		t.Fatalf("predict: status %d predictions %v", resp.StatusCode, pred.Predictions)
	}

	// Wrong input size is a 400, not a panic.
	body, _ = json.Marshal(map[string]any{"inputs": [][]float64{make([]float64, 5)}})
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewBuffer(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: status %d, want 400", resp.StatusCode)
	}
}

// TestServerDrain checks graceful shutdown: queued work completes,
// new submissions get 503, Drain is idempotent.
func TestServerDrain(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(77), Config{})
	_, v := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	s.Start()
	waitTerminal(t, s, v.ID)

	s.Drain()
	if code, retry := postForgetRetryAfter(t, ts.URL, `{"kind":"class","class":2}`); code != http.StatusServiceUnavailable || retry != retryAfter {
		t.Fatalf("post after drain: status %d, Retry-After %q, want 503 with %q", code, retry, retryAfter)
	}
	var st Stats
	if code := getJSON(t, ts.URL+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("/v1/status status %d", code)
	}
	if !st.Draining {
		t.Fatal("status should report draining")
	}
	s.Drain() // idempotent
}

// TestServerLingerCoalesces verifies the linger window: requests
// posted shortly AFTER the worker picks up the first one still fold
// into the same batch.
func TestServerLingerCoalesces(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(88), Config{Linger: 500 * time.Millisecond})
	s.Start()

	_, v1 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	time.Sleep(50 * time.Millisecond) // worker has dequeued v1 and is lingering
	_, v2 := postForget(t, ts.URL, `{"kind":"class","class":2}`)
	waitTerminal(t, s, v1.ID, v2.ID)

	t1, _ := s.ticket(v1.ID)
	t2, _ := s.ticket(v2.ID)
	b1, b2 := t1.View().Batch, t2.View().Batch
	if b1 != 1 || b2 != 1 {
		t.Fatalf("batches %d and %d, want both in batch 1 (lingered coalescing)", b1, b2)
	}
	if s.Stats().Batches != 1 {
		t.Fatalf("%d batches, want 1", s.Stats().Batches)
	}
}

// TestRequestBodyRoundTrip pins the wire form of each request kind.
func TestRequestBodyRoundTrip(t *testing.T) {
	cases := []core.Request{
		{Kind: core.ClassLevel, Class: 3},
		{Kind: core.ClientLevel, Client: 2},
		{Kind: core.SampleLevel, Client: 1, Samples: []int{4, 5}},
	}
	for _, req := range cases {
		b := requestBody(req)
		back, err := ForgetRequest{RequestBody: b}.toCore(10, 10)
		if err != nil {
			t.Fatalf("%v: %v", req, err)
		}
		if fmt.Sprint(back) != fmt.Sprint(req) {
			t.Fatalf("round trip %v → %v", req, back)
		}
	}
}

// TestServerReservesReaderCore: a system left at Workers 0 would train
// each phase's clients on every core, and /v1/predict would wait for a
// CPU behind them, so New keeps one core for the readers. A caller's
// explicit pool size stands.
func TestServerReservesReaderCore(t *testing.T) {
	sys, _ := tinySystem(t, tinyConfig(31))
	for _, tc := range []struct{ procs, workers, want int }{
		{1, 0, 1}, {2, 0, 1}, {3, 0, 2}, {4, 0, 3}, {2, 2, 2}, {3, 1, 1},
	} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			sys.Cfg.Workers = tc.workers
			New(Config{System: sys})
			if sys.Cfg.Workers != tc.want {
				t.Fatalf("GOMAXPROCS=%d Workers=%d: New set %d, want %d", tc.procs, tc.workers, sys.Cfg.Workers, tc.want)
			}
		}()
	}
}

// servedParams flattens the parameters of the server's current snapshot.
func servedParams(s *Server) []float64 {
	snap := s.Store().Acquire()
	defer snap.Release()
	var flat []float64
	for _, p := range snap.Params() {
		flat = append(flat, p.Data()...)
	}
	return flat
}

// auditFields returns the pipeline's audit trail without completion
// stamps, the one field that reads a clock.
func auditFields(pipe *telemetry.Pipeline) []telemetry.AuditEntry {
	entries := pipe.Audit.Entries()
	for i := range entries {
		entries[i].Stamp = 0
	}
	return entries
}

// requirePoolInvisible fails unless two runs published the same bits
// and wrote the same audit trail.
func requirePoolInvisible(t *testing.T, what string, inline, pooled []float64, inlineAudit, pooledAudit []telemetry.AuditEntry) {
	t.Helper()
	if len(inline) != len(pooled) {
		t.Fatalf("%s: %d vs %d parameters", what, len(pooled), len(inline))
	}
	for i := range inline {
		if math.Float64bits(inline[i]) != math.Float64bits(pooled[i]) {
			t.Fatalf("%s: param %d is %v on the pool, %v inline", what, i, pooled[i], inline[i])
		}
	}
	if !reflect.DeepEqual(inlineAudit, pooledAudit) {
		t.Fatalf("%s: audit trail on the pool %+v, inline %+v", what, pooledAudit, inlineAudit)
	}
}

// TestServerPooledWorkerPublishesSameModel: the worker's phases train
// their clients side by side when the system's Workers allows, and a
// coalesced batch must publish the same parameters and audit fields as
// on a system that trains them in turn.
func TestServerPooledWorkerPublishesSameModel(t *testing.T) {
	run := func(workers int) ([]float64, []telemetry.AuditEntry) {
		t.Helper()
		pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
		cfg := tinyConfig(33)
		cfg.Workers = workers
		s, ts := newTestServer(t, cfg, Config{Telemetry: pipe})
		var ids []uint64
		for _, body := range []string{`{"kind":"class","class":1}`, `{"kind":"client","client":2}`, `{"kind":"class","class":3}`} {
			code, v := postForget(t, ts.URL, body)
			if code != http.StatusAccepted {
				t.Fatalf("post %s: status %d", body, code)
			}
			ids = append(ids, v.ID)
		}
		s.Start()
		waitTerminal(t, s, ids...)
		if st := s.Stats(); st.Published != 3 || st.ModelVersion != 2 {
			t.Fatalf("workers=%d: stats %+v, want 3 published in version 2", workers, st)
		}
		return servedParams(s), auditFields(pipe)
	}
	inline, inlineAudit := run(1)
	pooled, pooledAudit := run(2)
	requirePoolInvisible(t, "published", inline, pooled, inlineAudit, pooledAudit)
}

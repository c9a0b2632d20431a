package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"quickdrop/internal/core"
	"quickdrop/internal/eval"
	"quickdrop/internal/nn"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

// countingEval counts the test-set passes the worker makes.
type countingEval struct {
	CohortEvaluator
	passes *atomic.Int64
}

func (e countingEval) Score(m *nn.Model) eval.Scores {
	e.passes.Add(1)
	return e.CohortEvaluator.Score(m)
}

// TestWorkerScoresMatchFreshEvaluation pins the worker's score reuse:
// for every class, every client and a sample request, the F-Set/R-Set
// the worker answers from its held scores equal, bit for bit, what
// eval.ClassSplit and eval.SubsetSplit compute on a fresh model loaded
// with the published snapshot — before and after each unlearn, and after
// a watchdog-refused batch, whose rewind leaves the held scores valid
// for the next ticket's before-values. It counts the test-set passes:
// one per published version, so N sequential singles cost N+1, not 2N.
// /v1/predict readers run throughout; scripts/check.sh runs it ten times
// under -race.
func TestWorkerScoresMatchFreshEvaluation(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
	cfg := tinyConfig(61)
	cfg.Health = health.New(health.Config{}, pipe)
	sys, test := tinySystem(t, cfg)
	var passes atomic.Int64
	s := New(Config{
		System:     sys,
		Evaluator:  countingEval{CohortEvaluator{Clients: sys.Clients, Test: test}, &passes},
		Sequential: true,
		Telemetry:  pipe,
		ModelFactory: func() *nn.Model {
			return nn.NewConvNet(tinyArch(), rand.New(rand.NewSource(1)))
		},
	})
	defer s.Drain()

	all := []core.Request{{Kind: core.SampleLevel, Client: 1, Samples: []int{0, 2, 5}}}
	for c := 0; c < tinyArch().Classes; c++ {
		all = append(all, core.Request{Kind: core.ClassLevel, Class: c})
	}
	for c := 0; c < sys.Clients.NumClients(); c++ {
		all = append(all, core.Request{Kind: core.ClientLevel, Client: c})
	}
	// published loads the served snapshot into a model of its own.
	published := func() *nn.Model {
		snap := s.Store().Acquire()
		m := nn.NewConvNet(tinyArch(), rand.New(rand.NewSource(1)))
		m.SetParams(snap.Params())
		return m
	}
	fresh := func(m *nn.Model, req core.Request) (fset, rset float64) {
		switch req.Kind {
		case core.ClassLevel:
			return eval.ClassSplit(m, test, req.Class)
		case core.ClientLevel:
			return eval.SubsetSplit(m, sys.Clients.Shard(req.Client), test)
		default:
			return eval.SubsetSplit(m, sys.Clients.Shard(req.Client).Subset(req.Samples), test)
		}
	}
	same := func(what string, req core.Request, gotF, gotR, wantF, wantR float64) {
		t.Helper()
		if math.Float64bits(gotF) != math.Float64bits(wantF) || math.Float64bits(gotR) != math.Float64bits(wantR) {
			t.Fatalf("%s, %v: worker %v/%v, fresh evaluation %v/%v", what, req, gotF, gotR, wantF, wantR)
		}
	}
	// checkAll asks the idle worker's evaluation path for every request.
	checkAll := func(what string) {
		t.Helper()
		m := published()
		for _, req := range all {
			f, r := s.eval(req)
			wantF, wantR := fresh(m, req)
			same(what, req, f, r, wantF, wantR)
		}
	}

	checkAll("version 1")
	// Split is Score and Lookup in one call.
	for _, req := range all {
		f, r := CohortEvaluator{Clients: sys.Clients, Test: test}.Split(published(), req)
		wantF, wantR := fresh(published(), req)
		same("Split", req, f, r, wantF, wantR)
	}
	body, err := json.Marshal(predictBody{Inputs: [][]float64{make([]float64, 6*6)}})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("predict: status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	s.Start()

	steps := []struct {
		req    core.Request
		poison bool
	}{
		{req: core.Request{Kind: core.ClassLevel, Class: 1}},
		{req: core.Request{Kind: core.ClientLevel, Client: 0}},
		{req: core.Request{Kind: core.SampleLevel, Client: 1, Samples: []int{0, 2, 5}}},
		{req: core.Request{Kind: core.ClassLevel, Class: 2}, poison: true},
		{req: core.Request{Kind: core.ClassLevel, Class: 3}},
	}
	for _, step := range steps {
		before := published()
		if step.poison {
			s.sys.Cfg.PoisonPhase = "unlearn"
		}
		tk, err := s.submit(step.req)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, tk.ID)
		s.sys.Cfg.PoisonPhase = ""
		v := tk.View()
		wantF, wantR := fresh(before, step.req)
		same("before", step.req, v.FsetBefore, v.RsetBefore, wantF, wantR)
		if step.poison {
			if v.State != StateFailed.String() || v.Watchdog == "" {
				t.Fatalf("poisoned %v: state %s, watchdog %q; want a watchdog-failed ticket", step.req, v.State, v.Watchdog)
			}
			checkAll("after the rewind")
			continue
		}
		if v.State != StatePublished.String() {
			t.Fatalf("%v: state %s (%s), want published", step.req, v.State, v.Error)
		}
		wantF, wantR = fresh(published(), step.req)
		same("after", step.req, v.FsetAfter, v.RsetAfter, wantF, wantR)
		checkAll("after " + step.req.String())
	}
	stopReaders()

	st := s.Stats()
	if st.Published != 4 || st.Failed != 1 {
		t.Fatalf("published=%d failed=%d, want 4/1", st.Published, st.Failed)
	}
	if got, want := passes.Load(), st.Published+1; got != want {
		t.Fatalf("%d test-set passes for %d published singles, want %d: one per published version", got, st.Published, want)
	}
}

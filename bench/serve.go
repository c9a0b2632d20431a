package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/nn"
	"quickdrop/internal/serve"
)

// serve_mixed: the core layer used through the serving layer over HTTP —
// all three request kinds, coalesced and single, with paced reads beside
// the writes. One step is one epoch on a fresh server.

const (
	idlePredicts    = 40
	predictInterval = 10 * time.Millisecond // open schedule, 100 req/s
)

func setupServe(e *env) error {
	if _, err := e.trainCore(); err != nil {
		return err
	}
	return warmUp(stepServeEpoch, e)
}

// epochPlan is the forget traffic of epoch ep: three requests queued
// before the worker starts, so they coalesce into exactly one batch, then
// five sent one at a time. Targets rotate with the epoch index; within an
// epoch every class and client is named once, so nothing is rejected as
// already unlearned.
func (e *env) epochPlan(ep int) (burst, singles []core.Request) {
	class := func(d int) int { return (ep + d) % e.classes() }
	client := func(d int) int { return (ep + d) % e.clients() }
	sample := func(cl, d int) core.Request {
		return core.Request{Kind: core.SampleLevel, Client: client(cl), Samples: []int{e.sampleOf(client(cl), class(d))}}
	}
	burst = []core.Request{
		{Kind: core.ClassLevel, Class: class(0)},
		sample(0, 1),
		{Kind: core.ClassLevel, Class: class(2)},
	}
	singles = []core.Request{
		{Kind: core.ClassLevel, Class: class(3)},
		{Kind: core.ClientLevel, Client: client(1)},
		sample(2, 4),
		{Kind: core.ClassLevel, Class: class(5)},
		sample(3, 6),
	}
	return burst, singles
}

// mustJSON encodes a value built from ints, strings and finite floats,
// for which encoding cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func forgetBody(r core.Request, wait bool) []byte {
	body := map[string]any{"wait": wait}
	switch r.Kind {
	case core.ClassLevel:
		body["kind"], body["class"] = "class", r.Class
	case core.ClientLevel:
		body["kind"], body["client"] = "client", r.Client
	case core.SampleLevel:
		body["kind"], body["client"], body["samples"] = "sample", r.Client, r.Samples
	}
	return mustJSON(body)
}

// predictJSON is the /v1/predict body for the 8-input batch.
func (e *env) predictJSON() []byte {
	x := e.predictBatch()
	per := x.Len() / x.Dim(0)
	inputs := make([][]float64, x.Dim(0))
	for i := range inputs {
		inputs[i] = x.Data()[i*per : (i+1)*per]
	}
	return mustJSON(map[string]any{"inputs": inputs})
}

// httpClient is one epoch's two keep-alive connections: one for the
// forget caller, one for the paced reader.
type httpClient struct {
	c    *http.Client
	base string
}

func (h httpClient) post(path string, body []byte, wantStatus int, out any) error {
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, "POST "+path, wantStatus, out)
}

// decodeReply checks the status and decodes the JSON body of a reply,
// closing it either way; the body is only read, so Close has nothing to
// report.
func decodeReply(resp *http.Response, what string, wantStatus int, out any) error {
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != wantStatus {
		var msg struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&msg) // best-effort detail for the failure reason
		return fmt.Errorf("%s: status %d, want %d: %s", what, resp.StatusCode, wantStatus, msg.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// predict posts the 8-input batch and checks the reply holds 8 labels.
func (h httpClient) predict(body []byte, want int) error {
	var out struct {
		Predictions []int `json:"predictions"`
	}
	if err := h.post("/v1/predict", body, http.StatusOK, &out); err != nil {
		return err
	}
	if len(out.Predictions) != want {
		return fmt.Errorf("predict returned %d labels, want %d", len(out.Predictions), want)
	}
	return nil
}

// pacedReads is what the paced predict client measured during an epoch.
type pacedReads struct {
	latencyMS, lateMS []float64
	spans             [][2]time.Time
	errs              []error
}

// runPaced sends predictions on the open schedule until stop closes.
// Latency is taken from each request's due time; lateness is how far
// behind schedule the generator itself ran.
func runPaced(h httpClient, body []byte, want int, stop <-chan struct{}) pacedReads {
	var r pacedReads
	p := pacer{start: time.Now(), interval: predictInterval}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		timer.Reset(time.Until(p.due(i)))
		select {
		case <-stop:
			return r
		case <-timer.C:
		}
		sent := time.Now()
		err := h.predict(body, want)
		done := time.Now()
		if err != nil {
			r.errs = append(r.errs, err)
			continue
		}
		r.latencyMS = append(r.latencyMS, ms(p.latency(i, done)))
		r.lateMS = append(r.lateMS, ms(p.lateness(i, sent)))
		r.spans = append(r.spans, [2]time.Time{sent, done})
	}
}

func stepServeEpoch(e *env, ep int, s *samples, tr *tracer, parent int) {
	sys, err := e.freshSystem(nil)
	if err != nil {
		s.attempted++
		s.fail("%v", err)
		return
	}
	srv := serve.New(serve.Config{
		System:    sys,
		Evaluator: serve.CohortEvaluator{Clients: e.cohort, Test: e.test},
		ModelFactory: func() *nn.Model {
			return nn.NewConvNet(e.cfg.Arch, rand.New(rand.NewSource(1)))
		},
	})
	ts := httptest.NewServer(srv.Handler())
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	h := httpClient{c: &http.Client{Transport: transport}, base: ts.URL}
	defer func() {
		srv.Drain()
		transport.CloseIdleConnections()
		ts.Close()
	}()
	opID := ep + 1
	epoch := tr.begin("epoch", parent, opID)
	defer tr.finish(epoch)

	body := e.predictJSON()
	want := e.predictBatch().Dim(0)
	for i := 0; i < idlePredicts; i++ {
		s.attempted++
		t0 := time.Now()
		if err := h.predict(body, want); err != nil {
			s.fail("idle predict: %v", err)
			continue
		}
		t1 := time.Now()
		s.add("serve.predict_idle_ms", ms(t1.Sub(t0)))
		tr.add("client.predict_idle", t0, t1, epoch, opID)
	}

	stop := make(chan struct{})
	paced := make(chan pacedReads, 1)
	go func() { paced <- runPaced(h, body, want, stop) }()

	burst, singles := e.epochPlan(ep)
	key := func(r core.Request) string {
		return fmt.Sprintf("epoch %d/%d: %v", ep%e.classes(), ep%e.clients(), r)
	}
	// published reads quality off a terminal ticket: the only point at
	// which the serving layer's accuracies are synchronised with the model.
	published := func(r core.Request, v serve.View) bool {
		if v.State != serve.StatePublished.String() {
			s.fail("%s: ticket %d ended %s: %s", key(r), v.ID, v.State, v.Error)
			return false
		}
		return s.quality(key(r), r.Kind == core.ClassLevel, v.FsetAfter, v.RsetAfter)
	}

	// The burst is queued before the worker exists, so the worker's first
	// drain takes all three: one batch, whatever the machine is doing.
	queued := true
	for _, r := range burst {
		var v serve.View
		if err := h.post("/v1/forget", forgetBody(r, false), http.StatusAccepted, &v); err != nil {
			s.attempted++
			s.fail("%s: %v", key(r), err)
			queued = false
		}
	}
	started := time.Now()
	srv.Start()
	if queued {
		deadline := started.Add(30 * time.Second)
		for st := srv.Stats(); st.Published+st.Failed < int64(len(burst)) && time.Now().Before(deadline); st = srv.Stats() {
			time.Sleep(200 * time.Microsecond)
		}
		var list struct {
			Requests []serve.View `json:"requests"`
		}
		s.attempted += len(burst)
		if err := getJSON(h, "/v1/requests", &list); err != nil || len(list.Requests) != len(burst) {
			s.failed += len(burst) - 1
			s.fail("burst: listing tickets: %d listed, err %v", len(list.Requests), err)
		} else {
			batches := srv.Stats().Batches
			s.add("serve.burst3_batches", float64(batches))
			if batches != 1 {
				s.fail("burst of %d took %d batches, want 1", len(burst), batches)
			}
			last := started
			for _, v := range list.Requests {
				if done := time.Unix(0, v.Completed); done.After(last) {
					last = done
				}
			}
			bs := tr.add("serve.burst3", started, last, epoch, opID)
			for i, v := range list.Requests {
				// The worker sorts a batch canonically, but the listing is
				// in submission order, which is the plan's order.
				published(burst[i], v)
				tr.add("serve.ticket", time.Unix(0, v.Enqueued), time.Unix(0, v.Completed), bs, opID)
			}
			s.add("serve.burst3_ms", ms(last.Sub(started)))
		}
	}

	for _, r := range singles {
		s.attempted++
		var v serve.View
		t0 := time.Now()
		err := h.post("/v1/forget", forgetBody(r, true), http.StatusOK, &v)
		t1 := time.Now()
		if err != nil {
			s.fail("%s: %v", key(r), err)
			continue
		}
		if !published(r, v) {
			continue
		}
		rtt := t1.Sub(t0)
		ticket := time.Duration(v.Completed - v.Enqueued)
		s.opMS = append(s.opMS, ms(rtt))
		s.add("serve.ticket_ms", ms(ticket))
		s.add("serve.http_overhead_ms", ms(rtt-ticket))
		s.add("serve.forget_"+v.Request.Kind+"_ms", ms(rtt))
		rt := tr.add("client.forget", t0, t1, epoch, opID)
		tr.add("serve.ticket", time.Unix(0, v.Enqueued), time.Unix(0, v.Completed), rt, opID)
	}

	close(stop)
	r := <-paced
	s.attempted += len(r.latencyMS) + len(r.errs)
	for _, err := range r.errs {
		s.fail("paced predict: %v", err)
	}
	s.predictMS = append(s.predictMS, r.latencyMS...)
	for i := range r.latencyMS {
		s.add("serve.predict_load_ms", r.latencyMS[i])
		s.add("serve.predict_late_ms", r.lateMS[i])
		tr.add("client.predict", r.spans[i][0], r.spans[i][1], epoch, opID)
	}
}

func getJSON(h httpClient, path string, out any) error {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return err
	}
	return decodeReply(resp, "GET "+path, http.StatusOK, out)
}

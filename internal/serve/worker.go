package serve

import (
	"errors"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

// run is the single worker loop: wait for a request, linger briefly so
// concurrent submitters pile up, drain the whole backlog, and execute
// it as one coalesced batch. Exits when the queue is closed and empty.
func (s *Server) run() {
	for {
		t, ok := s.q.Wait()
		if !ok {
			return
		}
		batch := []*Ticket{t}
		if !s.cfg.Sequential {
			s.linger()
			batch = append(batch, s.q.TakeAll()...)
		}
		s.runBatch(batch)
	}
}

// linger gives concurrent submitters a coalescing window. Cut short by
// Drain so shutdown never waits out the full window.
func (s *Server) linger() {
	if s.cfg.Linger <= 0 {
		return
	}
	timer := time.NewTimer(s.cfg.Linger)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-s.stop:
	}
}

// runBatch executes one coalesced unlearning pass and publishes the
// resulting model as a new snapshot version.
func (s *Server) runBatch(tickets []*Ticket) {
	// Only the worker adds batches, so the count it reads back is this
	// batch's sequence number.
	s.metrics.batches.Inc()
	seq := uint64(s.metrics.batches.Value())
	// Canonical order makes the published parameters a function of the
	// request set: K requests coalesce to the same model no matter how
	// their HTTP posts interleaved.
	sortTickets(tickets)

	reqs := make([]core.Request, len(tickets))
	for i, t := range tickets {
		fset, rset := s.eval(t.Req)
		t.coalesce(seq, fset, rset)
		reqs[i] = t.Req
	}
	s.metrics.batchRequests.Observe(float64(len(tickets)))

	for _, t := range tickets {
		t.setState(StateUnlearning)
	}
	br, err := s.sys.UnlearnBatch(reqs)
	rejected := make(map[int]error, len(br.Rejected))
	for _, re := range br.Rejected {
		rejected[re.Index] = re.Err
	}
	if err != nil {
		// No consistent unlearned model exists, so nothing is published
		// and EVERY ticket fails — individually-rejected ones with their
		// own resolution error, the rest with the shared batch error. The
		// forget ledger is already back at its pre-batch state
		// (UnlearnBatch's error contract); if a phase ran at all the
		// model may be mid-ascent or unrecovered, so rewind it to the
		// last published snapshot before the next batch.
		if len(br.Requests) > 0 {
			s.restoreModel()
		}
		// A watchdog-refused batch is a health event, not an ordinary
		// failure: pin the verdict on every ticket that reached a phase,
		// then re-arm the monitor so the NEXT batch gets a fresh verdict
		// against the rewound (known-good) parameters.
		verdict := ""
		var uh *health.UnhealthyError
		if errors.As(err, &uh) {
			verdict = uh.Verdict.String()
			s.sys.Cfg.Health.Reset()
		}
		// Totals and audit entry before the ticket's waiters wake: whoever
		// sees a ticket done must find it counted and audited.
		s.metrics.failed.Add(int64(len(tickets)))
		for i, t := range tickets {
			audit := func() { s.audit(t) }
			rErr := rejected[i]
			if rErr == nil {
				rErr = err
				if verdict != "" {
					t.failWatchdog(rErr, verdict, audit)
					continue
				}
			}
			t.fail(rErr, audit)
		}
		return
	}

	for i, t := range tickets {
		if rejected[i] == nil {
			t.setState(StateRecovered)
		}
	}

	sw := telemetry.StartTimer()
	version := s.store.Publish(s.sys.Model.CloneParams())
	s.scores = nil
	s.metrics.publishSeconds.Observe(sw.Elapsed().Seconds())
	s.metrics.modelVersion.Set(float64(version))

	for i, t := range tickets {
		audit := func() { s.audit(t) }
		if rErr := rejected[i]; rErr != nil {
			s.metrics.failed.Inc()
			t.fail(rErr, audit)
		} else {
			fset, rset := s.eval(t.Req)
			s.metrics.published.Inc()
			t.finish(StatePublished, version, fset, rset, nil, audit)
		}
	}
}

// restoreModel rewinds the worker's in-memory model to the last
// published snapshot after a failed phase, so the next batch starts
// from exactly the parameters readers are being served instead of a
// partially-ascended or half-recovered state. Those are the parameters
// the held test-set scores belong to, so the scores stay valid.
func (s *Server) restoreModel() {
	s.sys.Model.SetParams(s.store.Acquire().Params())
}

// eval measures a request's forget/retain accuracy on the system's
// current model (zeros without an evaluator). The worker's model is
// always the last published version between batches, so its test-set
// scores are taken on the first ask after each publish and every other
// ask is a lookup.
func (s *Server) eval(req core.Request) (fset, rset float64) {
	if s.cfg.Evaluator == nil {
		return 0, 0
	}
	if s.scores == nil {
		scores := s.cfg.Evaluator.Score(s.sys.Model)
		s.scores = &scores
	}
	return s.cfg.Evaluator.Lookup(s.sys.Model, *s.scores, req)
}

// audit mirrors a terminal ticket into the run-ledger audit trail.
func (s *Server) audit(t *Ticket) {
	if s.cfg.Telemetry == nil {
		return
	}
	s.cfg.Telemetry.Audit.Append(t.audit())
}

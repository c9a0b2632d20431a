package serve

import (
	"strings"
	"testing"

	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

// TestServerWatchdogRefusesPublish is the numerics-health end-to-end
// contract: a NaN injected into the model right before the SGA phase
// trips the divergence watchdog, EVERY coalesced ticket fails with the
// watchdog verdict pinned on it, nothing is published, the worker's
// model rewinds bitwise to the served snapshot, the audit trail records
// the verdicts — and after the monitor re-arms, a clean resubmission
// publishes normally.
func TestServerWatchdogRefusesPublish(t *testing.T) {
	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
	mon := health.New(health.Config{}, pipe)
	cfg := tinyConfig(123)
	cfg.Health = mon
	cfg.PoisonPhase = "unlearn" // fault injection: NaN before SGA
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
		if view.Watchdog == "" || !strings.Contains(view.Watchdog, "nan") {
			t.Fatalf("ticket %d watchdog = %q, want a NaN verdict", id, view.Watchdog)
		}
		if view.Version != 0 {
			t.Fatalf("watchdog-failed ticket %d claims published version %d", id, view.Version)
		}
	}
	if st := s.Stats(); st.Published != 0 || st.Failed != 2 || st.ModelVersion != 1 {
		t.Fatalf("published=%d failed=%d version=%d, want 0/2/1 (watchdog must refuse the publish)",
			st.Published, st.Failed, st.ModelVersion)
	}
	if got := pipe.Registry.Summaries()["quickdrop_health_watchdog_trips_total"].Count; got != 1 {
		t.Fatalf("quickdrop_health_watchdog_trips_total = %v, want 1", got)
	}

	// The worker rewound its model to the served snapshot bitwise — in
	// particular the planted NaN is gone.
	snap := s.Store().Acquire()
	cur := s.sys.Model.CloneParams()
	for i, p := range snap.Params() {
		want, got := p.Data(), cur[i].Data()
		for j := range want {
			if want[j] != got[j] {
				snap.Release()
				t.Fatalf("param %d[%d]: model %v != snapshot %v — model not restored after watchdog trip",
					i, j, got[j], want[j])
			}
		}
	}
	snap.Release()

	// Audit entries carry the watchdog verdict.
	entries := pipe.Audit.Entries()
	if len(entries) != 2 {
		t.Fatalf("%d audit entries, want 2", len(entries))
	}
	for _, e := range entries {
		if e.Status != "failed" || e.Watchdog == "" {
			t.Fatalf("audit entry %+v should record the watchdog verdict", e)
		}
	}

	// The worker re-armed the monitor after the rewind; with the fault
	// injection cleared, the same request executes and publishes.
	if !mon.Summary().Healthy {
		t.Fatal("worker must Reset the monitor after restoring the model")
	}
	s.sys.Cfg.PoisonPhase = ""
	_, v3 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	waitTerminal(t, s, v3.ID)
	tk, _ := s.ticket(v3.ID)
	if view := tk.View(); view.State != "published" || view.Version != 2 || view.Watchdog != "" {
		t.Fatalf("resubmission after re-arm: %+v, want published at version 2 with no watchdog verdict", view)
	}
	if h := mon.Summary(); h == nil || !h.Tripped || h.Trips != 1 || !h.Healthy {
		t.Fatalf("manifest health summary %+v: trip history must survive, current state healthy", h)
	}
}

// TestHealthTripRewindPooledMatchesInline runs the watchdog's refuse,
// rewind and re-arm path of TestServerWatchdogRefusesPublish on a system
// whose phases train on a pool of two workers, and on one that trains
// its clients in turn: the rewound model, the model the clean
// resubmission publishes and every audit field must agree.
func TestHealthTripRewindPooledMatchesInline(t *testing.T) {
	run := func(workers int) (rewound, published []float64, audit []telemetry.AuditEntry) {
		t.Helper()
		pipe := telemetry.NewPipeline(telemetry.NewRegistry(), 3)
		cfg := tinyConfig(123)
		cfg.Workers = workers
		cfg.Health = health.New(health.Config{}, pipe)
		cfg.PoisonPhase = "unlearn"
		s, ts := newTestServer(t, cfg, Config{Telemetry: pipe})
		_, v1 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
		_, v2 := postForget(t, ts.URL, `{"kind":"class","class":2}`)
		s.Start()
		waitTerminal(t, s, v1.ID, v2.ID)
		if st := s.Stats(); st.Failed != 2 || st.ModelVersion != 1 {
			t.Fatalf("workers=%d: stats %+v, want 2 failed and version 1", workers, st)
		}
		for _, p := range s.sys.Model.ParamTensors() {
			rewound = append(rewound, p.Data()...)
		}
		s.sys.Cfg.PoisonPhase = ""
		_, v3 := postForget(t, ts.URL, `{"kind":"class","class":1}`)
		waitTerminal(t, s, v3.ID)
		if st := s.Stats(); st.Published != 1 || st.ModelVersion != 2 {
			t.Fatalf("workers=%d: stats %+v, want the resubmission published in version 2", workers, st)
		}
		return rewound, servedParams(s), auditFields(pipe)
	}
	inlineRewound, inline, inlineAudit := run(1)
	pooledRewound, pooled, pooledAudit := run(2)
	requirePoolInvisible(t, "rewound", inlineRewound, pooledRewound, nil, nil)
	requirePoolInvisible(t, "published", inline, pooled, inlineAudit, pooledAudit)
}

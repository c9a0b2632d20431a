// Package serve turns a trained QuickDrop system into an
// unlearning-as-a-service daemon. Forget requests arrive over
// HTTP/JSON, queue into a bounded buffer, and a single worker drains
// the whole backlog into ONE coalesced SGA + recovery pass
// (core.System.UnlearnBatch), amortizing recovery — the expensive
// stage — across every pending deletion the same way the paper
// amortizes distillation across training. Each pass publishes an
// immutable copy-on-write model snapshot; inference reads never block
// on unlearning, and every request leaves a before/after forget-set
// accuracy entry in the run-ledger audit trail.
package serve

import (
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/eval"
	"quickdrop/internal/nn"
	"quickdrop/internal/par"
	"quickdrop/internal/telemetry"
)

// DefaultQueueCap bounds the request queue when Config.QueueCap is 0.
const DefaultQueueCap = 256

// Config assembles a Server.
type Config struct {
	// System is the trained QuickDrop system the worker mutates. The
	// server owns it exclusively once Start is called — concurrent
	// callers going around the queue are rejected with core.ErrBusy.
	// New resolves its Cfg.Workers of 0 to max(1, GOMAXPROCS−1).
	System *core.System
	// Evaluator measures per-request forget/retain accuracy for the
	// audit trail, scoring each published version on the test set once.
	// Nil disables accuracy audit fields (they report 0).
	Evaluator Evaluator
	// ModelFactory builds throwaway models for /v1/predict workers; each
	// gets snapshot parameters swapped in via SetParams. Nil disables
	// the predict endpoint.
	ModelFactory func() *nn.Model
	// QueueCap bounds the request queue (DefaultQueueCap when 0).
	QueueCap int
	// Linger is how long the worker waits after the first request of a
	// batch for more to coalesce. Zero means drain whatever is already
	// queued and go.
	Linger time.Duration
	// Sequential disables coalescing: one request per batch, in order.
	// The zero value — coalescing on — is the point of the daemon.
	Sequential bool
	// Telemetry, if set, receives the daemon's metrics and the
	// per-request audit log folded into the run ledger.
	Telemetry *telemetry.Pipeline
}

// Server is the unlearning service: HTTP handlers produce tickets into
// the queue, one worker coalesces and executes them, and a snapshot
// store publishes the results to readers.
type Server struct {
	cfg     Config
	sys     *core.System
	q       *Queue
	store   *SnapshotStore
	mux     *http.ServeMux
	metrics *serveMetrics

	workers par.Group
	stop    chan struct{}
	// life serializes Start and Drain so a Start racing a Drain either
	// launches the worker before Drain waits, or not at all. It is held
	// alone: Drain closes the queue before taking it.
	life     sync.Mutex
	started  atomic.Bool
	draining atomic.Bool

	nextID atomic.Uint64

	// scores are the test-set scores of the last published version,
	// nil until the worker first asks after a publish. Only the worker
	// touches them.
	scores *eval.Scores

	evalPool sync.Pool
}

// New assembles a server around a trained system and publishes the
// current model as snapshot version 1. A system left at Workers 0
// (GOMAXPROCS) gets every core but one, and at least 1: the worker's
// phases would otherwise take every core, and /v1/predict would wait
// for a CPU behind them.
func New(cfg Config) *Server {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.System.Cfg.Workers == 0 {
		cfg.System.Cfg.Workers = max(1, runtime.GOMAXPROCS(0)-1)
	}
	s := &Server{
		cfg:     cfg,
		sys:     cfg.System,
		q:       NewQueue(cfg.QueueCap),
		store:   NewSnapshotStore(),
		mux:     http.NewServeMux(),
		metrics: newServeMetrics(cfg.Telemetry),
		stop:    make(chan struct{}),
	}
	if cfg.ModelFactory != nil {
		s.evalPool.New = func() any { return cfg.ModelFactory() }
	}
	version := s.store.Publish(s.sys.Model.CloneParams())
	s.metrics.modelVersion.Set(float64(version))
	s.routes()
	return s
}

// Handler returns the server's HTTP handler: the /v1 API plus the
// telemetry surface (/metrics, /debug/pprof).
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the snapshot store (tests and embedding callers).
func (s *Server) Store() *SnapshotStore { return s.store }

// Start launches the worker. Idempotent, and a no-op once Drain has
// begun — the life mutex makes Start/Drain ordering deterministic, so
// a racing Start can never launch a worker Drain will not wait for.
// Requests enqueued before Start sit in the queue and coalesce into
// the first batch.
func (s *Server) Start() {
	s.life.Lock()
	defer s.life.Unlock()
	if s.draining.Load() || !s.started.CompareAndSwap(false, true) {
		return
	}
	s.workers.Go(s.run)
}

// Drain stops accepting new requests, lets the worker finish the
// backlog (still coalesced), and blocks until it exits. Idempotent;
// concurrent callers all block until the worker is done. Every caller
// closes the queue first, so once any Drain returns the queue refuses
// new requests and no worker can start.
func (s *Server) Drain() {
	s.q.Close()
	s.life.Lock()
	if s.draining.CompareAndSwap(false, true) {
		close(s.stop)
	}
	s.life.Unlock()
	s.workers.Wait()
}

// Stats is the /v1/status payload.
type Stats struct {
	QueueDepth    int    `json:"queue_depth"`
	Batches       uint64 `json:"batches_total"`
	Published     int64  `json:"requests_published_total"`
	Failed        int64  `json:"requests_failed_total"`
	ModelVersion  uint64 `json:"model_version"`
	LiveSnapshots int    `json:"live_snapshots"`
	Draining      bool   `json:"draining"`
}

// Stats snapshots the server's counters: the same ones /metrics
// exposes.
func (s *Server) Stats() Stats {
	return Stats{
		QueueDepth:    s.q.Len(),
		Batches:       uint64(s.metrics.batches.Value()),
		Published:     s.metrics.published.Value(),
		Failed:        s.metrics.failed.Value(),
		ModelVersion:  s.store.Version(),
		LiveSnapshots: s.store.Live(),
		Draining:      s.draining.Load(),
	}
}

// submit enqueues a ticket, which the queue's index retains once
// accepted. A rejected ticket (queue full or closed) is counted as
// failed and returned to the caller for the error response but never
// retained — otherwise an untrusted client hammering a saturated queue
// would grow the never-pruned index without bound.
func (s *Server) submit(req core.Request) (*Ticket, error) {
	t := newTicket(s.nextID.Add(1), req)
	if err := s.q.Enqueue(t); err != nil {
		s.metrics.failed.Inc()
		t.fail(err, nil)
		return t, err
	}
	return t, nil
}

// ticket looks up an accepted ticket by ID.
func (s *Server) ticket(id uint64) (*Ticket, bool) { return s.q.lookup(id) }

// views snapshots every accepted ticket in submission order.
func (s *Server) views() []View {
	index := s.q.accepted()
	out := make([]View, len(index))
	for i, t := range index {
		out[i] = t.View()
	}
	return out
}

// sortTickets orders a batch canonically — by kind, then target, then
// sample list, then ticket ID — so the published model is a function of
// the coalesced SET of requests, not of their arrival interleaving.
func sortTickets(ts []*Ticket) {
	sort.SliceStable(ts, func(i, j int) bool {
		a, b := ts[i].Req, ts[j].Req
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		for k := 0; k < len(a.Samples) && k < len(b.Samples); k++ {
			if a.Samples[k] != b.Samples[k] {
				return a.Samples[k] < b.Samples[k]
			}
		}
		if len(a.Samples) != len(b.Samples) {
			return len(a.Samples) < len(b.Samples)
		}
		return ts[i].ID < ts[j].ID
	})
}

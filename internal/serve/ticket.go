package serve

import (
	"fmt"
	"sync"

	"quickdrop/internal/core"
	"quickdrop/internal/telemetry"
)

// State is a request's position in the serving lifecycle:
//
//	queued → coalesced → unlearning → recovered → published
//	                                            ↘ failed
//
// Failed is reachable from any earlier state (parse-time rejection,
// batch resolution failure, phase error). legal is the whole table:
// every state write goes through State.to, which panics on any other
// edge.
type State int32

const (
	StateQueued State = iota
	StateCoalesced
	StateUnlearning
	StateRecovered
	StatePublished
	StateFailed
)

// legal[from][to] reports whether from → to is a lifecycle edge. A
// terminal state has none, so finishing a ticket twice panics too.
var legal = [StateFailed + 1][StateFailed + 1]bool{
	StateQueued:     {StateCoalesced: true, StateFailed: true},
	StateCoalesced:  {StateUnlearning: true, StateFailed: true},
	StateUnlearning: {StateRecovered: true, StateFailed: true},
	StateRecovered:  {StatePublished: true, StateFailed: true},
}

// to returns next if s → next is a lifecycle edge and panics naming both
// states otherwise: an illegal move is a bug in the worker, not a
// request error.
func (s State) to(next State) State {
	if !legal[s][next] {
		panic(fmt.Sprintf("serve: illegal ticket transition %s -> %s", s, next))
	}
	return next
}

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateCoalesced:
		return "coalesced"
	case StateUnlearning:
		return "unlearning"
	case StateRecovered:
		return "recovered"
	case StatePublished:
		return "published"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Ticket tracks one forget request through the serving lifecycle. The
// worker mutates it; HTTP handlers snapshot it via View; waiters block
// on Done.
type Ticket struct {
	ID  uint64
	Req core.Request

	mu      sync.Mutex
	state   State
	batch   uint64
	version uint64
	fsetB   float64
	fsetA   float64
	rsetB   float64
	rsetA   float64
	err     error
	// watchdog, when non-empty, records the numerics-watchdog verdict
	// ("nan_loss in phase unlearn") that aborted the ticket's batch —
	// distinguishing a refused publish from an ordinary phase failure.
	watchdog string
	enqueued int64
	done     int64
	doneCh   chan struct{}
}

func newTicket(id uint64, req core.Request) *Ticket {
	return &Ticket{
		ID:       id,
		Req:      req,
		state:    StateQueued,
		enqueued: telemetry.Now(),
		doneCh:   make(chan struct{}),
	}
}

// Done is closed when the ticket reaches a terminal state.
func (t *Ticket) Done() <-chan struct{} { return t.doneCh }

// State returns the current lifecycle state.
func (t *Ticket) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

func (t *Ticket) setState(s State) {
	t.mu.Lock()
	t.state = t.state.to(s)
	t.mu.Unlock()
}

// coalesce marks the ticket as drained into batch seq with its
// pre-pass accuracies.
func (t *Ticket) coalesce(seq uint64, fset, rset float64) {
	t.mu.Lock()
	t.state = t.state.to(StateCoalesced)
	t.batch = seq
	t.fsetB, t.rsetB = fset, rset
	t.mu.Unlock()
}

// finish moves the ticket to a terminal state, runs record (if any) on
// the terminal ticket — the worker's audit-trail entry — and only then
// wakes the waiters: whoever sees Done closed finds the ticket recorded.
func (t *Ticket) finish(s State, version uint64, fset, rset float64, err error, record func()) {
	t.mu.Lock()
	t.state = t.state.to(s)
	t.version = version
	t.fsetA, t.rsetA = fset, rset
	t.err = err
	t.done = telemetry.Now()
	t.mu.Unlock()
	if record != nil {
		record()
	}
	close(t.doneCh)
}

// fail terminates the ticket with an error.
func (t *Ticket) fail(err error, record func()) { t.finish(StateFailed, 0, 0, 0, err, record) }

// failWatchdog terminates the ticket with an error and pins the health
// watchdog verdict that refused the publish.
func (t *Ticket) failWatchdog(err error, verdict string, record func()) {
	t.mu.Lock()
	t.watchdog = verdict
	t.mu.Unlock()
	t.fail(err, record)
}

// View is the JSON projection of a ticket.
type View struct {
	ID      uint64      `json:"id"`
	Request RequestBody `json:"request"`
	State   string      `json:"state"`
	Batch   uint64      `json:"batch,omitempty"`
	Version uint64      `json:"version,omitempty"`
	// Before/after forget- and retain-set accuracies, mirrored into the
	// run-ledger audit entry on completion.
	FsetBefore float64 `json:"fset_before"`
	FsetAfter  float64 `json:"fset_after"`
	RsetBefore float64 `json:"rset_before"`
	RsetAfter  float64 `json:"rset_after"`
	Error      string  `json:"error,omitempty"`
	// Watchdog carries the numerics-watchdog verdict when the batch was
	// aborted by the health monitor rather than an ordinary failure.
	Watchdog  string `json:"watchdog,omitempty"`
	Enqueued  int64  `json:"enqueued_unix_nanos"`
	Completed int64  `json:"completed_unix_nanos,omitempty"`
}

// View snapshots the ticket for JSON encoding.
func (t *Ticket) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := View{
		ID:         t.ID,
		Request:    requestBody(t.Req),
		State:      t.state.String(),
		Batch:      t.batch,
		Version:    t.version,
		FsetBefore: t.fsetB,
		FsetAfter:  t.fsetA,
		RsetBefore: t.rsetB,
		RsetAfter:  t.rsetA,
		Watchdog:   t.watchdog,
		Enqueued:   t.enqueued,
		Completed:  t.done,
	}
	if t.err != nil {
		v.Error = t.err.Error()
	}
	return v
}

// audit converts the finished ticket into its run-ledger entry.
func (t *Ticket) audit() telemetry.AuditEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := telemetry.AuditEntry{
		ID:         t.ID,
		Stamp:      t.done,
		Request:    t.Req.String(),
		Kind:       kindName(t.Req.Kind),
		Batch:      t.batch,
		Version:    t.version,
		Status:     t.state.String(),
		FsetBefore: t.fsetB,
		FsetAfter:  t.fsetA,
		RsetBefore: t.rsetB,
		RsetAfter:  t.rsetA,
		Watchdog:   t.watchdog,
	}
	if t.err != nil {
		e.Err = t.err.Error()
	}
	return e
}

// kindName maps a request kind onto its wire / audit name, aligned
// with telemetry.RequestKindNames.
func kindName(k core.RequestKind) string {
	if i := int(k) - 1; i >= 0 && i < len(telemetry.RequestKindNames) {
		return telemetry.RequestKindNames[i]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

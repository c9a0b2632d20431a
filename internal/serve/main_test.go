package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"quickdrop/internal/core"
	"quickdrop/internal/data"
	"quickdrop/internal/leakcheck"
)

func TestMain(m *testing.M) {
	probes, err := lockProbes()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(leakcheck.Main(m, probes))
}

// lockProbes drives every method that locks one of the package's three
// mutexes (Queue.mu, which also guards the ticket index, Ticket.mu and
// Server.life), down each path that returns. Its servers sit on an
// untrained system: no probe runs a batch.
func lockProbes() ([]leakcheck.Lock, error) {
	spec := data.Spec{Name: "tiny", H: 6, W: 6, C: 1, Classes: 4, TrainPerClass: 2, TestPerClass: 1}
	train, _ := data.Generate(spec, 1)
	newServer := func() (*Server, error) {
		sys, err := core.NewSystem(tinyConfig(1), data.NewCohort(data.PartitionIID(train, 2, rand.New(rand.NewSource(2)))))
		if err != nil {
			return nil, err
		}
		return New(Config{System: sys, QueueCap: 1}), nil
	}
	// idle is never started; worker is started and drained empty.
	idle, err := newServer()
	if err != nil {
		return nil, err
	}
	worker, err := newServer()
	if err != nil {
		return nil, err
	}
	req := core.Request{Kind: core.ClassLevel, Class: 1}

	q := NewQueue(1)
	queue := func(method string, call func()) leakcheck.Lock {
		return leakcheck.Lock{Method: "Queue." + method, Mutex: "Queue.mu", Mu: &q.mu, Call: call}
	}
	published, failed := newTicket(1, req), newTicket(2, req)
	ticket := func(t *Ticket, method string, call func()) leakcheck.Lock {
		return leakcheck.Lock{Method: "Ticket." + method, Mutex: "Ticket.mu", Mu: &t.mu, Call: call}
	}
	life := func(method string, call func()) leakcheck.Lock {
		return leakcheck.Lock{Method: "Server." + method, Mutex: "Server.life", Mu: &worker.life, Call: call}
	}
	index := func(method string, call func()) leakcheck.Lock {
		return leakcheck.Lock{Method: method, Mutex: "Queue.mu", Mu: &idle.q.mu, Call: call}
	}
	return []leakcheck.Lock{
		queue("TakeAll (empty)", func() { _ = q.TakeAll() }),
		queue("Enqueue", func() { _ = q.Enqueue(published) }),
		queue("Enqueue (full)", func() { _ = q.Enqueue(failed) }),
		queue("Len", func() { _ = q.Len() }),
		queue("Wait", func() { _, _ = q.Wait() }),
		queue("Enqueue (refilled)", func() { _ = q.Enqueue(published) }),
		queue("TakeAll", func() { _ = q.TakeAll() }),
		queue("Close", q.Close),
		queue("Enqueue (closed)", func() { _ = q.Enqueue(failed) }),
		queue("Wait (closed)", func() { _, _ = q.Wait() }),

		ticket(published, "State", func() { _ = published.State() }),
		ticket(published, "coalesce", func() { published.coalesce(1, 0, 0) }),
		ticket(published, "setState", func() { published.setState(StateUnlearning) }),
		ticket(published, "finish", func() {
			published.setState(StateRecovered)
			published.finish(StatePublished, 2, 0, 0, nil, nil)
		}),
		ticket(failed, "failWatchdog", func() { failed.failWatchdog(errors.New("probe"), "nan_loss", nil) }),
		ticket(published, "View", func() { _ = published.View() }),
		ticket(failed, "View (failed)", func() { _ = failed.View() }),
		ticket(failed, "audit", func() { _ = failed.audit() }),

		index("Server.submit", func() { _, _ = idle.submit(req) }),
		index("Server.submit (queue full)", func() { _, _ = idle.submit(req) }),
		index("Queue.lookup", func() { _, _ = idle.q.lookup(1) }),
		index("Queue.lookup (unknown)", func() { _, _ = idle.q.lookup(2) }),
		index("Queue.accepted", func() { _ = idle.q.accepted() }),

		life("Start", worker.Start),
		life("Start (started)", worker.Start),
		life("Drain", worker.Drain),
		life("Start (draining)", worker.Start),
		{Method: "Server.Drain (never started)", Mutex: "Server.life", Mu: &idle.life, Call: idle.Drain},
	}, nil
}

package fl

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"quickdrop/internal/nn"
	"quickdrop/internal/tensor"
)

// ModelFactory builds a fresh model with the training architecture.
// Pool workers each own a private instance; parameters are exchanged by
// value, as in a real deployment.
type ModelFactory func() *nn.Model

// clientTask is the server's order to a pool worker: run one client's
// local steps for one round of ph.
type clientTask struct {
	ph       *phase
	round    int
	clientID int
}

// clientUpdate is the message a worker sends back to the server after
// finishing a client's local steps.
type clientUpdate struct {
	clientID int
	params   []*tensor.Tensor
	samples  int
	err      error
}

// RunPhaseConcurrentRegistry executes the same FedAvg phase as
// RunPhaseRegistry with cfg.Workers pool workers (GOMAXPROCS when 0),
// each owning one private model reused across every client it serves —
// so concurrent memory is O(workers · model), not O(clients · model).
// Updates are folded in selection order regardless of arrival order, so
// the result is bit-for-bit identical to RunPhaseRegistry under the same
// config and independent of the pool size.
//
// cfg.Hook must be nil or safe for concurrent use; cfg.UpdateHook and
// cfg.WeightFn are invoked serially on the server, in fold order. ctx
// cancels mid-phase. The registry's Shard must be safe for concurrent
// calls with distinct IDs, which both data.Cohort and data.LazyCohort
// are.
func RunPhaseConcurrentRegistry(ctx context.Context, model *nn.Model, factory ModelFactory,
	reg ClientRegistry, cfg PhaseConfig, rng *rand.Rand) (PhaseResult, error) {
	if factory == nil {
		return PhaseResult{}, fmt.Errorf("fl: RunPhaseConcurrentRegistry needs a model factory")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The workers are stopped and waited for on every exit, so no client
	// trains, and no hook or telemetry call fires, after the phase returns.
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make(chan clientTask)
	// One slot per worker: a finished worker never waits on the server.
	updates := make(chan clientUpdate, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			poolWorker(ctx, factory, tasks, updates)
		}()
	}
	return runPhase(model, reg, cfg, rng, func(ph *phase, round int, selected []int) error {
		return trainPooled(ctx, tasks, updates, ph, round, selected)
	})
}

// trainPooled is the pool executor: it dispatches the round's clients
// to the workers and folds their updates as the frontier of selection
// order completes, whatever order they finish in.
func trainPooled(ctx context.Context, tasks chan<- clientTask, updates <-chan clientUpdate,
	ph *phase, round int, selected []int) error {
	pending := make(map[int]clientUpdate, cap(updates))
	for sent, next := 0, 0; next < len(selected); {
		var sendCh chan<- clientTask // nil once every task is out, which disables the send case
		var task clientTask
		if sent < len(selected) {
			sendCh, task = tasks, clientTask{ph: ph, round: round, clientID: selected[sent]}
		}
		select {
		case sendCh <- task:
			sent++
		case u := <-updates:
			if u.err != nil {
				return fmt.Errorf("fl: client %d round %d: %w", u.clientID, round, u.err)
			}
			pending[u.clientID] = u
			for ; next < len(selected); next++ {
				ready, ok := pending[selected[next]]
				if !ok {
					break
				}
				delete(pending, selected[next])
				ph.fold(round, ready.clientID, ready.params, ready.samples)
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// poolWorker serves client tasks until the phase ends. It owns one
// private model for its whole lifetime; shards are materialized from
// the registry per task and released after the update ships.
func poolWorker(ctx context.Context, factory ModelFactory, tasks <-chan clientTask, updates chan<- clientUpdate) {
	local := factory()
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-tasks:
			u := clientUpdate{clientID: t.clientID}
			func() {
				defer func() {
					if r := recover(); r != nil {
						u.err = fmt.Errorf("client panic: %v", r)
					}
				}()
				u.samples = t.ph.train(local, t.round, t.clientID)
				u.params = local.CloneParams()
			}()
			select {
			case updates <- u:
			case <-ctx.Done():
				return
			}
		}
	}
}

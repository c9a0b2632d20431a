package fl

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/par"
	"quickdrop/internal/telemetry/health"
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

// clientUpdate is what a client's local steps hand the server's fold
// step; a pool worker sends it back over the updates channel.
type clientUpdate struct {
	clientID int
	params   []*tensor.Tensor
	samples  int
	cost     optim.Counter   // the local steps' gradient evaluations
	elapsed  time.Duration   // the local steps' wall time, hook included
	health   *health.Monitor // the local steps' health observations (a Fork)
	err      error
}

// RunPhaseConcurrentRegistry is RunPhaseRegistry on factory's worker
// pool (cfg.Factory = factory) that ctx can also cancel mid-phase. The
// result is bit-for-bit identical to the sequential run under the same
// config and independent of the pool size.
//
// The registry's Shard must be safe for concurrent calls with distinct
// IDs, which both data.Cohort and data.LazyCohort are.
func RunPhaseConcurrentRegistry(ctx context.Context, model *nn.Model, factory ModelFactory,
	reg ClientRegistry, cfg PhaseConfig, rng *rand.Rand) (PhaseResult, error) {
	if factory == nil {
		return PhaseResult{}, fmt.Errorf("fl: RunPhaseConcurrentRegistry needs a model factory")
	}
	cfg.Factory = factory
	return runPooled(ctx.Done(), ctx.Err, model, reg, cfg, rng)
}

// runPooled runs the phase on poolSize(reg, cfg) workers, each owning
// one private cfg.Factory model reused across every client it serves —
// so concurrent memory is O(workers · model), not O(clients · model).
// cfg.Hook runs on the workers; cfg.UpdateHook and cfg.WeightFn run
// serially on the server, in fold order. A receive on cancel (nil:
// never) aborts the phase with cause().
func runPooled(cancel <-chan struct{}, cause func() error, model *nn.Model,
	reg ClientRegistry, cfg PhaseConfig, rng *rand.Rand) (PhaseResult, error) {
	workers := poolSize(reg, cfg)
	// The workers are stopped and waited for on every exit, so no client
	// trains, and no hook or telemetry call fires, after the phase returns.
	var g par.Group
	defer g.Wait()
	stop := make(chan struct{})
	defer close(stop)
	tasks := make(chan clientTask)
	// One slot per worker: a finished worker never waits on the server.
	updates := make(chan clientUpdate, workers)
	for w := 0; w < workers; w++ {
		g.Go(func() { poolWorker(stop, cfg.Factory, tasks, updates) })
	}
	return runPhase(model, reg, cfg, rng, func(ph *phase, round int, selected []int) error {
		return trainPooled(cancel, cause, tasks, updates, ph, round, selected)
	})
}

// poolSize is the number of workers a pool for the phase starts:
// cfg.Workers (GOMAXPROCS when 0), but never more than one round can
// select, since further workers would only hold idle models. It is at
// least 1.
func poolSize(reg ClientRegistry, cfg PhaseConfig) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, maxSelected(reg, cfg)))
}

// maxSelected bounds the number of clients one round of the phase can
// select: K in sampled mode, otherwise the eligible clients — those
// with data — or the participation fraction of them.
func maxSelected(reg ClientRegistry, cfg PhaseConfig) int {
	if reg == nil {
		return 0
	}
	n := reg.NumClients()
	if cfg.SampleK > 0 {
		return min(n, cfg.SampleK)
	}
	eligible := 0
	for id := 0; id < n; id++ {
		if reg.ShardLen(id) > 0 {
			eligible++
		}
	}
	if p := cfg.Participation; p > 0 && p < 1 {
		return max(1, int(p*float64(eligible)))
	}
	return eligible
}

// trainPooled is the pool executor: it dispatches the round's clients
// to the workers and folds their updates as the frontier of selection
// order completes, whatever order they finish in.
func trainPooled(cancel <-chan struct{}, cause func() error, tasks chan<- clientTask, updates <-chan clientUpdate,
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
				ph.fold(round, ready)
			}
		case <-cancel:
			return cause()
		}
	}
	return nil
}

// poolWorker serves client tasks until the phase ends. It owns one
// private model for its whole lifetime; shards are materialized from
// the registry per task and released after the update ships.
func poolWorker(stop <-chan struct{}, factory ModelFactory, tasks <-chan clientTask, updates chan<- clientUpdate) {
	local := factory()
	for {
		select {
		case <-stop:
			return
		case t := <-tasks:
			u := clientUpdate{clientID: t.clientID}
			func() {
				defer func() {
					if r := recover(); r != nil {
						u.err = fmt.Errorf("client panic: %v", r)
					}
				}()
				u = t.ph.train(local, t.round, t.clientID)
				u.params = local.CloneParams()
			}()
			select {
			case updates <- u:
			case <-stop:
				return
			}
		}
	}
}

// Command fedsim runs plain FedAvg training (no unlearning) on a
// synthetic dataset and reports round-by-round accuracy — useful for
// calibrating substrate scales and for comparing against the QuickDrop
// pipeline's training stage.
//
// Usage:
//
//	fedsim -dataset mnistlike -clients 10 -rounds 20 -alpha 0.1
//
// Two cohort modes exist. The default materializes every client's shard
// up front (the original behavior, fine up to thousands of clients).
// With -lazy the cohort is a recipe: any client's shard is derived on
// demand from (seed, client ID), so -clients can be a million without
// allocating a million datasets — pair it with -sample-k so each round
// draws K participants instead of enumerating the cohort:
//
//	fedsim -lazy -clients 1000000 -sample-k 64 -per-client 64 -rounds 5
//
// Clients train one after another by default; -workers N trains them on
// a pool of N workers (0 = GOMAXPROCS) with bit-identical results.
//
// With -telemetry-addr, fedsim serves Prometheus metrics on /metrics
// and pprof on /debug/pprof while training (use ":0" for an ephemeral
// port; the bound address is printed).
// -telemetry-linger keeps the endpoint up after training so scrapers
// can collect the final state. -ledger writes a run manifest (config,
// seed, metric summaries) into the given directory for
// `experiments report -diff`.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"quickdrop/internal/data"
	"quickdrop/internal/eval"
	"quickdrop/internal/experiments"
	"quickdrop/internal/fl"
	"quickdrop/internal/nn"
	"quickdrop/internal/optim"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

func main() {
	var (
		dataset   = flag.String("dataset", "mnistlike", "dataset: mnistlike|cifarlike|svhnlike")
		clients   = flag.Int("clients", 10, "number of FL clients")
		alpha     = flag.Float64("alpha", 0.1, "Dirichlet concentration (0 = IID)")
		rounds    = flag.Int("rounds", 20, "global FL rounds")
		steps     = flag.Int("steps", 5, "local steps per round (T)")
		batch     = flag.Int("batch", 16, "minibatch size")
		lr        = flag.Float64("lr", 0.1, "learning rate")
		partic    = flag.Float64("participation", 1, "client participation fraction per round")
		sampleK   = flag.Int("sample-k", 0, "sample K clients per round from the registry (0 = use -participation)")
		workers   = flag.Int("workers", 1, "clients trained in parallel: 1 trains them in turn, any other value runs a worker pool of that size (0 = GOMAXPROCS)")
		lazy      = flag.Bool("lazy", false, "derive client shards on demand instead of materializing the partition")
		perClient = flag.Int("per-client", 64, "samples per client in -lazy mode")
		scaleName = flag.String("scale", "quick", "substrate scale preset")
		seed      = flag.Int64("seed", 1, "random seed")
		every     = flag.Int("eval-every", 5, "evaluate every N rounds")
		memStats  = flag.Bool("memstats", false, "print heap statistics after training (for scale smoke tests)")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics and /debug/pprof on this address (\":0\" for ephemeral)")
		telLinger = flag.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after training")
		ledgerDir = flag.String("ledger", "", "write a run manifest into this directory (e.g. runs/)")

		healthOn = flag.Bool("health", false, "enable the numerics health monitor and divergence watchdog")
	)
	flag.Parse()

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	sc.Seed = *seed

	var setup *experiments.Setup
	if *lazy {
		setup, err = experiments.NewLazySetup(*dataset, *clients, *perClient, *alpha, sc)
	} else {
		setup, err = experiments.NewSetup(*dataset, *clients, *alpha, sc)
	}
	if err != nil {
		fatal(err)
	}
	reg, test, arch := setup.Cohort, setup.Test, setup.Arch
	// The heterogeneity statistic enumerates every shard — O(N) work that
	// would defeat the lazy cohort, so it is not computed there.
	het := "lazy"
	if !*lazy {
		het = fmt.Sprintf("%.3f", data.HeterogeneityStat(setup.Clients))
	}

	model := nn.NewConvNet(arch, rand.New(rand.NewSource(*seed)))
	rng := rand.New(rand.NewSource(*seed + 1))

	var pipe *telemetry.Pipeline
	var srv *telemetry.Server
	if *telAddr != "" || *ledgerDir != "" {
		pipe = telemetry.NewPipeline(telemetry.NewRegistry(), *clients)
	}
	if *telAddr != "" {
		srv, err = telemetry.Serve(*telAddr, pipe)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry: serving on http://%s/metrics\n", srv.Addr())
	}

	var mon *health.Monitor
	if *healthOn {
		mon = health.New(health.Config{Events: telemetry.NewEventLog(os.Stderr)}, pipe)
		mon.BindLayers(model.ParamNames())
	}

	fmt.Printf("fedsim: %s, %d clients, alpha=%.2g, heterogeneity=%s, %d params\n",
		*dataset, *clients, *alpha, het, model.NumParams())

	participation := *partic
	if *sampleK > 0 {
		participation = 0 // sampled mode replaces the fraction
	}
	var counter optim.Counter
	factory := func() *nn.Model { return nn.NewConvNet(arch, rand.New(rand.NewSource(*seed))) }
	start := telemetry.StartTimer()
	done := 0
	for done < *rounds {
		step := *every
		if done+step > *rounds {
			step = *rounds - done
		}
		cfg := fl.PhaseConfig{
			Rounds: step, LocalSteps: *steps, BatchSize: *batch, LR: *lr,
			Participation: participation, SampleK: *sampleK, Factory: factory, Workers: *workers,
			Counter: &counter, Telemetry: pipe, Health: mon, Phase: "train",
		}
		if _, err := fl.RunPhaseRegistry(model, reg, cfg, rng); err != nil {
			fatal(err)
		}
		done += step
		acc := eval.Accuracy(model, test)
		pipe.RecordAccuracy(acc)
		fmt.Printf("round %3d: test accuracy %.2f%% (%s elapsed, %d grad evals)\n",
			done, 100*acc, start.Elapsed().Round(time.Millisecond), counter.GradEvals)
	}
	if *memStats {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("memstats: heap_alloc_bytes=%d heap_sys_bytes=%d total_alloc_bytes=%d\n",
			ms.HeapAlloc, ms.HeapSys, ms.TotalAlloc)
	}
	if *ledgerDir != "" {
		m := telemetry.BuildManifest(pipe, "fedsim", *seed, map[string]string{
			"dataset": *dataset,
			"clients": fmt.Sprint(*clients),
			"alpha":   fmt.Sprint(*alpha),
			"rounds":  fmt.Sprint(*rounds),
			"scale":   *scaleName,
		})
		m.Health = mon.Summary()
		path, err := telemetry.WriteManifest(*ledgerDir, m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ledger: manifest written to %s\n", path)
	}
	if srv != nil && *telLinger > 0 {
		fmt.Printf("telemetry: lingering %s on http://%s/metrics\n", *telLinger, srv.Addr())
		time.Sleep(*telLinger)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsim:", err)
	os.Exit(1)
}

// Command quickdropd is the unlearning-as-a-service daemon: it trains
// a QuickDrop system on a synthetic federated cohort, then serves
// forget requests over HTTP/JSON. Concurrent requests coalesce into
// one batched SGA+recovery pass; every pass publishes an immutable
// copy-on-write model snapshot that inference reads never block on,
// and every request leaves a before/after forget-set accuracy entry in
// the run-ledger audit trail.
//
// Usage:
//
//	quickdropd -dataset mnistlike -clients 10 -alpha 0.1 -addr :8080
//	quickdropd -lazy -clients 100000 -sample-k 32 -per-client 64 -rounds 5
//
// API (all JSON):
//
//	POST /v1/forget        {"kind":"class","class":9} (+"wait":true to block)
//	GET  /v1/requests      every request's lifecycle state
//	GET  /v1/requests/{id} one request
//	GET  /v1/model         current snapshot version
//	POST /v1/predict       {"inputs":[[...H*W*C numbers...], ...]}, nothing else
//	                       (other keys, null and trailing bytes are a 400)
//	GET  /v1/status        queue depth, batches, versions, drain state
//
// The telemetry surface (/metrics, /debug/pprof) is mounted on the
// same mux. On SIGINT/SIGTERM the daemon drains: queued
// requests finish (still coalesced), then the ledger manifest —
// including the audit trail — is written.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/eval"
	"quickdrop/internal/experiments"
	"quickdrop/internal/nn"
	"quickdrop/internal/serve"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickdropd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset      = flag.String("dataset", "mnistlike", "dataset: mnistlike|cifarlike|svhnlike")
		clients      = flag.Int("clients", 10, "number of FL clients")
		alpha        = flag.Float64("alpha", 0.1, "Dirichlet non-IID concentration (0 = IID)")
		scaleName    = flag.String("scale", "quick", "substrate scale: quick|standard|large")
		distillScale = flag.Float64("s", 100, "distillation scale parameter s (|S_ic| = ceil(|D_ic|/s))")
		rounds       = flag.Int("rounds", 0, "override training rounds (0 = scale preset)")
		lazy         = flag.Bool("lazy", false, "derive client shards on demand instead of materializing the partition")
		perClient    = flag.Int("per-client", 64, "samples per client in -lazy mode")
		sampleK      = flag.Int("sample-k", 0, "sample K clients per training round (0 = full participation)")
		seed         = flag.Int64("seed", 1, "random seed")
		addr         = flag.String("addr", "127.0.0.1:8080", "serve the API on this address (\":0\" for ephemeral)")
		queueCap     = flag.Int("queue", serve.DefaultQueueCap, "bounded forget-request queue capacity")
		linger       = flag.Duration("linger", 250*time.Millisecond, "coalescing window after the first request of a batch")
		sequential   = flag.Bool("sequential", false, "disable coalescing: one request per batch, in order")
		ledgerDir    = flag.String("ledger", "", "write a run manifest (with the audit trail) into this directory on shutdown")

		healthOn  = flag.Bool("health", false, "enable the numerics health monitor and SGA divergence watchdog")
		injectNaN = flag.String("inject-nan", "", "fault injection: plant a NaN in the model before this phase runs (e.g. \"unlearn\"; testing only)")
	)
	flag.Parse()

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed

	var setup *experiments.Setup
	if *lazy {
		setup, err = experiments.NewLazySetup(*dataset, *clients, *perClient, *alpha, sc)
	} else {
		setup, err = experiments.NewSetup(*dataset, *clients, *alpha, sc)
	}
	if err != nil {
		return err
	}
	reg, test, arch := setup.Cohort, setup.Test, setup.Arch
	cfg := setup.CoreConfig()
	cfg.Distill.Scale = *distillScale
	cfg.Train.SampleK = *sampleK
	if *rounds > 0 {
		cfg.Train.Rounds = *rounds
	}

	pipe := telemetry.NewPipeline(telemetry.NewRegistry(), *clients)
	cfg.Telemetry = pipe

	var mon *health.Monitor
	if *healthOn {
		mon = health.New(health.Config{Events: telemetry.NewEventLog(os.Stderr)}, pipe)
		cfg.Health = mon
		cfg.PoisonPhase = *injectNaN
	}

	sys, err := core.NewSystem(cfg, reg)
	if err != nil {
		return err
	}
	mon.BindLayers(sys.Model.ParamNames())
	fmt.Printf("quickdropd: training %d clients on %s (alpha=%.2g, %d rounds, s=%g)...\n",
		*clients, *dataset, *alpha, cfg.Train.Rounds, cfg.Distill.Scale)
	start := time.Now()
	if _, err := sys.Train(); err != nil {
		return err
	}
	fmt.Printf("quickdropd: trained in %s; test accuracy %.2f%%; distillation time %s summed over clients\n",
		time.Since(start).Round(time.Millisecond),
		100*eval.Accuracy(sys.Model, test),
		sys.Matcher.DDTime.Round(time.Millisecond))

	srv := serve.New(serve.Config{
		System:    sys,
		Evaluator: serve.CohortEvaluator{Clients: reg, Test: test},
		ModelFactory: func() *nn.Model {
			return nn.NewConvNet(arch, rand.New(rand.NewSource(*seed)))
		},
		QueueCap:   *queueCap,
		Linger:     *linger,
		Sequential: *sequential,
		Telemetry:  pipe,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	srv.Start()
	// The smoke scripts grep this line for the bound address.
	fmt.Printf("quickdropd: serving on http://%s\n", ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("quickdropd: %v — draining...\n", sig)
	case err := <-errCh:
		return fmt.Errorf("http server: %w", err)
	}

	// Drain order: finish the queued unlearning work first (new posts
	// get 503 while the backlog runs), then stop the HTTP listener, then
	// write the ledger so the manifest holds every audit entry.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Printf("quickdropd: drained — %d batches, %d published, %d failed, model version %d\n",
		st.Batches, st.Published, st.Failed, st.ModelVersion)

	if *ledgerDir != "" {
		m := telemetry.BuildManifest(pipe, "quickdropd", *seed, map[string]string{
			"dataset": *dataset,
			"clients": fmt.Sprint(*clients),
			"alpha":   fmt.Sprint(*alpha),
			"scale":   *scaleName,
			"queue":   fmt.Sprint(*queueCap),
			"linger":  linger.String(),
		})
		m.Health = mon.Summary()
		path, err := telemetry.WriteManifest(*ledgerDir, m)
		if err != nil {
			return err
		}
		fmt.Printf("quickdropd: ledger manifest written to %s\n", path)
	}
	return nil
}

// Command quickdrop runs the full QuickDrop federated-unlearning pipeline
// on a synthetic dataset: federated training with in-situ distillation,
// then a stream of unlearning/relearning requests.
//
// Usage:
//
//	quickdrop -dataset cifarlike -clients 10 -alpha 0.1 \
//	    -unlearn-class 9 -relearn -model out.bin
//	quickdrop -dataset mnistlike -clients 20 -unlearn-client 3
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/eval"
	"quickdrop/internal/experiments"
	"quickdrop/internal/telemetry"
)

// main delegates to run so that every error path exits nonzero through
// a single site AND deferred cleanups (telemetry server, open files)
// still execute — os.Exit inside the work function would skip them and
// smoke scripts could not trust the exit code.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickdrop:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset       = flag.String("dataset", "cifarlike", "dataset: mnistlike|cifarlike|svhnlike")
		clients       = flag.Int("clients", 10, "number of FL clients")
		alpha         = flag.Float64("alpha", 0.1, "Dirichlet non-IID concentration (0 = IID)")
		scaleName     = flag.String("scale", "quick", "substrate scale: quick|standard|large")
		distillScale  = flag.Float64("s", 100, "distillation scale parameter s (|S_ic| = ceil(|D_ic|/s))")
		unlearnClass  = flag.Int("unlearn-class", -1, "class to unlearn (class-level request)")
		unlearnClient = flag.Int("unlearn-client", -1, "client to unlearn (client-level request)")
		relearn       = flag.Bool("relearn", false, "relearn the request after unlearning")
		modelOut      = flag.String("model", "", "write final model parameters to this file")
		saveState     = flag.String("save", "", "persist full system state (model + synthetic sets + forget ledger) to this file")
		loadState     = flag.String("load", "", "restore system state instead of training")
		seed          = flag.Int64("seed", 1, "random seed")
		telAddr       = flag.String("telemetry-addr", "", "serve /metrics and /debug/pprof on this address (\":0\" for ephemeral)")
		ledgerDir     = flag.String("ledger", "", "write a run manifest into this directory (e.g. runs/)")
	)
	flag.Parse()

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	sc.Seed = *seed
	setup, err := experiments.NewSetup(*dataset, *clients, *alpha, sc)
	if err != nil {
		return err
	}
	cfg := setup.CoreConfig()
	cfg.Distill.Scale = *distillScale

	if *telAddr != "" || *ledgerDir != "" {
		cfg.Telemetry = telemetry.NewPipeline(telemetry.NewRegistry(), *clients)
		if *telAddr != "" {
			srv, err := telemetry.Serve(*telAddr, cfg.Telemetry)
			if err != nil {
				return err
			}
			defer func() { _ = srv.Close() }()
			fmt.Printf("telemetry: serving on http://%s/metrics\n", srv.Addr())
		}
	}

	sys, err := core.NewSystem(cfg, setup.Cohort)
	if err != nil {
		return err
	}

	if *loadState != "" {
		f, err := os.Open(*loadState)
		if err != nil {
			return err
		}
		if err := sys.LoadState(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		acc := eval.Accuracy(sys.Model, setup.Test)
		cfg.Telemetry.RecordAccuracy(acc)
		fmt.Printf("restored state from %s; test accuracy %.2f%%\n", *loadState, 100*acc)
	} else {
		fmt.Printf("training %d clients on %s (alpha=%.2g, %d rounds)...\n",
			*clients, *dataset, *alpha, cfg.Train.Rounds)
		start := time.Now()
		if _, err := sys.Train(); err != nil {
			return err
		}
		acc := eval.Accuracy(sys.Model, setup.Test)
		cfg.Telemetry.RecordAccuracy(acc)
		fmt.Printf("trained in %s; test accuracy %.2f%%; distillation time %s summed over clients\n",
			time.Since(start).Round(time.Millisecond), 100*acc,
			sys.Matcher.DDTime.Round(time.Millisecond))
	}

	var reqs []core.Request
	if *unlearnClass >= 0 {
		reqs = append(reqs, core.Request{Kind: core.ClassLevel, Class: *unlearnClass})
	}
	if *unlearnClient >= 0 {
		reqs = append(reqs, core.Request{Kind: core.ClientLevel, Client: *unlearnClient})
	}
	for _, req := range reqs {
		rep, err := sys.Unlearn(req)
		if err != nil {
			return fmt.Errorf("%v: %w", req, err)
		}
		f, r := setup.SplitAccuracy(sys.Model, req)
		cfg.Telemetry.RecordSplitAccuracy(f, r)
		fmt.Printf("%v: F-Set %.2f%%, R-Set %.2f%% (unlearn %s on %d samples; recover %s on %d)\n",
			req, 100*f, 100*r,
			rep.Unlearn.WallTime.Round(time.Millisecond), rep.Unlearn.DataSize,
			rep.Recover.WallTime.Round(time.Millisecond), rep.Recover.DataSize)
		if *relearn {
			if _, err := sys.Relearn(req); err != nil {
				return fmt.Errorf("relearn %v: %w", req, err)
			}
			f, r = setup.SplitAccuracy(sys.Model, req)
			cfg.Telemetry.RecordSplitAccuracy(f, r)
			fmt.Printf("relearned %v: F-Set %.2f%%, R-Set %.2f%%\n", req, 100*f, 100*r)
		}
	}

	if *saveState != "" {
		f, err := os.Create(*saveState)
		if err != nil {
			return err
		}
		if err := sys.SaveState(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("state saved to %s\n", *saveState)
	}

	if *modelOut != "" {
		f, err := os.Create(*modelOut)
		if err != nil {
			return err
		}
		if _, err := sys.Model.WriteTo(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", *modelOut)
	}

	if *ledgerDir != "" {
		m := telemetry.BuildManifest(cfg.Telemetry, "quickdrop", *seed, map[string]string{
			"dataset": *dataset,
			"clients": fmt.Sprint(*clients),
			"alpha":   fmt.Sprint(*alpha),
			"scale":   *scaleName,
		})
		path, err := telemetry.WriteManifest(*ledgerDir, m)
		if err != nil {
			return err
		}
		fmt.Printf("ledger: manifest written to %s\n", path)
	}
	return nil
}

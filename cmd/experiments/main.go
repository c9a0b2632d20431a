// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -id table2 -scale quick
//	experiments -id all -scale standard -repeats 3
//	experiments report runs/20260805T...json
//	experiments report -diff runs/old.json runs/new.json
//
// IDs: table1 table2 table3 table4 table5 table6 fig2 fig3 fig4 fig5 fig6
// ablation-distance ablation-init ablation-augment ablation-objective
// ext-sample all
//
// The report subcommand reads run-ledger manifests (written with
// -ledger here or on fedsim/quickdrop). With -diff it compares two
// manifests old→new against per-metric thresholds and exits nonzero
// when any metric regressed — the CI regression gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"quickdrop/internal/experiments"
	"quickdrop/internal/telemetry"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		report(os.Args[2:])
		return
	}
	id := flag.String("id", "all", "experiment id (tableN, figN, ablation-*, ext-sample, all)")
	scaleName := flag.String("scale", "quick", "scale preset: quick|standard|large")
	repeats := flag.Int("repeats", 1, "average method tables and ablations over this many seeds (paper: 5)")
	telAddr := flag.String("telemetry-addr", "", "serve /metrics and /debug/pprof on this address (\":0\" for ephemeral)")
	ledgerDir := flag.String("ledger", "", "write a run manifest into this directory (e.g. runs/)")
	flag.Parse()

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	sc.Repeats = *repeats

	if *telAddr != "" || *ledgerDir != "" {
		// Pre-register enough per-client series for every harness (they
		// use at most 10 clients).
		sc.Telemetry = telemetry.NewPipeline(telemetry.NewRegistry(), 16)
	}
	if *telAddr != "" {
		srv, err := telemetry.Serve(*telAddr, sc.Telemetry)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("telemetry: serving on http://%s/metrics\n", srv.Addr())
	}
	ids := []string{*id}
	if *id == "all" {
		ids = experiments.IDs()
	}
	for _, one := range ids {
		start := time.Now()
		fmt.Printf("=== %s (scale %s) ===\n", one, sc.Name)
		if err := experiments.Run(one, sc, os.Stdout); err != nil {
			fatal(fmt.Errorf("%s: %w", one, err))
		}
		fmt.Printf("--- %s done in %s ---\n\n", one, time.Since(start).Round(time.Millisecond))
	}
	if *ledgerDir != "" {
		m := telemetry.BuildManifest(sc.Telemetry, "experiments", sc.Seed, map[string]string{
			"id":      *id,
			"scale":   sc.Name,
			"repeats": fmt.Sprint(*repeats),
		})
		path, err := telemetry.WriteManifest(*ledgerDir, m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ledger: manifest written to %s\n", path)
	}
}

// report implements the `experiments report` subcommand: summarize one
// or more manifests, or -diff two against the regression thresholds.
func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	diff := fs.Bool("diff", false, "compare two manifests (old new); exit nonzero on regression")
	accDrop := fs.Float64("accuracy-drop", 0.05, "tolerated absolute accuracy drop (forget-set: rise)")
	timeGrow := fs.Float64("time-grow-pct", 25, "tolerated percentage growth of *_seconds sums")
	gradGrow := fs.Float64("grad-norm-grow-pct", 100, "tolerated percentage growth of the max gradient norm (health summary)")
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	if *diff {
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("report -diff needs exactly two manifests (old new), got %d", fs.NArg()))
		}
		oldM, err := telemetry.ReadManifest(fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		newM, err := telemetry.ReadManifest(fs.Arg(1))
		if err != nil {
			fatal(err)
		}
		entries, regressed := telemetry.Diff(oldM, newM, telemetry.DiffOptions{
			AccuracyDrop: *accDrop, TimeGrowPct: *timeGrow, GradNormGrowPct: *gradGrow,
		})
		fmt.Printf("diff %s (%s) -> %s (%s): %d metrics compared\n",
			oldM.Stamp, oldM.Tool, newM.Stamp, newM.Tool, len(entries))
		for _, e := range entries {
			mark := "ok  "
			if e.Regression {
				mark = "FAIL"
			}
			fmt.Printf("  %s %-48s %12.6f -> %12.6f (%+.6f)", mark, e.Metric, e.Old, e.New, e.Delta)
			if e.Reason != "" {
				fmt.Printf("  %s", e.Reason)
			}
			fmt.Println()
		}
		if regressed {
			fmt.Println("result: REGRESSION")
			os.Exit(1)
		}
		fmt.Println("result: ok")
		return
	}

	if fs.NArg() == 0 {
		fatal(fmt.Errorf("report needs at least one manifest path (or -diff old new)"))
	}
	for _, path := range fs.Args() {
		m, err := telemetry.ReadManifest(path)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: tool=%s seed=%d go=%s\n", m.Stamp, m.Tool, m.Seed, m.GoVersion)
		for k, v := range m.Config {
			fmt.Printf("  config %s=%s\n", k, v)
		}
		for _, name := range sortedKeys(m.Metrics) {
			if strings.HasSuffix(name, "_accuracy") {
				fmt.Printf("  %s=%.6f\n", name, m.Metrics[name].Sum)
			}
		}
		if r := m.Metrics["quickdrop_fl_round_seconds"]; r.Count > 0 {
			fmt.Printf("  round latency: n=%d mean=%s\n",
				r.Count, time.Duration(r.Sum/float64(r.Count)*float64(time.Second)))
		}
		if h := m.Health; h != nil {
			status := "healthy"
			if h.Tripped {
				status = fmt.Sprintf("TRIPPED (%s in phase %s)", h.Verdict, h.Phase)
			}
			fmt.Printf("  health: %s trips=%d nan_events=%d max_grad_norm=%.6g max_update_ratio=%.6g\n",
				status, h.Trips, h.NaNEvents, h.MaxGradNorm, h.MaxUpdateRatio)
		}
	}
}

func sortedKeys(m map[string]telemetry.MetricSummary) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

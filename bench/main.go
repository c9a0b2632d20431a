// Command bench is the repository benchmark: it runs one named workload
// per process at a fixed operation count, checks the outputs, and prints
// the end-to-end metrics (-trace 0) or the per-layer metrics of a traced
// run (-trace 1), ending with one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	quick    bool
	outDir   string
}

func main() {
	var o options
	var trace, agree int
	flag.StringVar(&o.workload, "workload", "", "workload to run: train_distill, unlearn_class, retrain_baseline or serve_mixed")
	flag.Int64Var(&o.seed, "seed", 7, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "run length the fixed operation counts are scaled to")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced sections and layer probes and prints the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: tiny model, a tenth of the operations, numbers mean nothing")
	flag.IntVar(&agree, "agree", 0, "run two interleaved sets of N runs per workload and check they agree within the bounds")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for reports, traces and the lock file")
	flag.Parse()
	o.traced = trace != 0

	if agree > 0 {
		ok, err := runAgree(o, agree, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	r.print(os.Stdout)
	fmt.Print(speedupNote(o.outDir))
	line, err := json.Marshal(r.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// lock takes the run lock: two runs on one machine would time each other.
// An flock dies with its process, so a killed run leaves nothing stale.
func lock(outDir string) (release func(), err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "lock")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close() // nothing was written
		return nil, fmt.Errorf("another benchmark run holds %s: %w", path, err)
	}
	return func() { _ = f.Close() }, nil // closing drops the flock; nothing was written
}

// run executes one workload and returns its report.
func run(o options) (*report, error) {
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	release, err := lock(o.outDir)
	if err != nil {
		return nil, err
	}
	defer release()

	r := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Quick: o.quick,
		Host: readHost(), Info: make(map[string]float64)}
	r.SpinMS[0] = hostSpin()

	// Set-up is everything before the first timed operation: generating
	// the data, training, saving the state, one warm-up step. It is
	// repeated, up to three times, while another repetition fits in a
	// quarter of the run length, and setup_s is the median; the last
	// environment is the one the timed sections use.
	var e *env
	var setups []float64
	budget := time.Duration(o.seconds) * time.Second / 4
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		e = &env{substrate: newSubstrate(o.seed, o.quick), quick: o.quick}
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
		if len(setups) == 3 || spent+d > budget {
			break
		}
	}
	r.Setups = len(setups)
	r.Steps = opCount(w.baseSteps, o.seconds, refSeconds, o.traced, o.quick)

	before := readRuntime()
	plain := runSteps(w, e, r.Steps, nil, 0)
	after := readRuntime()
	sections := []*samples{plain}

	// The traced sections repeat the workload with spans on, then run the
	// layer probes.
	var tr *tracer
	var traced *samples
	if o.traced {
		tr = newTracer()
		root := tr.begin("workload."+w.name, 0, 0)
		traced = runSteps(w, e, r.Steps, tr, root)
		tr.finish(root)
		probes := e.newSamples()
		root = tr.begin("probes", 0, 0)
		runProbes(e, probes, tr, root)
		tr.finish(root)
		sections = append(sections, traced, probes)
	}
	r.SpinMS[1] = hostSpin()

	if !o.traced {
		r.Result.Metrics = endToEndMetrics(setups, plain)
	} else {
		// The layer series of all sections are pooled: they come from the
		// same operations.
		pooled := e.newSamples()
		for _, s := range sections {
			for name, vs := range s.layer {
				pooled.layer[name] = append(pooled.layer[name], vs...)
			}
		}
		addRuntime(pooled, before, after, len(plain.opMS))
		pooled.add("trace.overhead_pct", 100*(median(traced.opMS)-median(plain.opMS))/median(plain.opMS))
		pooled.add("host.spin_ms", (r.SpinMS[0]+r.SpinMS[1])/2)
		r.Result.Metrics = layerMetrics(pooled.layer)
		r.Spans = selfTimes(tr.spans)
		if err := tr.write(filepath.Join(o.outDir, "trace_"+w.name+".jsonl")); err != nil {
			return nil, err
		}
	}

	r.OpSamples, r.PredictSamples = len(plain.opMS), len(plain.predictMS)
	for _, s := range sections {
		r.Result.Attempted += s.attempted
		r.Result.Failed += s.failed
		r.Reasons = append(r.Reasons, s.reasons...)
	}
	r.Succeeded = r.Result.Attempted - r.Result.Failed
	r.Result.Correct = r.Result.Failed == 0 && r.OpSamples > 0
	tail := tailPercentile(len(plain.opMS))
	r.Info[fmt.Sprintf("op_p%g_ms", tail)] = percentile(plain.opMS, tail)
	if e.train15 > 0 {
		r.Info["setup_train_s"] = e.train15.Seconds()
		r.Info["setup_distill_share_pct"] = 100 * e.ddShare
	}
	if e.refAcc > 0 {
		r.Info["retrain_reference_acc_pct"] = 100 * e.refAcc
	}
	if err := r.write(o.outDir); err != nil {
		return nil, err
	}
	return r, nil
}

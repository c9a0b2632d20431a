package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric names this driver prints, in
// report order; BENCHMARK.json lists the same names (a test holds the two
// together). Later issues cite these names verbatim.
var endToEnd = []string{"setup_s", "op_p50_ms", "fset_forgotten_pct", "rset_acc_pct", "predict_p50_ms"}

var perLayer = []string{
	"tensor.matmul_us", "tensor.matmul_nt_tn_us", "tensor.im2col_us", "tensor.col2im_us",
	"tensor.elementwise_us", "tensor.pool_get_put_ns", "tensor.allocs_per_call",
	"autodiff.grad1_ms", "autodiff.grad1_allocs", "autodiff.grad2_ms", "autodiff.grad2_allocs", "autodiff.grad2_alloc_kb",
	"nn.forward_ms", "nn.fwd_bwd_ms", "nn.predict8_us", "nn.setparams_us",
	"optim.sgd_step_us",
	"distill.match_step_ms", "distill.match_step_allocs", "distill.match_step_alloc_kb",
	"distill.init_synthetic_ms", "distill.train_share_pct",
	"fl.round_real_ms", "fl.round_real_allocs", "fl.round_real_alloc_kb", "fl.round_syn_ms", "fl.round_sga_ms",
	"fl.round_workers2_ms", "fl.aggregate_us", "fl.local_step_ms",
	"core.sga_ms", "core.recover_ms", "core.overhead_ms", "core.unlearn_p90_ms", "core.unlearn_allocs",
	"core.unlearn_alloc_mb", "core.unlearn_client_ms", "core.unlearn_sample_ms", "core.unlearn_batch4_ms",
	"core.relearn_ms", "core.train15_s", "core.savestate_ms", "core.loadstate_ms", "core.state_kb",
	"serve.ticket_ms", "serve.http_overhead_ms", "serve.forget_class_ms", "serve.forget_client_ms",
	"serve.forget_sample_ms", "serve.burst3_ms", "serve.burst3_batches", "serve.eval_split_ms",
	"serve.publish_us", "serve.acquire_release_ns", "serve.queue_op_ns", "serve.predict_idle_ms",
	"serve.predict_load_p90_ms", "serve.predict_late_ms",
	"eval.class_split_ms", "data.generate_ms", "baselines.prepare_ms",
	"runtime.gc_cycles_per_op", "runtime.gc_cpu_pct", "runtime.allocs_per_op", "runtime.alloc_mb_per_op",
	"runtime.heap_sys_mb", "host.spin_ms", "trace.overhead_pct",
}

// unitOf reads a metric's unit off its name's suffix.
func unitOf(name string) string {
	name = strings.TrimSuffix(strings.TrimSuffix(name, "_per_op"), "_per_call")
	for _, u := range []struct{ suffix, unit string }{
		{"_ns", "ns"}, {"_us", "us"}, {"_ms", "ms"}, {"_s", "s"},
		{"_pct", "%"}, {"_kb", "KiB"}, {"_mb", "MiB"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object that ends every run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type hostInfo struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
}

// report is everything one run records; it is written next to the trace
// under bench/out and printed in full before the result line.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Traced   bool     `json:"traced"`
	Quick    bool     `json:"quick"`
	Host     hostInfo `json:"host"`
	// Steps is the fixed step count of each timed section and Setups how
	// many times set-up ran (setup_s is their median).
	Steps  int `json:"steps"`
	Setups int `json:"setups"`
	// OpSamples and PredictSamples are the sample counts behind the two
	// latency medians.
	OpSamples      int      `json:"op_samples"`
	PredictSamples int      `json:"predict_samples"`
	Succeeded      int      `json:"succeeded"`
	Reasons        []string `json:"failure_reasons,omitempty"`
	// SpinMS is the fixed integer spin timed before and after the run: if
	// it moved, the box moved, not the code.
	SpinMS [2]float64 `json:"host_spin_ms"`
	// Info holds figures printed for the reader only: the op tail, the
	// reference accuracy, the distillation share of set-up training.
	Info   map[string]float64 `json:"info"`
	Spans  []spanTotals       `json:"spans,omitempty"`
	Result result             `json:"result"`
}

func readHost() hostInfo {
	h := hostInfo{Commit: "unknown", Go: runtime.Version(), CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	// A checkout that is not a git repository has no commit to record.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// spinSink keeps the spin loop's result alive.
var spinSink uint64

// hostSpin times a fixed amount of integer work that touches no memory
// and calls nothing: the same on every commit, so a change in it is a
// change in the machine.
func hostSpin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return ms(time.Since(t0))
}

// runtimeCounters is one reading of the allocation and GC counters.
type runtimeCounters struct {
	gcCycles, mallocs, allocBytes, heapSys uint64
	gcCPU, totalCPU                        float64
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := runtimeCounters{gcCycles: uint64(m.NumGC), mallocs: m.Mallocs, allocBytes: m.TotalAlloc, heapSys: m.HeapSys}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// addRuntime turns two counter readings around a timed section of ops
// operations into the runtime.* series.
func addRuntime(s *samples, before, after runtimeCounters, ops int) {
	n := float64(max(ops, 1))
	s.add("runtime.gc_cycles_per_op", float64(after.gcCycles-before.gcCycles)/n)
	s.add("runtime.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
	s.add("runtime.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/n/(1<<20))
	s.add("runtime.heap_sys_mb", float64(after.heapSys)/(1<<20))
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		s.add("runtime.gc_cpu_pct", 100*(after.gcCPU-before.gcCPU)/cpu)
	} else {
		s.add("runtime.gc_cpu_pct", 0)
	}
}

// endToEndMetrics turns an untraced section into the five headline
// numbers.
func endToEndMetrics(setups []float64, s *samples) map[string]metric {
	values := map[string]float64{
		"setup_s":            median(setups),
		"op_p50_ms":          median(s.opMS),
		"fset_forgotten_pct": 100 - 100*mean(s.fsetAcc),
		"rset_acc_pct":       100 * mean(s.rsetAcc),
		"predict_p50_ms":     median(s.predictMS),
	}
	return namedMetrics(endToEnd, func(name string) float64 { return values[name] })
}

// layerMetrics reduces the pooled layer series to one number per name: the
// median, except for the few names that are defined as something else.
func layerMetrics(layer map[string][]float64) map[string]metric {
	derived := map[string]float64{
		"core.unlearn_p90_ms":       percentile(layer["core.unlearn_ms"], 90),
		"core.overhead_ms":          median(layer["core.unlearn_ms"]) - median(layer["core.sga_ms"]) - median(layer["core.recover_ms"]),
		"serve.predict_load_p90_ms": percentile(layer["serve.predict_load_ms"], 90),
		// One epoch that split its burst must show, so this is the worst
		// epoch, not the typical one.
		"serve.burst3_batches": percentile(layer["serve.burst3_batches"], 100),
	}
	return namedMetrics(perLayer, func(name string) float64 {
		if v, ok := derived[name]; ok {
			return v
		}
		return median(layer[name])
	})
}

func namedMetrics(names []string, value func(string) float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, name := range names {
		out[name] = metric{Value: value(name), Unit: unitOf(name)}
	}
	return out
}

func (r *report) print(w io.Writer) {
	mode := "untraced (end-to-end metrics)"
	if r.Traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %s  quick=%v\n", r.Workload, r.Seed, r.Seconds, mode, r.Quick)
	fmt.Fprintf(w, "host: commit %s  %s  cpu %q  nproc %d  GOMAXPROCS %d  spin %.2f ms before, %.2f ms after\n",
		r.Host.Commit, r.Host.Go, r.Host.CPU, r.Host.NProc, r.Host.GOMAXPROCS, r.SpinMS[0], r.SpinMS[1])
	fmt.Fprintf(w, "steps %d per timed section  set-ups %d  ops attempted %d  succeeded %d  failed %d\n",
		r.Steps, r.Setups, r.Result.Attempted, r.Succeeded, r.Result.Failed)
	for _, reason := range r.Reasons {
		fmt.Fprintf(w, "  failed: %s\n", reason)
	}
	names := endToEnd
	if r.Traced {
		names = perLayer
	}
	for _, name := range names {
		m := r.Result.Metrics[name]
		note := ""
		switch name {
		case "op_p50_ms":
			note = fmt.Sprintf("  (n=%d)", r.OpSamples)
		case "predict_p50_ms":
			note = fmt.Sprintf("  (n=%d)", r.PredictSamples)
		case "setup_s":
			note = fmt.Sprintf("  (n=%d)", r.Setups)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s%s\n", name, m.Value, m.Unit, note)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  info %-23s %14.6g\n", k, r.Info[k])
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
		for _, t := range r.Spans {
			fmt.Fprintf(w, "  %-28s %8d %12.2f %12.2f\n", t.Name, t.Count, t.TotalMS, t.SelfMS)
		}
	}
}

func reportPath(outDir, workload string, traced bool) string {
	suffix := ""
	if traced {
		suffix = "_trace"
	}
	return filepath.Join(outDir, "report_"+workload+suffix+".json")
}

func (r *report) write(outDir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(outDir, r.Workload, r.Traced), append(b, '\n'), 0o644)
}

// speedupNote is the paper's headline ratio, printed for information when
// the latest untraced reports of both workloads are on disk.
func speedupNote(outDir string) string {
	read := func(workload string) (float64, bool) {
		b, err := os.ReadFile(reportPath(outDir, workload, false))
		if err != nil {
			return 0, false
		}
		var r report
		if json.Unmarshal(b, &r) != nil || r.Quick {
			return 0, false
		}
		v := r.Result.Metrics["op_p50_ms"].Value
		return v, v > 0
	}
	retrain, ok1 := read("retrain_baseline")
	unlearn, ok2 := read("unlearn_class")
	if !ok1 || !ok2 {
		return ""
	}
	return fmt.Sprintf("info: retrain_baseline/op_p50_ms ÷ unlearn_class/op_p50_ms = %.1f ms ÷ %.1f ms = %.2f× (latest reports under %s)\n",
		retrain, unlearn, retrain/unlearn, outDir)
}

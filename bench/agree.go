package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the agreement check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// qualityMetric reports whether a metric is a quality reading, which
// depends on the seed alone and must repeat to the last bit.
func qualityMetric(name string) bool { return name == "fset_forgotten_pct" || name == "rset_acc_pct" }

// runAgree is the acceptance check for the benchmark itself: on one build
// it makes two interleaved sets of n runs per workload (run i of both sets
// uses seed+i, and the sets alternate which goes first), prints both
// medians and quartiles per metric, and fails if a pair of medians differs
// by more than the metric's bound, if a spread exceeds the bound, or if a
// quality metric is not bit-identical between the two runs of a seed.
// Each run is its own process, as the driver's runs are.
func runAgree(o options, n int, w io.Writer) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("-agree needs at least 2 runs per set")
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the repository root: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, wl := range bf.Workloads {
			names = append(names, wl.Name)
		}
	}
	allOK := true
	for _, name := range names {
		var sets [2][]result
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				res, err := childRun(self, o, name, o.seed+int64(i))
				if err != nil {
					return false, fmt.Errorf("%s run %d of set %c: %w", name, i, 'A'+set, err)
				}
				sets[set] = append(sets[set], res)
			}
		}
		fmt.Fprintf(w, "%s: %d runs per set, seeds %d..%d, -seconds %d\n", name, n, o.seed, o.seed+int64(n)-1, o.seconds)
		if !compareSets(bf, sets, w) {
			allOK = false
		}
	}
	if allOK {
		fmt.Fprintln(w, "agreement: ok")
	} else {
		fmt.Fprintln(w, "agreement: FAILED")
	}
	return allOK, nil
}

// compareSets prints one line per end-to-end metric for two sets of runs
// of one workload, run i of both sets sharing a seed, and reports whether
// they agree.
func compareSets(bf *benchmarkFile, sets [2][]result, w io.Writer) bool {
	allOK := true
	for set, rs := range sets {
		for i, res := range rs {
			if !res.Correct {
				fmt.Fprintf(w, "  FAIL set %c run %d: not correct (%d of %d failed)\n", 'A'+set, i, res.Failed, res.Attempted)
				allOK = false
			}
		}
	}
	for _, m := range bf.EndToEnd {
		var vals [2][]float64
		for set, rs := range sets {
			for _, res := range rs {
				vals[set] = append(vals[set], res.Metrics[m.Name].Value)
			}
		}
		q1a, q2a, q3a := quartiles(vals[0])
		q1b, q2b, q3b := quartiles(vals[1])
		worse := (q2b - q2a) / math.Abs(q2a)
		if m.Better == "higher" {
			worse = -worse
		}
		widest := max(spread(vals[0]), spread(vals[1]))
		verdict := "ok"
		switch {
		case math.Abs(worse) > m.Bound:
			verdict = "FAIL medians differ by more than the bound"
		case m.Name != "setup_s" && widest > m.Bound:
			verdict = "FAIL spread exceeds the bound"
		case m.Name != "setup_s" && widest > m.Bound/3:
			verdict = "ok (spread above a third of the bound)"
		}
		if qualityMetric(m.Name) {
			for i := range vals[0] {
				if math.Float64bits(vals[0][i]) != math.Float64bits(vals[1][i]) {
					verdict = fmt.Sprintf("FAIL run %d read %v then %v on one seed", i, vals[0][i], vals[1][i])
				}
			}
		}
		if !strings.HasPrefix(verdict, "ok") {
			allOK = false
		}
		fmt.Fprintf(w, "  %-20s %-3s A %.6g [%.6g, %.6g] spread %.2f%%  B %.6g [%.6g, %.6g] spread %.2f%%  B vs A %+.2f%%  bound %.0f%%  %s\n",
			m.Name, m.Unit, q2a, q1a, q3a, 100*spread(vals[0]), q2b, q1b, q3b, 100*spread(vals[1]),
			100*(q2b-q2a)/math.Abs(q2a), 100*m.Bound, verdict)
	}
	return allOK
}

// childRun runs one untraced workload in a child process and parses the
// result line that ends its output.
func childRun(self string, o options, workload string, seed int64) (result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0", "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

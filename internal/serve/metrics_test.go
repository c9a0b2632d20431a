package serve

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"quickdrop/internal/telemetry"
	"quickdrop/internal/telemetry/health"
)

// TestEveryMetricNamesItsReader keeps the metric catalogue and
// DESIGN.md's reader table in step: every family the pipeline, the
// health monitor and the daemon register has a row naming its reader,
// and every metric row names a registered family. A metric added
// without a reader, or deleted without its row, fails here.
func TestEveryMetricNamesItsReader(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := telemetry.NewPipeline(reg, 1)
	health.New(health.Config{}, pipe)
	newServeMetrics(pipe)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}

	rows := readerRows(t, "../../DESIGN.md")
	for name := range registered {
		if !rows[name] {
			t.Errorf("metric %s has no row in DESIGN.md \"Who reads each signal\": name its reader or delete it", name)
		}
	}
	for name := range rows {
		if !registered[name] {
			t.Errorf("DESIGN.md \"Who reads each signal\" has a row for %s, which nothing registers", name)
		}
	}
}

// metricRow matches a reader-table row whose first cell is a metric
// family, e.g. "| `quickdrop_fl_rounds_total` | ... |".
var metricRow = regexp.MustCompile("^\\| `(quickdropd?_[a-z_]+)` \\|")

// readerRows returns the metric families named in the first column of
// the table under DESIGN.md's "Who reads each signal" heading.
func readerRows(t *testing.T, path string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "### Who reads each signal\n")
	if !ok {
		t.Fatalf("%s has no \"Who reads each signal\" section", path)
	}
	section, _, _ = strings.Cut(section, "\n### ")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if m := metricRow.FindStringSubmatch(line); m != nil {
			if rows[m[1]] {
				t.Errorf("DESIGN.md names %s in two rows", m[1])
			}
			rows[m[1]] = true
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no metric rows found in %s \"Who reads each signal\"", path)
	}
	return rows
}

// TestMetricsServedWithoutPipeline scrapes a daemon embedded with no
// telemetry pipeline after one batch: its quickdropd_* counters live on
// a private registry, and /metrics must serve that registry, so the
// totals /v1/status reports have matching series.
func TestMetricsServedWithoutPipeline(t *testing.T) {
	s, ts := newTestServer(t, tinyConfig(61), Config{})
	code, v := postForget(t, ts.URL, `{"kind":"class","class":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("post: status %d, want 202", code)
	}
	s.Start()
	waitTerminal(t, s, v.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"quickdropd_batches_total 1", "quickdropd_requests_published_total 1", "quickdropd_model_version 2"} {
		if !strings.Contains(string(body), "\n"+series+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", series, body)
		}
	}
}

package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServeEndpoints(t *testing.T) {
	p := NewPipeline(NewRegistry(), 2)
	p.Registry.Counter("quickdrop_serve_test_total", "Serve test.").Add(7)
	pt := p.StartPhase("train")
	p.EndRound(p.StartRound())
	pt.Stop()
	p.RecordAccuracy(0.5)

	s, err := Serve("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "quickdrop_serve_test_total 7") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "# TYPE quickdrop_serve_test_total counter") {
		t.Error("/metrics missing TYPE line")
	}
	if !strings.Contains(metrics, "\nquickdrop_eval_accuracy 0.5\n") {
		t.Errorf("/metrics missing accuracy gauge:\n%s", metrics)
	}
	if strings.Contains(metrics, "quantile=") {
		t.Errorf("/metrics carries summary quantiles inside a histogram family:\n%s", metrics)
	}

	if pprofIdx := get("/debug/pprof/"); !strings.Contains(pprofIdx, "profile") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}

// TestServeNilPipeline proves the handlers serve an empty view
// rather than panicking when the pipeline is nil.
func TestServeNilPipeline(t *testing.T) {
	s, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with nil pipeline: status %d", path, resp.StatusCode)
		}
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:bad", nil); err == nil {
		t.Fatal("want error for unparseable address")
	}
}

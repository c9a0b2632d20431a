package telemetry

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testManifest(t *testing.T, accuracy, fset float64, roundSum float64) *Manifest {
	t.Helper()
	restore := SetClockForTesting(func() int64 { return 1754400000e9 })
	defer restore()
	p := NewPipeline(NewRegistry(), 2)
	p.RecordAccuracy(accuracy)
	p.RecordSplitAccuracy(fset, accuracy)
	p.RoundSeconds.Observe(roundSum)
	return BuildManifest(p, "test", 42, map[string]string{"scale": "quick"})
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := testManifest(t, 0.9, 0.1, 1.5)
	if m.GoVersion == "" || m.Seed != 42 || m.Tool != "test" {
		t.Errorf("provenance = %+v", m)
	}
	path, err := WriteManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.HasSuffix(path, ".json") {
		t.Errorf("path = %q", path)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics["quickdrop_eval_accuracy"].Sum != 0.9 || got.Metrics["quickdrop_fset_accuracy"].Sum != 0.1 {
		t.Errorf("accuracy gauges = %+v", got.Metrics)
	}
	if got.Metrics["quickdrop_fl_round_seconds"].Count != 1 {
		t.Errorf("metrics = %+v", got.Metrics["quickdrop_fl_round_seconds"])
	}
	if got.Config["scale"] != "quick" {
		t.Errorf("config = %+v", got.Config)
	}
}

func TestDiffNoRegression(t *testing.T) {
	oldM := testManifest(t, 0.90, 0.10, 1.0)
	newM := testManifest(t, 0.88, 0.11, 1.1)
	entries, regressed := Diff(oldM, newM, DiffOptions{})
	if regressed {
		t.Errorf("within-threshold drift flagged as regression: %+v", entries)
	}
	if len(entries) == 0 {
		t.Fatal("no metrics compared")
	}
}

func TestDiffAccuracyRegression(t *testing.T) {
	oldM := testManifest(t, 0.90, 0.10, 1.0)
	newM := testManifest(t, 0.80, 0.10, 1.0)
	entries, regressed := Diff(oldM, newM, DiffOptions{})
	if !regressed {
		t.Fatal("0.10 accuracy drop not flagged")
	}
	found := false
	for _, e := range entries {
		if e.Metric == "gauge:quickdrop_eval_accuracy" && e.Regression {
			found = true
		}
		if e.Metric == "gauge:quickdrop_rset_accuracy" && e.Regression {
			// rset also dropped 0.10 here; fine that it flags too.
			continue
		}
	}
	if !found {
		t.Errorf("eval_accuracy regression missing: %+v", entries)
	}
}

// TestDiffForgetSetInversion: the forget set regresses by RISING —
// an unlearned model that recovers forget-set accuracy is broken.
func TestDiffForgetSetInversion(t *testing.T) {
	oldM := testManifest(t, 0.90, 0.10, 1.0)
	riseM := testManifest(t, 0.90, 0.40, 1.0)
	if _, regressed := Diff(oldM, riseM, DiffOptions{}); !regressed {
		t.Error("forget-set accuracy rise not flagged")
	}
	dropM := testManifest(t, 0.90, 0.01, 1.0)
	if entries, regressed := Diff(oldM, dropM, DiffOptions{}); regressed {
		t.Errorf("forget-set accuracy DROP wrongly flagged: %+v", entries)
	}
}

func TestDiffWallTimeRegression(t *testing.T) {
	oldM := testManifest(t, 0.90, 0.10, 1.0)
	newM := testManifest(t, 0.90, 0.10, 2.0)
	entries, regressed := Diff(oldM, newM, DiffOptions{})
	if !regressed {
		t.Fatal("2x wall-time growth not flagged")
	}
	found := false
	for _, e := range entries {
		if e.Metric == "sum:quickdrop_fl_round_seconds" && e.Regression {
			found = true
		}
	}
	if !found {
		t.Errorf("round_seconds regression missing: %+v", entries)
	}
	// A loose threshold tolerates the same growth.
	if _, regressed := Diff(oldM, newM, DiffOptions{TimeGrowPct: 200}); regressed {
		t.Error("200%% threshold should tolerate 2x growth")
	}
}

func TestBuildManifestNilPipeline(t *testing.T) {
	restore := SetClockForTesting(func() int64 { return int64(time.Hour) })
	defer restore()
	m := BuildManifest(nil, "bare", 1, nil)
	if m.Tool != "bare" || m.GoVersion == "" {
		t.Errorf("manifest = %+v", m)
	}
	if len(m.Metrics) != 0 || len(m.Audit) != 0 {
		t.Error("nil pipeline should yield provenance-only manifest")
	}
}

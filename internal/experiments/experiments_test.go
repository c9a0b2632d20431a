package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"quickdrop/internal/core"
	"quickdrop/internal/eval"
)

// micro is a minimal scale for structural tests: runs are fast and the
// assertions check plumbing (rows, costs, stages), not accuracy.
func micro() Scale {
	return Scale{Name: "micro", ImageSize: 8, PerClass: 8, Width: 4, Depth: 1,
		TrainRound: 3, LocalSteps: 3, BatchSize: 8, Retrain: 3, Seed: 7}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "standard", "large"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Fatalf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestNewSetup(t *testing.T) {
	sc := micro()
	iid, err := NewSetup("mnistlike", 4, 0, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(iid.Clients) != 4 || iid.Test.Len() == 0 {
		t.Fatalf("bad setup %+v", iid)
	}
	nonIID, err := NewSetup("cifarlike", 4, 0.1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if nonIID.Arch.InputC != 3 {
		t.Fatalf("cifarlike must be 3-channel, got %d", nonIID.Arch.InputC)
	}
	if _, err := NewSetup("imagenet", 4, 0.1, sc); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestTable1Capabilities(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("Table 1 must have 6 rows, got %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Name != "QuickDrop" || !last.ClassLevel || !last.ClientLevel || !last.Relearn || !last.StorageEfficient {
		t.Fatalf("QuickDrop row wrong: %+v", last)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	out := buf.String()
	for _, name := range []string{"Retrain-Or", "FedEraser", "S2U", "SGA", "FU-MP", "QuickDrop"} {
		if !strings.Contains(out, name) {
			t.Fatalf("printed table missing %s:\n%s", name, out)
		}
	}
}

func TestRunMethodsValidation(t *testing.T) {
	setup, err := NewSetup("mnistlike", 3, 0, micro())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMethods(setup, MethodRunOpts{}); err == nil {
		t.Fatal("expected error for no methods")
	}
	if _, err := RunMethods(setup, MethodRunOpts{
		Methods: []string{"NoSuchMethod"},
		Req:     core.Request{Kind: core.ClassLevel, Class: 0},
	}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestRunMethodsClassLevel(t *testing.T) {
	setup, err := NewSetup("mnistlike", 3, 0, micro())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunMethods(setup, MethodRunOpts{
		Methods: []string{"Retrain-Or", "QuickDrop"},
		Req:     core.Request{Kind: core.ClassLevel, Class: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Total.WallTime <= 0 || r.TrainTime <= 0 {
			t.Fatalf("%s missing costs: %+v", r.Method, r)
		}
	}
	if rows[0].Speedup != 1 {
		t.Fatalf("oracle speedup = %g, want 1", rows[0].Speedup)
	}
	if rows[1].Speedup <= 0 {
		t.Fatalf("QuickDrop speedup = %g", rows[1].Speedup)
	}
	// QuickDrop's unlearning must touch far fewer samples than retraining.
	if rows[1].Unlearn.DataSize >= rows[0].Unlearn.DataSize {
		t.Fatalf("QuickDrop data %d not compressed vs oracle %d",
			rows[1].Unlearn.DataSize, rows[0].Unlearn.DataSize)
	}
	var buf bytes.Buffer
	PrintMethodRows(&buf, rows)
	if !strings.Contains(buf.String(), "QuickDrop") {
		t.Fatal("printer dropped a row")
	}
}

func TestRunMethodsClientLevelWithRelearn(t *testing.T) {
	setup, err := NewSetup("mnistlike", 3, 0, micro())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunMethods(setup, MethodRunOpts{
		Methods: []string{"S2U", "QuickDrop"},
		Req:     core.Request{Kind: core.ClientLevel, Client: 1},
		Relearn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CanRelearn && !r.RelearnRan {
			t.Fatalf("%s should have relearned", r.Method)
		}
	}
	var buf bytes.Buffer
	PrintRelearnRows(&buf, rows)
	if !strings.Contains(buf.String(), "Speedup") {
		t.Fatalf("relearn printer has no Speedup column:\n%s", buf.String())
	}
}

func TestFigure2Structure(t *testing.T) {
	res, err := Figure2(micro())
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != 9 {
		t.Fatalf("target = %d", res.Target)
	}
	// trained + unlearn + 4 recovery snapshots.
	if len(res.Stages) != 6 || len(res.Acc) != 6 {
		t.Fatalf("stages = %v", res.Stages)
	}
	for _, acc := range res.Acc {
		if len(acc) != 10 {
			t.Fatalf("per-class accuracy has %d entries", len(acc))
		}
	}
	var buf bytes.Buffer
	PrintFigure2(&buf, res)
	if !strings.Contains(buf.String(), "recover-4") {
		t.Fatal("printer missing recovery stages")
	}
}

func TestFigure3Structure(t *testing.T) {
	rows, err := Figure3(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.FSetRate < 0 || r.FSetRate > 1 || r.RSetRate < 0 || r.RSetRate > 1 {
			t.Fatalf("rates out of range: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintFigure3(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("printer produced nothing")
	}
}

func TestFigure5And6Structure(t *testing.T) {
	f5, err := Figure5(micro(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f5) != 2 || f5[0].FineTuneEvals != 0 || f5[1].FineTuneEvals == 0 {
		t.Fatalf("figure5 rows wrong: %+v", f5)
	}
	if f5[0].TrainGradEvals == 0 {
		t.Fatal("training gradient evals missing")
	}

	f6, err := Figure6(micro(), []float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(f6) != 2 {
		t.Fatalf("figure6 rows wrong: %+v", f6)
	}
	// Lower scale keeps more synthetic samples.
	if f6[0].SynSamples <= f6[1].SynSamples {
		t.Fatalf("s=1 must keep more synthetic samples than s=100: %+v", f6)
	}
	var buf bytes.Buffer
	PrintFigure5(&buf, f5)
	PrintFigure6(&buf, f6)
	if buf.Len() == 0 {
		t.Fatal("printers produced nothing")
	}
}

func TestTable6Structure(t *testing.T) {
	rows, err := Table6(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.DistillTime <= 0 || r.TotalTime <= 0 {
			t.Fatalf("missing timings: %+v", r)
		}
		if r.Overhead <= 0 || r.Overhead >= 1 {
			t.Fatalf("overhead %.2f out of (0,1)", r.Overhead)
		}
	}
	var buf bytes.Buffer
	PrintTable6(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("printer produced nothing")
	}
}

func TestExtensionSampleLevel(t *testing.T) {
	rows, err := ExtensionSampleLevel(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Total.WallTime <= 0 {
			t.Fatalf("%s missing cost", r.Method)
		}
		if r.ForgottenMIA < 0 || r.ForgottenMIA > 1 || r.RetainedMIA < 0 || r.RetainedMIA > 1 {
			t.Fatalf("%s rates out of range: %+v", r.Method, r)
		}
	}
	var buf bytes.Buffer
	PrintExtensionSample(&buf, rows)
	if !strings.Contains(buf.String(), "QuickDrop") {
		t.Fatal("printer dropped a row")
	}
}

func TestAverageMethodRows(t *testing.T) {
	mk := func(f float64, ms int) MethodRow {
		return MethodRow{Method: "QuickDrop", FinalF: f,
			Total: eval.Cost{Rounds: 3, WallTime: time.Duration(ms) * time.Millisecond, DataSize: 10}}
	}
	avg := AverageMethodRows([][]MethodRow{{mk(0.2, 100)}, {mk(0.4, 300)}})
	if len(avg) != 1 {
		t.Fatalf("got %d rows", len(avg))
	}
	if diff := avg[0].FinalF - 0.3; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("FinalF = %g, want 0.3", avg[0].FinalF)
	}
	if avg[0].Total.WallTime != 200*time.Millisecond {
		t.Fatalf("WallTime = %v", avg[0].Total.WallTime)
	}
	// Single run passes through unchanged; empty input yields nil.
	one := AverageMethodRows([][]MethodRow{{mk(0.5, 10)}})
	if one[0].FinalF != 0.5 {
		t.Fatal("single run must pass through")
	}
	if AverageMethodRows(nil) != nil {
		t.Fatal("empty input must yield nil")
	}
}

func TestRunMethodsRepeatedAverages(t *testing.T) {
	sc := micro()
	sc.Repeats = 2
	rows, err := RunMethodsRepeated(sc, func(sc Scale) (*Setup, MethodRunOpts, error) {
		setup, err := NewSetup("mnistlike", 3, 0, sc)
		if err != nil {
			return nil, MethodRunOpts{}, err
		}
		return setup, MethodRunOpts{
			Methods: []string{"SGA-Or", "QuickDrop"},
			Req:     core.Request{Kind: core.ClassLevel, Class: 1},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Method != "SGA-Or" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestAblationsRun(t *testing.T) {
	rows, err := AblationAugment(micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Variant != "augment" {
		t.Fatalf("ablation rows wrong: %+v", rows)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, "augment", rows)
	if !strings.Contains(buf.String(), "no-augment") {
		t.Fatal("printer missing variant")
	}
}

func TestRunDispatcher(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", micro(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "QuickDrop") {
		t.Fatal("table1 output missing")
	}
	if err := Run("no-such-id", micro(), &buf); err == nil {
		t.Fatal("expected error for unknown id")
	}
	ids := IDs()
	if len(ids) != 16 {
		t.Fatalf("IDs() has %d entries", len(ids))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

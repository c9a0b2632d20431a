package baselines

import (
	"math"
	"runtime"
	"testing"

	"quickdrop/internal/core"
	"quickdrop/internal/fl"
	"quickdrop/internal/telemetry"
	"quickdrop/internal/tensor"
)

// newMethod constructs one baseline by name from fresh config and data.
func newMethod(t *testing.T, name string, cfg Config, clients fl.ClientRegistry) Method {
	t.Helper()
	var m Method
	var err error
	switch name {
	case "Retrain-Or":
		m, err = NewRetrainOr(cfg, clients)
	case "SGA-Or":
		m, err = NewSGAOr(cfg, clients)
	case "FedEraser":
		m, err = NewFedEraser(cfg, clients)
	case "FU-MP":
		m, err = NewFUMP(cfg, clients)
	case "S2U":
		m, err = NewS2U(cfg, clients)
	default:
		t.Fatalf("unknown method %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runToParams executes Prepare + Unlearn from scratch and returns the
// final global parameters' raw element slices.
func runToParams(t *testing.T, name string, req core.Request, tel *telemetry.Pipeline) [][]float64 {
	t.Helper()
	clients, _ := testClients(t, 2, 4, 7)
	cfg := testConfig()
	cfg.Train.Rounds = 4
	cfg.RetrainRounds = 4
	cfg.Telemetry = tel
	m := newMethod(t, name, cfg, clients)
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Unlearn(req); err != nil {
		t.Fatal(err)
	}
	params := m.Model().CloneParams()
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = p.Data()
	}
	return out
}

// TestBaselinesBitwiseDeterministic runs every baseline twice from
// identical seeds and data and requires the final global parameters to
// be bitwise identical. This is the auditability property: an
// unlearning run that cannot be replayed exactly cannot be verified
// against a certified transcript.
// The second run carries a live telemetry pipeline: observing a run
// must never change it.
func TestBaselinesBitwiseDeterministic(t *testing.T) {
	cases := []struct {
		name string
		req  core.Request
	}{
		{"Retrain-Or", core.Request{Kind: core.ClassLevel, Class: 1}},
		{"SGA-Or", core.Request{Kind: core.ClassLevel, Class: 1}},
		// Client-level requests exercise FedEraser's calibrated replay,
		// which folds a map of client updates in sorted client order.
		{"FedEraser", core.Request{Kind: core.ClientLevel, Client: 1}},
		{"FU-MP", core.Request{Kind: core.ClassLevel, Class: 1}},
		{"S2U", core.Request{Kind: core.ClientLevel, Client: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := runToParams(t, c.name, c.req, nil)
			second := runToParams(t, c.name, c.req,
				telemetry.NewPipeline(telemetry.NewRegistry(), 2))
			if len(first) != len(second) {
				t.Fatalf("param count differs: %d vs %d", len(first), len(second))
			}
			for i := range first {
				if len(first[i]) != len(second[i]) {
					t.Fatalf("param %d length differs: %d vs %d", i, len(first[i]), len(second[i]))
				}
				for j := range first[i] {
					if first[i][j] != second[i][j] {
						t.Fatalf("%s is not bitwise deterministic: param %d elem %d is %v vs %v",
							c.name, i, j, first[i][j], second[i][j])
					}
				}
			}
		})
	}
}

// baseOf returns a method's shared state.
func baseOf(t *testing.T, m Method) *base {
	t.Helper()
	switch m := m.(type) {
	case *RetrainOr:
		return m.base
	case *SGAOr:
		return m.base
	case *FedEraser:
		return m.base
	case *FUMP:
		return m.base
	case *S2U:
		return m.base
	}
	t.Fatalf("unknown method %T", m)
	return nil
}

// TestBaselinesPooledMatchInline: every baseline trains its clients on
// fl's worker pool, as QuickDrop does, and the pool must not move a
// float. Prepare, Unlearn and (where supported) Relearn run at
// GOMAXPROCS 1, where each pool would have one worker and the phases
// train inline, and at 2 and 3, on the pool; parameters, the cost
// counter and FedEraser's stored updates must agree bit for bit.
func TestBaselinesPooledMatchInline(t *testing.T) {
	clients, _ := testClients(t, 3, 4, 7)
	cfg := testConfig()
	cfg.Train.Rounds = 3
	cfg.RetrainRounds = 3
	cases := []struct {
		name string
		req  core.Request
	}{
		{"Retrain-Or", core.Request{Kind: core.ClassLevel, Class: 1}},
		{"SGA-Or", core.Request{Kind: core.ClassLevel, Class: 1}},
		{"FedEraser", core.Request{Kind: core.ClassLevel, Class: 1}},
		{"FU-MP", core.Request{Kind: core.ClassLevel, Class: 1}},
		{"S2U", core.Request{Kind: core.ClientLevel, Client: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(procs int) Method {
				t.Helper()
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				m := newMethod(t, c.name, cfg, clients)
				if err := m.Prepare(); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Unlearn(c.req); err != nil {
					t.Fatal(err)
				}
				if m.Capabilities().Relearn {
					if _, err := m.Relearn(c.req); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			inline := run(1)
			for _, procs := range []int{2, 3} {
				pooled := run(procs)
				requireSameTensors(t, "parameters", inline.Model().ParamTensors(), pooled.Model().ParamTensors())
				if got, want := baseOf(t, pooled).counter, baseOf(t, inline).counter; got != want {
					t.Fatalf("GOMAXPROCS=%d: counter %+v, inline %+v", procs, got, want)
				}
				if f, ok := inline.(*FedEraser); ok {
					g := pooled.(*FedEraser)
					if len(g.history) != len(f.history) || g.StoredFloats != f.StoredFloats {
						t.Fatalf("GOMAXPROCS=%d: %d rounds / %d floats of history, inline %d / %d",
							procs, len(g.history), g.StoredFloats, len(f.history), f.StoredFloats)
					}
					for k, round := range f.history {
						if len(g.history[k]) != len(round) {
							t.Fatalf("GOMAXPROCS=%d: round %d recorded %d clients, inline %d", procs, k, len(g.history[k]), len(round))
						}
						for id, delta := range round {
							requireSameTensors(t, "stored update", delta, g.history[k][id])
						}
					}
				}
			}
		})
	}
}

// requireSameTensors fails unless want and got hold the same bits.
func requireSameTensors(t *testing.T, what string, want, got []*tensor.Tensor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d tensors", what, len(got), len(want))
	}
	for i := range want {
		w, g := want[i].Data(), got[i].Data()
		if len(w) != len(g) {
			t.Fatalf("%s %d: %d vs %d values", what, i, len(g), len(w))
		}
		for j := range w {
			if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
				t.Fatalf("%s %d: element %d is %g, want %g", what, i, j, g[j], w[j])
			}
		}
	}
}

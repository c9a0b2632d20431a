package experiments

import (
	"fmt"
	"io"
	"time"

	"quickdrop/internal/baselines"
	"quickdrop/internal/core"
	"quickdrop/internal/eval"
	"quickdrop/internal/telemetry"
)

// MethodRow is one table row comparing an FU approach on a request, with
// the paper's columns: accuracy after the unlearning stage, accuracy after
// recovery, per-stage cost, and speedup versus Retrain-Or.
type MethodRow struct {
	Method string
	// StageF/StageR: F-Set and R-Set accuracy right after the unlearning
	// stage (before recovery).
	StageF, StageR float64
	// FinalF/FinalR: accuracy after recovery completes.
	FinalF, FinalR float64
	// RelearnF/RelearnR: accuracy after relearning (when requested).
	RelearnF, RelearnR float64
	CanRelearn         bool
	RelearnRan         bool
	Unlearn, Recover   eval.Cost
	Total              eval.Cost
	Speedup            float64
	// TrainTime is the initial FL training cost (context, not speedup).
	TrainTime time.Duration
}

// MethodRunOpts selects what RunMethods compares.
type MethodRunOpts struct {
	// Methods lists method names; "QuickDrop" plus any of the baselines.
	Methods []string
	// Req is the unlearning request all methods serve.
	Req core.Request
	// Relearn additionally relearns the request afterwards (Table 5).
	Relearn bool
	// Participation subsamples clients during training and recovery
	// (Table 3 uses 0.1); unlearning always uses full participation.
	Participation float64
}

// RunMethods executes the same unlearning request with every selected
// method on identical data and returns one row per method, with speedups
// relative to the Retrain-Or row when present.
func RunMethods(setup *Setup, opts MethodRunOpts) ([]MethodRow, error) {
	if len(opts.Methods) == 0 {
		return nil, fmt.Errorf("experiments: no methods selected")
	}
	rows := make([]MethodRow, 0, len(opts.Methods))
	for _, name := range opts.Methods {
		var row MethodRow
		var err error
		if name == "QuickDrop" {
			row, err = runQuickDrop(setup, opts)
		} else {
			row, err = runBaseline(setup, name, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	// Speedups vs Retrain-Or.
	var oracle *MethodRow
	for i := range rows {
		if rows[i].Method == "Retrain-Or" {
			oracle = &rows[i]
		}
	}
	if oracle != nil {
		for i := range rows {
			rows[i].Speedup = rows[i].Total.Speedup(oracle.Total)
		}
	}
	return rows, nil
}

func runQuickDrop(setup *Setup, opts MethodRunOpts) (MethodRow, error) {
	row := MethodRow{Method: "QuickDrop", CanRelearn: true}
	cfg := setup.CoreConfig()
	cfg.Train.Participation = opts.Participation
	cfg.Recover.Participation = opts.Participation
	sys, err := core.NewSystem(cfg, setup.Cohort)
	if err != nil {
		return row, err
	}
	sys.Cfg.Observer = func(stage string) {
		f, r := setup.SplitAccuracy(sys.Model, opts.Req)
		setup.Scale.Telemetry.RecordSplitAccuracy(f, r)
		switch stage {
		case "unlearn":
			row.StageF, row.StageR = f, r
		case "recover":
			row.FinalF, row.FinalR = f, r
		case "relearn":
			row.RelearnF, row.RelearnR = f, r
			row.RelearnRan = true
		}
	}
	sw := telemetry.StartTimer()
	if _, err := sys.Train(); err != nil {
		return row, err
	}
	row.TrainTime = sw.Elapsed()
	rep, err := sys.Unlearn(opts.Req)
	if err != nil {
		return row, err
	}
	row.Unlearn, row.Recover, row.Total = rep.Unlearn, rep.Recover, rep.Total
	if opts.Relearn {
		if _, err := sys.Relearn(opts.Req); err != nil {
			return row, err
		}
	}
	return row, nil
}

func runBaseline(setup *Setup, name string, opts MethodRunOpts) (MethodRow, error) {
	row := MethodRow{Method: name}
	cfg := setup.BaselineConfig()
	cfg.Train.Participation = opts.Participation
	cfg.RecoverPhase.Participation = opts.Participation
	var m baselines.Method
	cfg.Observer = func(stage string) {
		f, r := setup.SplitAccuracy(m.Model(), opts.Req)
		setup.Scale.Telemetry.RecordSplitAccuracy(f, r)
		switch stage {
		case "unlearn":
			row.StageF, row.StageR = f, r
		case "recover":
			row.FinalF, row.FinalR = f, r
		case "relearn":
			row.RelearnF, row.RelearnR = f, r
			row.RelearnRan = true
		}
	}
	m, err := newMethod(name, cfg, setup)
	if err != nil {
		return row, err
	}
	row.CanRelearn = m.Capabilities().Relearn
	sw := telemetry.StartTimer()
	if err := m.Prepare(); err != nil {
		return row, err
	}
	row.TrainTime = sw.Elapsed()
	res, err := m.Unlearn(opts.Req)
	if err != nil {
		return row, err
	}
	row.Unlearn, row.Recover, row.Total = res.Unlearn, res.Recover, res.Total
	if opts.Relearn && row.CanRelearn {
		if _, err := m.Relearn(opts.Req); err != nil {
			return row, err
		}
	}
	return row, nil
}

func newMethod(name string, cfg baselines.Config, setup *Setup) (baselines.Method, error) {
	switch name {
	case "Retrain-Or":
		return baselines.NewRetrainOr(cfg, setup.Cohort)
	case "SGA-Or":
		return baselines.NewSGAOr(cfg, setup.Cohort)
	case "FedEraser":
		return baselines.NewFedEraser(cfg, setup.Cohort)
	case "FU-MP":
		return baselines.NewFUMP(cfg, setup.Cohort)
	case "S2U":
		return baselines.NewS2U(cfg, setup.Cohort)
	default:
		return nil, fmt.Errorf("experiments: unknown method %q", name)
	}
}

// RunMethodsRepeated runs the comparison sc.Repeats times with independent
// seeds and returns element-wise averaged rows, recomputing speedups from
// the averaged totals. build constructs the setup and options for a given
// scale (whose Seed is varied per repeat).
func RunMethodsRepeated(sc Scale, build func(sc Scale) (*Setup, MethodRunOpts, error)) ([]MethodRow, error) {
	reps := sc.EffectiveRepeats()
	var runs [][]MethodRow
	for i := 0; i < reps; i++ {
		s2 := sc
		s2.Seed = sc.Seed + int64(i)*1009 // decorrelate data, init and schedule
		setup, opts, err := build(s2)
		if err != nil {
			return nil, err
		}
		rows, err := RunMethods(setup, opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rows)
	}
	return AverageMethodRows(runs), nil
}

// AverageMethodRows averages aligned rows across runs. All runs must have
// the same method order (RunMethods guarantees it for a fixed options
// value).
func AverageMethodRows(runs [][]MethodRow) []MethodRow {
	if len(runs) == 0 {
		return nil
	}
	if len(runs) == 1 {
		return runs[0]
	}
	n := float64(len(runs))
	out := make([]MethodRow, len(runs[0]))
	copy(out, runs[0])
	for i := range out {
		var acc MethodRow
		acc.Method = out[i].Method
		acc.CanRelearn = out[i].CanRelearn
		acc.RelearnRan = out[i].RelearnRan
		for _, run := range runs {
			r := run[i]
			if r.Method != acc.Method {
				panic(fmt.Sprintf("experiments: run rows misaligned: %q vs %q", r.Method, acc.Method))
			}
			acc.StageF += r.StageF
			acc.StageR += r.StageR
			acc.FinalF += r.FinalF
			acc.FinalR += r.FinalR
			acc.RelearnF += r.RelearnF
			acc.RelearnR += r.RelearnR
			acc.TrainTime += r.TrainTime
			addCost(&acc.Unlearn, r.Unlearn)
			addCost(&acc.Recover, r.Recover)
			addCost(&acc.Total, r.Total)
		}
		acc.StageF /= n
		acc.StageR /= n
		acc.FinalF /= n
		acc.FinalR /= n
		acc.RelearnF /= n
		acc.RelearnR /= n
		acc.TrainTime /= time.Duration(n)
		divCost(&acc.Unlearn, n)
		divCost(&acc.Recover, n)
		divCost(&acc.Total, n)
		out[i] = acc
	}
	// Recompute speedups from the averaged totals.
	var oracle *MethodRow
	for i := range out {
		if out[i].Method == "Retrain-Or" {
			oracle = &out[i]
		}
	}
	if oracle != nil {
		for i := range out {
			out[i].Speedup = out[i].Total.Speedup(oracle.Total)
		}
	}
	return out
}

func addCost(dst *eval.Cost, src eval.Cost) {
	dst.Rounds += src.Rounds
	dst.WallTime += src.WallTime
	dst.DataSize += src.DataSize
}

func divCost(c *eval.Cost, n float64) {
	c.Rounds = int(float64(c.Rounds)/n + 0.5)
	c.WallTime = time.Duration(float64(c.WallTime) / n)
	c.DataSize = int(float64(c.DataSize)/n + 0.5)
}

// PrintMethodRows renders rows in the style of the paper's Table 2.
func PrintMethodRows(w io.Writer, rows []MethodRow) {
	fmt.Fprintf(w, "%-11s | %7s %7s | %6s %9s %6s | %7s %7s | %6s %9s %6s | %9s %8s\n",
		"Approach", "U:F-Set", "U:R-Set", "U:Rnd", "U:Time", "U:Data",
		"R:F-Set", "R:R-Set", "R:Rnd", "R:Time", "R:Data", "Total", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s | %6.2f%% %6.2f%% | %6d %9s %6d | %6.2f%% %6.2f%% | %6d %9s %6d | %9s %7.1fx\n",
			r.Method, 100*r.StageF, 100*r.StageR,
			r.Unlearn.Rounds, r.Unlearn.WallTime.Round(time.Millisecond), r.Unlearn.DataSize,
			100*r.FinalF, 100*r.FinalR,
			r.Recover.Rounds, r.Recover.WallTime.Round(time.Millisecond), r.Recover.DataSize,
			r.Total.WallTime.Round(time.Millisecond), r.Speedup)
	}
}

// PrintRelearnRows renders the relearning columns of Table 5, with each
// method's unlearn + recover speed-up over Retrain-Or.
func PrintRelearnRows(w io.Writer, rows []MethodRow) {
	fmt.Fprintf(w, "%-11s | %12s %12s | %12s %12s | %8s\n",
		"Approach", "U+R F-Set", "U+R R-Set", "Relearn F", "Relearn R", "Speedup")
	for _, r := range rows {
		relearnF, relearnR := "—", "—"
		if r.RelearnRan {
			relearnF, relearnR = fmt.Sprintf("%.2f%%", 100*r.RelearnF), fmt.Sprintf("%.2f%%", 100*r.RelearnR)
		}
		fmt.Fprintf(w, "%-11s | %11.2f%% %11.2f%% | %12s %12s | %7.1fx\n",
			r.Method, 100*r.FinalF, 100*r.FinalR, relearnF, relearnR, r.Speedup)
	}
}

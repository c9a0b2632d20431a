package experiments

import (
	"fmt"
	"io"
	"time"

	"quickdrop/internal/baselines"
	"quickdrop/internal/core"
	"quickdrop/internal/telemetry"
)

// Table1Row is one row of the paper's qualitative comparison (Table 1).
type Table1Row struct {
	baselines.Capabilities
	StorageNote string
}

// Table1 returns the capability matrix of all FU approaches including
// QuickDrop.
func Table1() []Table1Row {
	// Build throwaway baselines just for their capability metadata; the
	// QuickDrop row is stated directly (its storage overhead depends on
	// the scale parameter — footnote 1 of the paper's table).
	rows := []Table1Row{
		{Capabilities: baselines.Capabilities{Name: "Retrain-Or", ClassLevel: true, ClientLevel: true, Relearn: true, StorageEfficient: true, ComputeEfficiency: "very low"}},
		{Capabilities: baselines.Capabilities{Name: "FedEraser", ClassLevel: true, ClientLevel: true, Relearn: true, StorageEfficient: false, ComputeEfficiency: "low"}},
		{Capabilities: baselines.Capabilities{Name: "S2U", ClassLevel: false, ClientLevel: true, Relearn: true, StorageEfficient: true, ComputeEfficiency: "low"}},
		{Capabilities: baselines.Capabilities{Name: "SGA", ClassLevel: true, ClientLevel: true, Relearn: true, StorageEfficient: true, ComputeEfficiency: "medium"}},
		{Capabilities: baselines.Capabilities{Name: "FU-MP", ClassLevel: true, ClientLevel: false, Relearn: false, StorageEfficient: true, ComputeEfficiency: "medium"}},
		{
			Capabilities: baselines.Capabilities{Name: "QuickDrop", ClassLevel: true, ClientLevel: true, Relearn: true, StorageEfficient: true, ComputeEfficiency: "high"},
			StorageNote:  "storage overhead is 1/s of the local dataset (s=100 → 1%)",
		},
	}
	return rows
}

// PrintTable1 renders the capability matrix.
func PrintTable1(w io.Writer, rows []Table1Row) {
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	fmt.Fprintf(w, "%-11s | %-12s %-13s %-8s %-12s %-12s\n",
		"Algorithm", "Class-unl.", "Client-unl.", "Relearn", "Storage-eff", "Compute-eff")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s | %-12s %-13s %-8s %-12s %-12s\n",
			r.Name, yn(r.ClassLevel), yn(r.ClientLevel), yn(r.Relearn), yn(r.StorageEfficient), r.ComputeEfficiency)
		if r.StorageNote != "" {
			fmt.Fprintf(w, "            (%s)\n", r.StorageNote)
		}
	}
}

// Table2 reproduces the class-level single-request comparison on the
// CIFAR-10 stand-in with 10 clients and Dirichlet(0.1) partitioning:
// accuracy and computation cost for every class-capable approach.
func Table2(sc Scale) ([]MethodRow, error) {
	return RunMethodsRepeated(sc, func(sc Scale) (*Setup, MethodRunOpts, error) {
		setup, err := NewSetup("cifarlike", 10, 0.1, sc)
		if err != nil {
			return nil, MethodRunOpts{}, err
		}
		return setup, MethodRunOpts{
			Methods: []string{"Retrain-Or", "FedEraser", "SGA-Or", "FU-MP", "QuickDrop"},
			Req:     core.Request{Kind: core.ClassLevel, Class: 9},
		}, nil
	})
}

// Table3 reproduces the 100-client SVHN experiment with 10% participation
// during training and recovery (unlearning keeps full participation). The
// client count scales with the preset to keep per-client shards non-empty.
func Table3(sc Scale) ([]MethodRow, int, error) {
	clients := 100
	if sc.PerClass*10 < 4*clients {
		// Keep ≥4 samples per client on small presets.
		clients = sc.PerClass * 10 / 4
	}
	rows, err := RunMethodsRepeated(sc, func(sc Scale) (*Setup, MethodRunOpts, error) {
		setup, err := NewSetup("svhnlike", clients, 0.1, sc)
		if err != nil {
			return nil, MethodRunOpts{}, err
		}
		return setup, MethodRunOpts{
			Methods:       []string{"Retrain-Or", "FedEraser", "SGA-Or", "FU-MP", "QuickDrop"},
			Req:           core.Request{Kind: core.ClassLevel, Class: 9},
			Participation: 0.1,
		}, nil
	})
	return rows, clients, err
}

// Table4 reproduces client-level unlearning on the CIFAR-10 stand-in with
// 20 clients under non-IID (α=0.1) and IID partitioning. FU-MP is
// excluded (class-level only); S2U is included.
func Table4(sc Scale) (nonIID, iid []MethodRow, err error) {
	clients := 20
	if sc.PerClass*10 < 4*clients {
		clients = sc.PerClass * 10 / 4
	}
	methods := []string{"Retrain-Or", "FedEraser", "S2U", "SGA-Or", "QuickDrop"}
	req := core.Request{Kind: core.ClientLevel, Client: clients / 2}

	build := func(alpha float64) func(sc Scale) (*Setup, MethodRunOpts, error) {
		return func(sc Scale) (*Setup, MethodRunOpts, error) {
			setup, err := NewSetup("cifarlike", clients, alpha, sc)
			if err != nil {
				return nil, MethodRunOpts{}, err
			}
			return setup, MethodRunOpts{Methods: methods, Req: req}, nil
		}
	}
	nonIID, err = RunMethodsRepeated(sc, build(0.1))
	if err != nil {
		return nil, nil, err
	}
	iid, err = RunMethodsRepeated(sc, build(0))
	return nonIID, iid, err
}

// Table5 reproduces the unlearn+recover and relearn comparison on the
// CIFAR-10 and MNIST stand-ins with 20 clients and α=0.1.
func Table5(sc Scale) (cifar, mnist []MethodRow, err error) {
	clients := 20
	if sc.PerClass*10 < 4*clients {
		clients = sc.PerClass * 10 / 4
	}
	methods := []string{"Retrain-Or", "FedEraser", "SGA-Or", "FU-MP", "QuickDrop"}
	opts := MethodRunOpts{
		Methods: methods,
		Req:     core.Request{Kind: core.ClassLevel, Class: 9},
		Relearn: true,
	}
	build := func(dataset string) func(sc Scale) (*Setup, MethodRunOpts, error) {
		return func(sc Scale) (*Setup, MethodRunOpts, error) {
			setup, err := NewSetup(dataset, clients, 0.1, sc)
			if err != nil {
				return nil, MethodRunOpts{}, err
			}
			return setup, opts, nil
		}
	}
	cifar, err = RunMethodsRepeated(sc, build("cifarlike"))
	if err != nil {
		return nil, nil, err
	}
	mnist, err = RunMethodsRepeated(sc, build("mnistlike"))
	return cifar, mnist, err
}

// Table6Row reports the in-situ distillation overhead for one dataset.
type Table6Row struct {
	Dataset string
	// TotalTime is the wall time of Train.
	TotalTime   time.Duration
	DistillTime time.Duration
	// ClientTime sums the clients' local training time, distillation
	// included (fl.PhaseResult.ClientTime). Clients train side by side,
	// so it can exceed TotalTime.
	ClientTime time.Duration
	// Overhead is DistillTime / ClientTime: the share of a client's own
	// training time that goes to distillation, the paper's per-client
	// overhead, whatever the clients overlap.
	Overhead float64
}

// Table6 measures the compute overhead of in-situ dataset distillation
// during FL training for all three datasets.
func Table6(sc Scale) ([]Table6Row, error) {
	var rows []Table6Row
	for _, ds := range []string{"mnistlike", "cifarlike", "svhnlike"} {
		setup, err := NewSetup(ds, 10, 0.1, sc)
		if err != nil {
			return nil, err
		}
		sys, err := setup.NewQuickDrop()
		if err != nil {
			return nil, err
		}
		sw := telemetry.StartTimer()
		res, err := sys.Train()
		if err != nil {
			return nil, err
		}
		total := sw.Elapsed()
		rows = append(rows, Table6Row{
			Dataset:     ds,
			TotalTime:   total,
			DistillTime: sys.Matcher.DDTime,
			ClientTime:  res.ClientTime,
			Overhead:    float64(sys.Matcher.DDTime) / float64(res.ClientTime),
		})
	}
	return rows, nil
}

// PrintTable6 renders the overhead table.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "%-10s | %12s %12s %12s %9s\n", "Dataset", "Total", "Client", "DD Time", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %12s %12s %12s %8.1f%%\n", r.Dataset, r.TotalTime.Round(time.Millisecond),
			r.ClientTime.Round(time.Millisecond), r.DistillTime.Round(time.Millisecond), 100*r.Overhead)
	}
}

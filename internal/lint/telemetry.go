package lint

import "go/ast"

// Telemetry keeps the observability layer honest about its own
// zero-allocation contract: inside functions reachable from a
// //lint:hotpath root, only the record-path calls of the
// internal/telemetry package may appear — the atomic counter/gauge/
// histogram updates, the span start/end pair, and the stopwatch reads.
// Everything else in the package (constructors, registries, exporters,
// snapshots, the JSONL event log) allocates or takes locks and belongs
// in setup or reporting code, not in a training step.
//
// The hot-reachable set is the same one hotpathalloc computes, so the
// two analyzers agree on what "the hot path" is.
var Telemetry = &Analyzer{
	Name: "telemetry",
	Doc:  "only allocation-free telemetry record calls on //lint:hotpath paths",
	Run:  runTelemetryRule,
}

// recordSafeTelemetry are the internal/telemetry functions and methods
// proven allocation-free by the package's AllocsPerRun tests. Anything
// outside this set is flagged when called from a hot-reachable
// function.
var recordSafeTelemetry = map[string]bool{
	// metric record paths
	"Inc": true, "Add": true, "Set": true,
	"Observe": true, "ObserveDuration": true, "Value": true, "At": true,
	// clock reads
	"Now": true, "StartTimer": true, "Elapsed": true,
	// span record paths
	"Start": true, "End": true,
	// pipeline per-step instruments
	"LocalStep": true, "StartRound": true, "EndRound": true,
	"StartClient": true, "EndClient": true,
	"StartDistill": true, "EndDistill": true,
	"DropUpdate": true, "Request": true,
}

// recordSafeHealth are the internal/telemetry/health methods proven
// allocation-free by the package's AllocsPerRun tests: the sampling
// gate and the latch-only Record* observations. Everything else on the
// monitor — Check (emits the JSONL trip event under a lock), Reset,
// Summary, New, BindLayers — belongs at phase boundaries, not in a
// training step.
var recordSafeHealth = map[string]bool{
	"Sample": true, "RecordLoss": true, "RecordLayer": true,
	"RecordDistill": true, "RecordRound": true,
	"BeginPhase": true, "Tripped": true,
}

func runTelemetryRule(pass *Pass) {
	info := pass.Pkg.Info
	for fn, fd := range hotReachable(pass) {
		name := fn.Name()
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil {
				return true
			}
			switch pkgPath := funcPkgPath(callee); {
			case hasPathSuffix(pkgPath, "internal/telemetry/health"):
				if recordSafeHealth[callee.Name()] {
					return true
				}
				pass.Reportf(call.Pos(),
					"health call %s on the hot path of %s: only the sampling gate and latch-only Record* observations belong on //lint:hotpath paths (Check/Reset/Summary run at phase boundaries)",
					callee.Name(), name)
			case hasPathSuffix(pkgPath, "internal/telemetry"):
				if recordSafeTelemetry[callee.Name()] {
					return true
				}
				pass.Reportf(call.Pos(),
					"telemetry call %s on the hot path of %s: only allocation-free record calls (Inc/Add/Observe, span Start/End, stopwatch reads) belong on //lint:hotpath paths",
					callee.Name(), name)
			}
			return true
		})
	}
}

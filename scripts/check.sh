#!/usr/bin/env sh
# check.sh — repository hygiene gate: formatting, vet, and race-enabled
# tests. Run via `make check`.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

# bench/ is its own module, so the vet above does not compile it: a
# deleted export that it imports would otherwise fail only CI's bench job.
echo "==> go vet ./... (bench)"
(cd bench && go vet ./...)

# Race gate over every package. internal/core's end-to-end cycles train
# real models (two fixtures, shared so each trains once per run), so under
# the race detector core is the slowest package here by far, and most of
# this script's wall time.
echo "==> go test -race ./..."
go test -race ./...

# Every micro-benchmark of the kernel and model layers, once each, the
# test-set scoring benchmark, the FL round and unlearn benchmarks, which
# reuse warm step arenas across steps, and the /v1/predict handler: a
# benchmark that no longer compiles or panics fails here, not at the next
# profile.
echo "==> go test -bench . -benchtime 1x (tensor, nn, eval, fl, core, serve)"
go test -run '^$' -bench . -benchtime 1x ./internal/tensor ./internal/nn ./internal/eval ./internal/fl ./internal/core ./internal/serve

# The matmul, im2col, direct-convolution and instance-norm kernels, and
# the first-order backward kernels (ConvWeightGradInto, ConvInputGradInto,
# AvgPoolBackInto), shard their rows only when GOMAXPROCS >= 2 and the
# work clears tensor.parallelWork, so on a multi-core runner the runs
# above gate the sharded branch and this one the inline branch.
echo "==> GOMAXPROCS=1 go test (tensor, autodiff, nn, eval)"
GOMAXPROCS=1 go test -count=1 ./internal/tensor ./internal/autodiff ./internal/nn ./internal/eval

# The trajectory pin hashes the trained fixture's state after an unlearn,
# recover and relearn. `make test` checks it with the kernels sharded (on a
# multi-core runner); here it must give the same hash inline.
echo "==> GOMAXPROCS=1 go test (trajectory pin)"
GOMAXPROCS=1 go test -count=1 -run '^TestTrajectoryPin$' ./internal/core

# The predict path beside the worker: pooled /v1/predict models and the
# worker's model each run inference on their own arena, while the worker
# scores each published version and answers tickets from those scores;
# and the snapshot store, whose only concurrency guarantee is its atomic
# pointer's publication. Repeated, because a race shows only in the
# interleavings a run happens to hit.
echo "==> go test -race -count=10 (predict beside the worker, snapshot readers)"
go test -race -count=10 -run '^(TestPredictBesideWorkerMatchesHeapPath|TestWorkerScoresMatchFreshEvaluation|TestSnapshotConcurrentReaders)$' ./internal/serve

# The /v1/predict body scanner against encoding/json, on inputs the
# fuzzer grows from the seeds. Minimizing an input grown from the 10 KB
# benchmark body takes the default 60 s, which would stall the whole run
# at 0 execs/s, so minimization is capped.
echo "==> go test -fuzz FuzzPredictBody (20s)"
go test -run '^$' -fuzz '^FuzzPredictBody$' -fuzztime 20s -fuzzminimizetime 100x ./internal/serve

# Every phase trains its clients side by side on the worker pool —
# Train's clients distill there too, sharing the matcher's counters —
# with the telemetry/health observers shared; each pooled phase must
# stay bit-identical to the inline one at 1, 2 and 3 workers.
echo "==> go test -race -count=5 (pooled phases match inline)"
go test -race -count=5 -run '^(TestTrainPooledMatchesInline|TestPhasesPooledMatchInline)$' ./internal/core

echo "check.sh: all clean"

#!/usr/bin/env sh
# check.sh — repository hygiene gate: formatting, vet, the quickdroplint
# static-analysis suite, and race-enabled tests. Run via `make check`.
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

echo "==> quickdroplint ./..."
go run ./cmd/quickdroplint ./...

# Race gate. Measured on the CI container (2026-08): the non-core tree
# finishes in ~80 s under -race, while internal/core's end-to-end
# train/unlearn/relearn cycles exceed a 10-minute timeout (they multiply
# full FL training by the race detector's ~10x slowdown; ~78 s without
# race). The exclusion is therefore exactly those e2e cycles, not the
# package: core's fast unit tests run under -race in -short mode (the
# e2e fixtures skip via skipE2EInShort), and the e2e cycles still run
# race-free in `make test`.
echo "==> go test -race (all packages except internal/core)"
go test -race $(go list ./... | grep -v 'internal/core$')

echo "==> go test -race -short ./internal/core (e2e train cycles skipped)"
go test -race -short ./internal/core

# The matmul and im2col kernels shard their rows only when GOMAXPROCS >= 2
# and the product clears tensor.parallelWork, so on a multi-core runner the
# runs above gate the sharded branch and this one the inline branch.
echo "==> GOMAXPROCS=1 go test (tensor, autodiff, nn, eval)"
GOMAXPROCS=1 go test -count=1 ./internal/tensor ./internal/autodiff ./internal/nn ./internal/eval

# The predict path beside the worker: pooled /v1/predict models and the
# worker's model each run inference on their own arena, while the worker
# scores each published version and answers tickets from those scores.
# Repeated, because a race shows only in the interleavings a run happens
# to hit.
echo "==> go test -race -count=10 (predict beside the worker)"
go test -race -count=10 -run '^(TestPredictBesideWorkerMatchesHeapPath|TestWorkerScoresMatchFreshEvaluation)$' ./internal/serve

# Every phase trains its clients side by side on the worker pool —
# Train's clients distill there too, sharing the matcher's counters —
# with the telemetry/health observers shared; each pooled phase must
# stay bit-identical to the inline one at 1, 2 and 3 workers.
echo "==> go test -race -count=5 (pooled phases match inline)"
go test -race -count=5 -run '^(TestTrainPooledMatchesInline|TestPhasesPooledMatchInline)$' ./internal/core

echo "check.sh: all clean"

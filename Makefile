GO ?= go

.PHONY: build test check bench bench-check fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Hygiene gate: gofmt, vet, and race-enabled tests on every package
# (see check.sh).
check:
	sh scripts/check.sh

# The repository benchmark (BENCHMARK.json, bench/README.md): every
# workload's end-to-end metrics, untraced, ~30 s each. The per-layer
# Benchmark* functions stay available via `go test -bench . ./internal/...`.
bench:
	for w in train_distill unlearn_class retrain_baseline serve_mixed; do \
		bash bench/run.sh --workload $$w --seed 7 --seconds 20 --trace 0 || exit 1; \
	done

# The benchmark's acceptance check: two interleaved sets of ten runs per
# workload on this build must agree within BENCHMARK.json's bounds, with
# quality metrics bit-identical per seed (~35 min).
bench-check:
	bash bench/run.sh -agree 10

fmt:
	gofmt -w .

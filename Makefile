GO ?= go

.PHONY: build test check lint bench bench-check fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Hygiene gate: gofmt, vet, quickdroplint, and race-enabled tests on
# everything except the slow end-to-end core package (see check.sh).
check:
	sh scripts/check.sh

# Static-analysis suite enforcing the compute-backbone invariants
# (pool balance, *Into aliasing, hot-path allocations, determinism,
# graph freezing, error handling) and the concurrency discipline
# (lock balance and ordering, goroutine leaks, atomic/plain mixing,
# WaitGroup balance). See DESIGN.md "Static analysis" and
# "Concurrency analysis". CI also gates the self-run's latency via
# scripts/lint_time_smoke.sh (10 s budget).
lint:
	$(GO) run ./cmd/quickdroplint ./...

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

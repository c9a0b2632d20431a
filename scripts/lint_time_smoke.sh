#!/usr/bin/env sh
# lint_time_smoke.sh — lint latency gate: the full seven-rule
# quickdroplint self-run over the module must finish inside a 10-second
# budget. On a 2-core host, 10 alternating runs per side, the self-run
# measured best 3.83 s, median 4.19 s with seven rules, against best
# 4.29 s, median 4.75 s with the fifteen before the second rule ×
# mutation audit; loading and type-checking take nearly all of it. The
# budget has ~2x headroom.
# The whole-program rule (lockorder) re-analyzes every package and the
# interprocedural summary fixpoints (lockorder, resbalance) are the
# first thing to go superlinear if someone feeds them an unbounded
# worklist — this smoke catches that as a CI failure instead of a slow
# developer loop. Writes a small report (timing + findings) to
# LINT_REPORT (default lint_self_run.txt) for upload as a CI artifact.
set -eu

cd "$(dirname "$0")/.."

BUDGET_SECS=${BUDGET_SECS:-10}
REPORT=${LINT_REPORT:-lint_self_run.txt}

# Build first so the measurement is the analysis, not the compiler.
go build -o /tmp/quickdroplint ./cmd/quickdroplint

start=$(date +%s)
findings=$(/tmp/quickdroplint ./... 2>&1) && status=0 || status=$?
end=$(date +%s)
elapsed=$((end - start))

{
	echo "quickdroplint self-run ($(git rev-parse --short HEAD 2>/dev/null || echo 'no-git'))"
	echo "rules: $(/tmp/quickdroplint -list | wc -l | tr -d ' ')"
	echo "elapsed_seconds: ${elapsed}"
	echo "budget_seconds: ${BUDGET_SECS}"
	echo "exit_status: ${status}"
	echo "findings:"
	if [ -n "$findings" ]; then
		echo "$findings"
	else
		echo "  (none — self-run clean)"
	fi
} >"$REPORT"

cat "$REPORT"

if [ "$status" -ne 0 ]; then
	echo "lint_time_smoke: self-run reported findings (exit $status)" >&2
	exit "$status"
fi
if [ "$elapsed" -gt "$BUDGET_SECS" ]; then
	echo "lint_time_smoke: self-run took ${elapsed}s, budget ${BUDGET_SECS}s" >&2
	exit 1
fi
echo "lint_time_smoke: clean in ${elapsed}s (budget ${BUDGET_SECS}s)"

#!/usr/bin/env sh
# lint_time_smoke.sh — the linter's self-run, once: the full two-rule
# quickdroplint run over the module, its findings printed with
# -format=github (CI turns them into per-line PR annotations), and a
# 10-second latency budget on that same run. On a 2-core host, 10
# alternating runs per side, the self-run measured best 3.01 s, median
# 3.46 s with two rules, against best 2.98 s, median 3.51 s with the
# seven before their rows moved to tests: loading and type-checking
# take nearly all of it. The budget has ~3x headroom.
# The whole-program rule (lockorder) re-analyzes every package, and its
# interprocedural summary fixpoint is the first thing to go superlinear
# if someone feeds it an unbounded worklist — this smoke catches that
# as a CI failure instead of a slow developer loop. Writes a small
# report (timing + findings) to LINT_REPORT (default lint_self_run.txt)
# for upload as a CI artifact.
set -eu

cd "$(dirname "$0")/.."

BUDGET_SECS=${BUDGET_SECS:-10}
REPORT=${LINT_REPORT:-lint_self_run.txt}

# Build first so the measurement is the analysis, not the compiler.
go build -o /tmp/quickdroplint ./cmd/quickdroplint

start=$(date +%s)
findings=$(/tmp/quickdroplint -format=github ./... 2>&1) && status=0 || status=$?
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

#!/usr/bin/env sh
# telemetry_smoke.sh — end-to-end check of the telemetry endpoint: runs
# a short fedsim training with -telemetry-addr, scrapes /metrics after
# training finishes (the -telemetry-linger window keeps the endpoint
# up), asserts the round/client/distill series and the accuracy gauges
# are exposed, and exercises the run ledger: fedsim -ledger writes a
# manifest whose metrics block carries the same gauges, and
# `experiments report -diff` accepts it against itself and rejects a
# synthetic accuracy regression. Run standalone or via the CI telemetry-endpoint-smoke
# job. RUNS_DIR overrides where the ledger manifest lands (CI points it
# at the workspace to upload it as an artifact).
set -eu

cd "$(dirname "$0")/.."

work=$(mktemp -d)
RUNS_DIR=${RUNS_DIR:-"$work/runs"}
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "==> build fedsim and experiments"
go build -o "$work/fedsim" ./cmd/fedsim
go build -o "$work/experiments" ./cmd/experiments

echo "==> run fedsim with an ephemeral telemetry endpoint"
"$work/fedsim" -dataset mnistlike -clients 2 -rounds 2 -steps 2 -batch 8 \
	-eval-every 2 -scale quick -ledger "$RUNS_DIR" \
	-telemetry-addr 127.0.0.1:0 -telemetry-linger 60s >"$work/log" 2>&1 &
pid=$!

# Wait for training to finish: the linger banner prints after the last
# round, so the scrape below sees the final counter values.
tries=0
until grep -q 'telemetry: lingering' "$work/log"; do
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "fedsim exited early:" >&2
		cat "$work/log" >&2
		exit 1
	fi
	tries=$((tries + 1))
	if [ "$tries" -gt 120 ]; then
		echo "timed out waiting for fedsim to finish training" >&2
		cat "$work/log" >&2
		exit 1
	fi
	sleep 1
done

addr=$(grep -om1 '127\.0\.0\.1:[0-9]*' "$work/log")
echo "==> scrape http://$addr/metrics"
curl -fsS "http://$addr/metrics" >"$work/metrics"

# value prints the sample of one series, named with its labels exactly.
value() { awk -v s="$1" '$1 == s { print $2 }' "$work/metrics"; }

status=0
for series in \
	quickdrop_fl_rounds_total \
	quickdrop_fl_round_seconds_count \
	'quickdrop_fl_local_steps_total{client="0"}' \
	'quickdrop_phase_seconds_count{phase="train"}'; do
	if ! grep -qF "$series" "$work/metrics"; then
		echo "missing series: $series" >&2
		status=1
	fi
done
# Local steps consumed samples, so the counter must have moved, not
# merely be registered. (fedsim trains without in-situ distillation:
# serve_smoke.sh checks quickdrop_distill_steps_total.)
samples=$(value quickdrop_fl_samples_total)
if ! awk -v v="$samples" 'BEGIN { exit !(v + 0 > 0) }'; then
	echo "quickdrop_fl_samples_total is ${samples:-missing}, want > 0" >&2
	status=1
fi
if [ "$(grep -c '^# TYPE ' "$work/metrics")" -lt 10 ]; then
	echo "suspiciously few metric families:" >&2
	cat "$work/metrics" >&2
	status=1
fi
# Two rounds ran, so the counter must read 2.
if ! grep -q '^quickdrop_fl_rounds_total 2$' "$work/metrics"; then
	echo "quickdrop_fl_rounds_total != 2:" >&2
	grep '^quickdrop_fl_rounds_total' "$work/metrics" >&2 || true
	status=1
fi
# Histogram families carry only _bucket/_sum/_count samples.
if grep -q 'quantile=' "$work/metrics"; then
	echo "quantile lines inside a histogram family:" >&2
	grep 'quantile=' "$work/metrics" >&2
	status=1
fi
# The accuracy gauges: all three exposed, and eval accuracy equal to
# the last test accuracy fedsim printed.
for gauge in quickdrop_eval_accuracy quickdrop_fset_accuracy quickdrop_rset_accuracy; do
	if ! grep -qE "^$gauge [0-9.eE+-]+$" "$work/metrics"; then
		echo "missing gauge: $gauge" >&2
		status=1
	fi
done
eval_acc=$(sed -n 's/^quickdrop_eval_accuracy //p' "$work/metrics")
printed=$(sed -n 's/^round .*test accuracy \([0-9.]*\)%.*/\1/p' "$work/log" | tail -n 1)
if [ -z "$printed" ] || [ "$(awk -v a="$eval_acc" 'BEGIN { printf "%.2f", 100 * a }')" != "$printed" ]; then
	echo "quickdrop_eval_accuracy $eval_acc does not match the printed test accuracy ${printed:-<none>}%" >&2
	status=1
fi

echo "==> check the run-ledger manifest"
manifest=$(sed -n 's/^ledger: manifest written to \(.*\)$/\1/p' "$work/log" | head -n 1)
if [ -z "$manifest" ] || [ ! -f "$manifest" ]; then
	echo "fedsim did not write a ledger manifest (RUNS_DIR=$RUNS_DIR)" >&2
	status=1
else
	for want in '"go_version"' '"quickdrop_fl_round_seconds"'; do
		if ! grep -qF "$want" "$manifest"; then
			echo "manifest missing: $want" >&2
			status=1
		fi
	done
	# The manifest's metrics block carries the three gauges, eval
	# accuracy at the value /metrics served.
	python3 - "$manifest" "$eval_acc" <<'EOF' || status=1
import json, sys
m = json.load(open(sys.argv[1]))["metrics"]
for g in ("quickdrop_eval_accuracy", "quickdrop_fset_accuracy", "quickdrop_rset_accuracy"):
    assert g in m, f"manifest metrics missing {g}"
got = m["quickdrop_eval_accuracy"]["sum"]
assert got == float(sys.argv[2]), f"manifest eval accuracy {got} != /metrics {sys.argv[2]}"
EOF

	echo "==> report -diff: a manifest against itself must pass"
	if ! "$work/experiments" report -diff "$manifest" "$manifest" >"$work/diff_ok"; then
		echo "self-diff reported a regression:" >&2
		cat "$work/diff_ok" >&2
		status=1
	fi

	echo "==> report -diff: a synthetic accuracy regression must fail"
	# Scope the perturbation to the gauge's entry in the metrics block:
	# every other entry has a "sum" field too.
	sed '/"quickdrop_eval_accuracy": {/,/}/ s/"sum": [0-9.eE+-]*/"sum": -1.0/' "$manifest" >"$work/regressed.json"
	if cmp -s "$manifest" "$work/regressed.json"; then
		echo "synthetic regression left the manifest unchanged" >&2
		status=1
	fi
	if "$work/experiments" report -diff "$manifest" "$work/regressed.json" >"$work/diff_bad" 2>&1; then
		echo "report -diff accepted a synthetic accuracy regression:" >&2
		cat "$work/diff_bad" >&2
		status=1
	elif ! grep -q 'REGRESSION' "$work/diff_bad" || ! grep -q 'gauge:quickdrop_eval_accuracy' "$work/diff_bad"; then
		echo "report -diff failed without naming the regression:" >&2
		cat "$work/diff_bad" >&2
		status=1
	fi
fi

[ "$status" -eq 0 ] && echo "telemetry_smoke.sh: /metrics and the ledger round-trip are healthy"
exit "$status"

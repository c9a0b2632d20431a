#!/usr/bin/env sh
# health_smoke.sh — end-to-end check of the numerics health watchdog:
# boots quickdropd with the health monitor on and a NaN fault injected
# into the SGA phase, posts forget requests, and asserts the guarded-
# publish contract — the watchdog trips, every ticket fails with the
# verdict pinned on it, NO new model version is published, the trip
# lands in the JSONL event log and the Prometheus surface, and the
# drained ledger manifest records the health summary plus per-request
# watchdog verdicts in the audit trail. Run standalone or via the CI
# health-smoke job. RUNS_DIR overrides where the ledger manifest lands
# (CI points it at the workspace to upload it as an artifact).
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

echo "==> build quickdropd"
go build -o "$work/quickdropd" ./cmd/quickdropd

echo "==> boot quickdropd with -health and a NaN injected before the SGA phase"
"$work/quickdropd" -dataset mnistlike -clients 4 -alpha 0 -rounds 3 -s 10 \
	-health -inject-nan unlearn \
	-addr 127.0.0.1:0 -linger 3s -ledger "$RUNS_DIR" >"$work/log" 2>&1 &
pid=$!

tries=0
until grep -q 'quickdropd: serving on' "$work/log"; do
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "quickdropd exited early:" >&2
		cat "$work/log" >&2
		exit 1
	fi
	tries=$((tries + 1))
	if [ "$tries" -gt 120 ]; then
		echo "timed out waiting for quickdropd to start serving" >&2
		cat "$work/log" >&2
		exit 1
	fi
	sleep 1
done
addr=$(grep -om1 '127\.0\.0\.1:[0-9]*' "$work/log")

echo "==> post 2 forget requests to http://$addr/v1/forget"
curl -fsS -X POST "http://$addr/v1/forget" -d '{"kind":"class","class":1}' >"$work/r1.json" &
c1=$!
curl -fsS -X POST "http://$addr/v1/forget" -d '{"kind":"class","class":2}' >"$work/r2.json" &
c2=$!
wait "$c1" "$c2"

echo "==> wait for the watchdog to fail the batch"
tries=0
until curl -fsS "http://$addr/v1/status" | grep -q '"requests_failed_total":2'; do
	tries=$((tries + 1))
	if [ "$tries" -gt 120 ]; then
		echo "timed out waiting for the watchdog to fail the requests" >&2
		curl -fsS "http://$addr/v1/requests" >&2 || true
		cat "$work/log" >&2
		exit 1
	fi
	sleep 1
done

status=0

echo "==> assert the guarded publish: nothing published, version stays 1"
curl -fsS "http://$addr/v1/status" >"$work/status.json"
for want in '"requests_published_total":0' '"requests_failed_total":2' \
	'"model_version":1'; do
	if ! grep -qF "$want" "$work/status.json"; then
		echo "status missing $want:" >&2
		cat "$work/status.json" >&2
		status=1
	fi
done

echo "==> assert every ticket carries the watchdog verdict"
curl -fsS "http://$addr/v1/requests" >"$work/requests.json"
python3 - "$work/requests.json" <<'EOF' || status=1
import json, sys
reqs = json.load(open(sys.argv[1]))["requests"]
assert len(reqs) == 2, f"{len(reqs)} requests listed, want 2"
for r in reqs:
    assert r["state"] == "failed", f"request {r['id']} is {r['state']}, want failed"
    assert "nan" in r.get("watchdog", ""), f"request {r['id']} watchdog {r.get('watchdog')!r}, want a NaN verdict"
    assert r.get("version", 0) == 0, f"failed request {r['id']} claims version {r['version']}"
print("tickets: 2 failed, both carrying the watchdog verdict")
EOF

echo "==> assert the trip reached the JSONL event log"
if ! grep -q '"event":"health_trip"' "$work/log"; then
	echo "no health_trip event in the daemon log:" >&2
	cat "$work/log" >&2
	status=1
fi

echo "==> scrape the health metrics"
curl -fsS "http://$addr/metrics" >"$work/metrics"
for series in quickdrop_health quickdrop_health_watchdog_trips_total; do
	if ! grep -qF "$series" "$work/metrics"; then
		echo "missing metric: $series" >&2
		status=1
	fi
done
# The injected NaN reached the monitor's observations.
nan=$(awk '$1 == "quickdrop_health_nan_events_total" { print $2 }' "$work/metrics")
if ! awk -v v="$nan" 'BEGIN { exit !(v + 0 > 0) }'; then
	echo "quickdrop_health_nan_events_total is ${nan:-missing}, want > 0 (a NaN was injected)" >&2
	status=1
fi
# The monitor tripped exactly once, refusing the one batch; the server
# then rewound the model and re-armed the monitor, so the health gauge
# reads healthy again.
if ! grep -q '^quickdrop_health_watchdog_trips_total 1$' "$work/metrics"; then
	echo "quickdrop_health_watchdog_trips_total != 1:" >&2
	grep '^quickdrop_health_watchdog_trips_total' "$work/metrics" >&2 || true
	status=1
fi
if ! grep -q '^quickdrop_health 1$' "$work/metrics"; then
	echo "quickdrop_health != 1 after the rewind re-armed the monitor:" >&2
	grep '^quickdrop_health ' "$work/metrics" >&2 || true
	status=1
fi

echo "==> /v1/status and /metrics report the same totals"
curl -fsS "http://$addr/v1/status" >"$work/status_now.json"
curl -fsS "http://$addr/metrics" >"$work/metrics_now"
python3 - "$work/status_now.json" "$work/metrics_now" <<'EOF' || status=1
import json, sys
st = json.load(open(sys.argv[1]))
series = {}
for line in open(sys.argv[2]):
    if line.strip() and not line.startswith("#"):
        name, value = line.split()
        series[name] = float(value)
for field, metric in (("batches_total", "quickdropd_batches_total"),
                      ("requests_published_total", "quickdropd_requests_published_total"),
                      ("requests_failed_total", "quickdropd_requests_failed_total"),
                      ("model_version", "quickdropd_model_version")):
    assert metric in series, f"/metrics has no {metric}"
    assert st[field] == series[metric], f"/v1/status {field}={st[field]} but /metrics {metric}={series[metric]}"
print("/v1/status totals equal their /metrics series")
EOF

echo "==> SIGTERM: the drained manifest records the health summary"
kill -TERM "$pid"
tries=0
while kill -0 "$pid" 2>/dev/null; do
	tries=$((tries + 1))
	if [ "$tries" -gt 30 ]; then
		echo "quickdropd did not drain within 30s" >&2
		cat "$work/log" >&2
		exit 1
	fi
	sleep 1
done
pid=""

manifest=$(sed -n 's/^quickdropd: ledger manifest written to \(.*\)$/\1/p' "$work/log" | head -n 1)
if [ -z "$manifest" ] || [ ! -f "$manifest" ]; then
	echo "quickdropd did not write a ledger manifest (RUNS_DIR=$RUNS_DIR)" >&2
	cat "$work/log" >&2
	status=1
else
	python3 - "$manifest" <<'EOF' || status=1
import json, sys
m = json.load(open(sys.argv[1]))
h = m.get("health")
assert h is not None, "manifest has no health summary"
assert h["tripped"], f"health summary not marked tripped: {h}"
assert h["trips"] >= 1, f"health summary trips {h['trips']}, want >= 1"
assert "nan" in h["verdict"], f"health verdict {h['verdict']!r}, want a NaN reason"
assert h["phase"] == "unlearn", f"health phase {h['phase']!r}, want unlearn"
audit = m.get("audit", [])
assert len(audit) == 2, f"{len(audit)} audit entries, want 2"
for e in audit:
    assert e["status"] == "failed", f"audit entry {e['id']} status {e['status']}"
    assert "nan" in e.get("watchdog", ""), f"audit entry {e['id']} has no watchdog verdict: {e}"
print(f"ledger: health summary tripped ({h['verdict']}), 2 audited watchdog failures")
EOF
fi

[ "$status" -eq 0 ] && echo "health_smoke.sh: the watchdog tripped, the publish was refused, and the ledger recorded it"
exit "$status"

#!/usr/bin/env sh
# serve_smoke.sh — end-to-end check of the quickdropd unlearning
# daemon: boots it on a tiny cohort, posts N concurrent forget
# requests, and asserts the serving contract — the requests coalesce
# into ONE batched SGA+recovery pass, a single new model version is
# published, /v1/predict serves from the snapshot store, the daemon
# metrics are exposed and equal the /v1/status totals, and a graceful
# SIGTERM drain
# writes the run-ledger manifest with one audit entry per request
# carrying before/after forget-set accuracy. Run standalone or via the
# CI serve-smoke job. RUNS_DIR overrides where the ledger manifest
# lands (CI points it at the workspace to upload it as an artifact).
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

echo "==> boot quickdropd on a tiny cohort"
# A generous linger guarantees the three posts below land in one batch
# even on a slow runner.
"$work/quickdropd" -dataset mnistlike -clients 4 -alpha 0 -rounds 3 -s 10 \
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

echo "==> post 3 concurrent forget requests to http://$addr/v1/forget"
curl -fsS -X POST "http://$addr/v1/forget" -d '{"kind":"class","class":1}' >"$work/r1.json" &
c1=$!
curl -fsS -X POST "http://$addr/v1/forget" -d '{"kind":"class","class":2}' >"$work/r2.json" &
c2=$!
curl -fsS -X POST "http://$addr/v1/forget" -d '{"kind":"client","client":0}' >"$work/r3.json" &
c3=$!
wait "$c1" "$c2" "$c3"
for f in r1 r2 r3; do
	if ! grep -q '"state":"queued"' "$work/$f.json"; then
		echo "submission $f not accepted:" >&2
		cat "$work/$f.json" >&2
		exit 1
	fi
done

echo "==> wait for the batch to publish"
tries=0
until curl -fsS "http://$addr/v1/status" | grep -q '"requests_published_total":3'; do
	tries=$((tries + 1))
	if [ "$tries" -gt 120 ]; then
		echo "timed out waiting for the requests to publish" >&2
		curl -fsS "http://$addr/v1/requests" >&2 || true
		cat "$work/log" >&2
		exit 1
	fi
	sleep 1
done

status=0

echo "==> assert coalescing: one batch, three requests, one new version"
curl -fsS "http://$addr/v1/status" >"$work/status.json"
for want in '"batches_total":1' '"requests_published_total":3' \
	'"requests_failed_total":0' '"model_version":2'; do
	if ! grep -qF "$want" "$work/status.json"; then
		echo "status missing $want:" >&2
		cat "$work/status.json" >&2
		status=1
	fi
done
curl -fsS "http://$addr/v1/requests" >"$work/requests.json"
python3 - "$work/requests.json" <<'EOF' || status=1
import json, sys
reqs = json.load(open(sys.argv[1]))["requests"]
assert len(reqs) == 3, f"{len(reqs)} requests listed, want 3"
for r in reqs:
    assert r["state"] == "published", f"request {r['id']} is {r['state']}: {r.get('error')}"
    assert r["batch"] == 1, f"request {r['id']} ran in batch {r['batch']}, want 1 (coalesced)"
    assert r["version"] == 2, f"request {r['id']} published version {r['version']}, want 2"
print("coalescing: 3 requests in 1 batch -> version 2")
EOF

echo "==> predict from the published snapshot"
python3 -c 'import json; print(json.dumps({"inputs": [[0.0] * 64]}))' |
	curl -fsS -X POST "http://$addr/v1/predict" -d @- >"$work/predict.json"
for want in '"version":2' '"predictions":[' ; do
	if ! grep -qF "$want" "$work/predict.json"; then
		echo "predict missing $want:" >&2
		cat "$work/predict.json" >&2
		status=1
	fi
done

echo "==> scrape the daemon metrics"
curl -fsS "http://$addr/metrics" >"$work/metrics"
for series in quickdropd_batches_total quickdropd_requests_published_total \
	quickdropd_model_version quickdropd_publish_seconds_count; do
	if ! grep -qF "$series" "$work/metrics"; then
		echo "missing metric: $series" >&2
		status=1
	fi
done
# Training at boot distilled in situ, so its step counter moved.
distill=$(awk '$1 == "quickdrop_distill_steps_total" { print $2 }' "$work/metrics")
if ! awk -v v="$distill" 'BEGIN { exit !(v + 0 > 0) }'; then
	echo "quickdrop_distill_steps_total is ${distill:-missing}, want > 0" >&2
	status=1
fi
# One batch coalesced all three requests: two class-level, one
# client-level.
for want in 'quickdropd_batch_requests_count 1' 'quickdropd_batch_requests_sum 3' \
	'quickdrop_unlearn_requests_total{kind="class"} 2' \
	'quickdrop_unlearn_requests_total{kind="client"} 1' \
	'quickdrop_unlearn_requests_total{kind="sample"} 0'; do
	if ! grep -qxF "$want" "$work/metrics"; then
		echo "metric line missing: $want" >&2
		grep "^${want%% *}" "$work/metrics" >&2 || true
		status=1
	fi
done
if ! grep -q '^quickdropd_batches_total 1$' "$work/metrics"; then
	echo "quickdropd_batches_total != 1 (coalescing broken):" >&2
	grep '^quickdropd_batches_total' "$work/metrics" >&2 || true
	status=1
fi
if ! grep -q '^quickdropd_model_version 2$' "$work/metrics"; then
	echo "quickdropd_model_version != 2 (one batch publishes version 2):" >&2
	grep '^quickdropd_model_version ' "$work/metrics" >&2 || true
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

echo "==> SIGTERM: graceful drain writes the ledger audit trail"
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
audit = m.get("audit", [])
assert len(audit) == 3, f"{len(audit)} audit entries, want 3 (one per request)"
kinds = sorted(e["kind"] for e in audit)
assert kinds == ["class", "class", "client"], f"audit kinds {kinds}"
for e in audit:
    assert e["status"] == "published", f"audit entry {e['id']} status {e['status']}"
    assert e["batch"] == 1 and e["version"] == 2, f"audit entry {e['id']}: {e}"
    for field in ("fset_before", "fset_after", "rset_before", "rset_after"):
        assert field in e, f"audit entry {e['id']} missing {field}"
print("ledger: 3 audit entries with before/after forget-set accuracy")
EOF
fi

[ "$status" -eq 0 ] && echo "serve_smoke.sh: coalescing, snapshots, and the audit trail are healthy"
exit "$status"

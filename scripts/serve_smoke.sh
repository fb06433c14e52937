#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the emserve job service.
#
# Builds cmd/emserve with the race detector, boots it on an ephemeral port,
# submits one tiny synthetic-grid Monte-Carlo job over HTTP, polls it to
# completion, fetches and sanity-checks the content-addressed result
# manifest, scrapes /metrics and the per-job stage timeline, checks the run
# ledger and renders it through `emtrace ledger`, and finally drains the
# server with SIGTERM (the process must exit 0 on its own — that is the
# graceful-drain contract).
#
# Usage: sh scripts/serve_smoke.sh [artifact-dir]
set -eu

OUT=${1:-serve-smoke-artifacts}
mkdir -p "$OUT"

go build -race -o "$OUT/emserve" ./cmd/emserve
"$OUT/emserve" -addr 127.0.0.1:0 -job-workers 2 -resultdir "$OUT/results" \
    >"$OUT/emserve.log" 2>&1 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

# The server logs its bound address ("listening on http://…"); wait for it.
ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's|.*listening on http://||p' "$OUT/emserve.log" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ADDR" ]; then
    echo "serve_smoke: emserve did not start" >&2
    cat "$OUT/emserve.log" >&2
    exit 1
fi

SPEC='{"engine":"mc","criterion":"wl","grid":{"name":"PG1","nx":6,"ny":6,"pad_period":3,"calibrate_ir":0.05},"trials":6,"seed":7}'
RESP=$(curl -sS -X POST --data "$SPEC" "http://$ADDR/v1/jobs")
echo "serve_smoke: submit -> $RESP"
ID=$(printf '%s' "$RESP" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
if [ -z "$ID" ]; then
    echo "serve_smoke: no job id in submit response" >&2
    exit 1
fi

STATE=
i=0
while [ $i -lt 300 ]; do
    STATE=$(curl -sS "http://$ADDR/v1/jobs/$ID" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    case "$STATE" in
    done | failed | deadline_exceeded) break ;;
    esac
    sleep 0.1
    i=$((i + 1))
done
if [ "$STATE" != done ]; then
    echo "serve_smoke: job ended in state '$STATE'" >&2
    cat "$OUT/emserve.log" >&2
    exit 1
fi

curl -sS "http://$ADDR/v1/jobs/$ID/result" >"$OUT/manifest.json"
grep -q '"content_hash"' "$OUT/manifest.json"
grep -q '"material_hash"' "$OUT/manifest.json"
grep -q '"percentiles_years"' "$OUT/manifest.json"

# Stage timeline: the mc pipeline must report its full span set.
curl -sS "http://$ADDR/v1/jobs/$ID/timeline" >"$OUT/timeline.json"
for STAGE in admit queue-wait resolve compile factorize mc manifest; do
    grep -q "\"stage\": *\"$STAGE\"" "$OUT/timeline.json" || {
        echo "serve_smoke: timeline missing stage '$STAGE'" >&2
        cat "$OUT/timeline.json" >&2
        exit 1
    }
done

# Prometheus exposition: scrape and grep-lint it (no promtool in CI).
# Every non-comment line must be "name{labels} value"; counters, stage
# histograms and the ring gauges must be present; no non-finite values.
curl -sS "http://$ADDR/metrics" >"$OUT/metrics.prom"
grep -q '^emvia_serve_jobs_submitted_total 1$' "$OUT/metrics.prom"
grep -q '^emvia_serve_stage_seconds_bucket{stage="mc",le="+Inf"} 1$' "$OUT/metrics.prom"
grep -q '^emvia_trace_ring_capacity ' "$OUT/metrics.prom"
grep -q '^emvia_pdn_cascade_steps_total ' "$OUT/metrics.prom"
grep -q '^emvia_pdn_cascade_fallbacks_total{reason="rank"} ' "$OUT/metrics.prom"
grep -q '^# TYPE emvia_serve_stage_seconds histogram$' "$OUT/metrics.prom"
if grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*)$' "$OUT/metrics.prom"; then
    echo "serve_smoke: malformed exposition line(s) above" >&2
    exit 1
fi
if grep -E ' (NaN|[+-]?Inf)$' "$OUT/metrics.prom"; then
    echo "serve_smoke: non-finite value leaked into /metrics" >&2
    exit 1
fi

# Graceful drain: SIGTERM, then the process must exit 0 on its own.
kill -TERM "$PID"
wait "$PID"
trap - EXIT

# Run ledger: the drained server must have recorded the job, and
# `emtrace ledger` must render a report over it.
LEDGER="$OUT/results/ledger.jsonl"
if [ ! -s "$LEDGER" ]; then
    echo "serve_smoke: run ledger missing or empty at $LEDGER" >&2
    exit 1
fi
grep -q '"schema":2' "$LEDGER"
grep -q '"outcome":"done"' "$LEDGER"
go build -o "$OUT/emtrace" ./cmd/emtrace
"$OUT/emtrace" ledger "$LEDGER" >"$OUT/ledger-report.txt"
grep -q 'run ledger: 1 records' "$OUT/ledger-report.txt"
grep -q 'stage breakdown' "$OUT/ledger-report.txt"

echo "serve_smoke: OK ($(wc -c <"$OUT/manifest.json") byte manifest in $OUT/manifest.json)"

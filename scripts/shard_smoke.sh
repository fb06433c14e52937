#!/bin/sh
# shard_smoke.sh — end-to-end smoke test of distributed trial sharding.
#
# Builds cmd/emserve with the race detector, boots two worker processes and
# a coordinator (all on ephemeral ports), runs one job single-process on a
# worker and the same job sharded 4 ways across both workers through the
# coordinator, and asserts the two result manifests are byte-identical —
# the bit-identity contract of the partial-manifest merge. Also checks that
# the coordinator stored exactly the four partials its dispatches returned,
# that its ledger records the shard columns and that `emtrace ledger`
# renders the sharding summary, then SIGTERM-drains all three processes
# (each must exit 0 on its own — the graceful-drain contract).
#
# Usage: sh scripts/shard_smoke.sh [artifact-dir]
set -eu

OUT=${1:-shard-smoke-artifacts}
mkdir -p "$OUT"

go build -race -o "$OUT/emserve" ./cmd/emserve

# boot <name> <extra flags...>: starts an emserve on an ephemeral port,
# waits for its bound address and echoes it.
boot() {
    NAME=$1
    shift
    "$OUT/emserve" -addr 127.0.0.1:0 "$@" >"$OUT/$NAME.log" 2>&1 &
    eval "${NAME}_PID=$!"
    ADDR=
    i=0
    while [ $i -lt 100 ]; do
        ADDR=$(sed -n 's|.*listening on http://||p' "$OUT/$NAME.log" | head -n 1)
        [ -n "$ADDR" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$ADDR" ]; then
        echo "shard_smoke: $NAME did not start" >&2
        cat "$OUT/$NAME.log" >&2
        exit 1
    fi
    eval "${NAME}_ADDR=$ADDR"
}

boot w1 -job-workers 2
boot w2 -job-workers 2
# shellcheck disable=SC2154 # set via eval in boot
boot coord -shards 4 -workers "$w1_ADDR,$w2_ADDR" -resultdir "$OUT/results"
trap 'kill "$w1_PID" "$w2_PID" "$coord_PID" 2>/dev/null || true' EXIT

SPEC='{"engine":"mc","criterion":"wl","grid":{"name":"PG1","nx":8,"ny":8,"pad_period":3,"calibrate_ir":0.05},"trials":16,"seed":11}'

# submit_and_fetch <addr> <outfile>: one job through one server, manifest
# out, job id left in $JOB_ID.
submit_and_fetch() {
    ADDR=$1
    MANIFEST=$2
    RESP=$(curl -sS -X POST --data "$SPEC" "http://$ADDR/v1/jobs")
    ID=$(printf '%s' "$RESP" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    JOB_ID=$ID
    if [ -z "$ID" ]; then
        echo "shard_smoke: no job id in submit response: $RESP" >&2
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
        echo "shard_smoke: job on $ADDR ended in state '$STATE'" >&2
        cat "$OUT"/*.log >&2
        exit 1
    fi
    curl -sS "http://$ADDR/v1/jobs/$ID/result" >"$MANIFEST"
}

# The byte-identity contract: single-process on a worker vs sharded 4 ways
# across both workers through the coordinator.
submit_and_fetch "$w1_ADDR" "$OUT/manifest-single.json"
submit_and_fetch "$coord_ADDR" "$OUT/manifest-sharded.json"
if ! cmp -s "$OUT/manifest-single.json" "$OUT/manifest-sharded.json"; then
    echo "shard_smoke: sharded manifest differs from single-process manifest" >&2
    diff "$OUT/manifest-single.json" "$OUT/manifest-sharded.json" >&2 || true
    exit 1
fi
grep -q '"percentiles_years"' "$OUT/manifest-sharded.json"

# The coordinator's shard telemetry must show remote dispatches.
curl -sS "http://$coord_ADDR/metrics" >"$OUT/metrics.prom"
grep -q '^emvia_serve_shard_dispatched_total 4$' "$OUT/metrics.prom"
grep -q '^emvia_serve_shard_remote_runs_total 4$' "$OUT/metrics.prom"

# Partials reach the coordinator only as dispatch responses: its result dir
# holds exactly the four partials it stored from them.
NPART=$(find "$OUT/results" -name '*.part-*.json' | wc -l | tr -d ' ')
if [ "$NPART" != 4 ]; then
    echo "shard_smoke: coordinator stored $NPART partials, want 4" >&2
    ls "$OUT/results" >&2
    exit 1
fi

# The shard timeline stages must be present on the coordinator's job.
curl -sS "http://$coord_ADDR/v1/jobs/$JOB_ID/timeline" >"$OUT/timeline.json"
for STAGE in dispatch shard-wait merge; do
    grep -q "\"stage\": *\"$STAGE\"" "$OUT/timeline.json" || {
        echo "shard_smoke: coordinator timeline missing stage '$STAGE'" >&2
        cat "$OUT/timeline.json" >&2
        exit 1
    }
done

# Graceful drain, coordinator first, then the workers.
kill -TERM "$coord_PID" && wait "$coord_PID"
kill -TERM "$w1_PID" && wait "$w1_PID"
kill -TERM "$w2_PID" && wait "$w2_PID"
trap - EXIT

# The coordinator's ledger must be schema 2 and carry the shard columns and
# the merge stage, and emtrace must render the sharding summary from them.
LEDGER="$OUT/results/ledger.jsonl"
if [ ! -s "$LEDGER" ]; then
    echo "shard_smoke: coordinator ledger missing or empty at $LEDGER" >&2
    exit 1
fi
grep -q '"schema":2' "$LEDGER"
grep -q '"shards":4' "$LEDGER"
grep -q '"stage_seconds":{[^}]*"merge":' "$LEDGER"
go build -o "$OUT/emtrace" ./cmd/emtrace
"$OUT/emtrace" ledger "$LEDGER" >"$OUT/ledger-report.txt"
grep -q 'sharding: 1 jobs sharded, 4 shards/job' "$OUT/ledger-report.txt"

echo "shard_smoke: OK (merged manifest byte-identical to single-process, $(wc -c <"$OUT/manifest-sharded.json") bytes)"

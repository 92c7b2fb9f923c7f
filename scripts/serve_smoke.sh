#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the simulation server: start
# whitefi-sim -serve (race detector on), submit a dense-city scenario
# over HTTP, stream its snapshot JSONL, checkpoint it twice once it is
# done, then pause a second run mid-flight, download its checkpoint,
# fork it with a what-if edit, resume it — and require the resumed run
# and the runs restored from both checkpoints to finish byte-identical
# (jq-diffed result, diffed stream) to an uninterrupted batch run of
# the same spec.
#
# Usage: scripts/serve_smoke.sh [addr]   (default 127.0.0.1:18090)
set -euo pipefail

cd "$(dirname "$0")/.."

addr=${1:-127.0.0.1:18090}
base="http://$addr"

command -v jq >/dev/null || { echo "serve-smoke: jq required"; exit 1; }
command -v curl >/dev/null || { echo "serve-smoke: curl required"; exit 1; }

work=$(mktemp -d -t serve-smoke.XXXXXX)
bin="$work/whitefi-sim"
go build -race -o "$bin" ./cmd/whitefi-sim

"$bin" -serve "$addr" -serve-workers 3 2>"$work/serve.log" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$work"' EXIT

# Wait for the API to answer.
up=""
for _ in $(seq 1 120); do
    if curl -sf "$base/api/kinds" >"$work/kinds.json" 2>/dev/null; then
        up=yes
        break
    fi
    sleep 0.5
done
[ -n "$up" ] || { echo "serve-smoke: API never answered"; cat "$work/serve.log"; exit 1; }
jq -e '.kinds | index("densecity")' "$work/kinds.json" >/dev/null \
    || { echo "serve-smoke: densecity kind missing:"; cat "$work/kinds.json"; exit 1; }

spec='{"aps":4,"seed":7,"measure_ms":8000,"telemetry_ms":1000}'

# Reference: the same spec run uninterrupted in batch mode.
"$bin" -scenario densecity -scenario-config "$spec" >"$work/ref.json" 2>/dev/null

# wait_done ID FILE — poll a run until done, saving its status JSON.
wait_done() {
    local id=$1 out=$2 state
    for _ in $(seq 1 600); do
        curl -sf "$base/api/runs/$id" >"$out"
        state=$(jq -r .state "$out")
        case "$state" in
            done) return 0 ;;
            failed) echo "serve-smoke: run $id failed:"; cat "$out"; exit 1 ;;
        esac
        sleep 0.5
    done
    echo "serve-smoke: run $id never finished"; cat "$out"; exit 1
}

# Run 1: submit and stream to completion; the streamed JSONL must be
# well formed and the result must match the batch reference.
r1=$(curl -sf -X POST "$base/api/runs" -d "{\"kind\":\"densecity\",\"spec\":$spec}" | jq -r .id)
curl -sf "$base/api/runs/$r1/stream" >"$work/r1.stream"
wait_done "$r1" "$work/r1.json"
jq -e '.event == "snapshot"' <(head -1 "$work/r1.stream") >/dev/null \
    || { echo "serve-smoke: stream is not snapshot JSONL:"; head -1 "$work/r1.stream"; exit 1; }
diff <(jq -S .result "$work/r1.json") <(jq -S . "$work/ref.json") \
    || { echo "serve-smoke: served result diverged from batch run"; exit 1; }

# A finished run keeps its end checkpoint: two downloads must be
# identical, and a run restored from one must finish with the batch
# result.
curl -sf -X POST "$base/api/runs/$r1/checkpoint" >"$work/r1.ckpt"
curl -sf -X POST "$base/api/runs/$r1/checkpoint" >"$work/r1-again.ckpt"
cmp -s "$work/r1.ckpt" "$work/r1-again.ckpt" \
    || { echo "serve-smoke: two checkpoints of finished run $r1 differ"; exit 1; }
r1r=$(curl -sf -X POST "$base/api/restore" --data-binary @"$work/r1.ckpt" | jq -r .id)
wait_done "$r1r" "$work/r1r.json"
diff <(jq -S .result "$work/r1r.json") <(jq -S . "$work/ref.json") \
    || { echo "serve-smoke: run restored from finished run $r1 diverged from batch run"; exit 1; }

# Run 2: pause mid-flight, checkpoint, fork with an edit, resume.
r2=$(curl -sf -X POST "$base/api/runs" -d "{\"kind\":\"densecity\",\"spec\":$spec}" | jq -r .id)
for _ in $(seq 1 600); do
    at=$(curl -sf "$base/api/runs/$r2" | jq -r .at_ns)
    [ "$at" -gt 0 ] 2>/dev/null && break
    sleep 0.1
done
curl -sf -X POST "$base/api/runs/$r2/pause" >/dev/null
state=$(curl -sf "$base/api/runs/$r2" | jq -r .state)
[ "$state" = paused ] || { echo "serve-smoke: run $r2 is $state, not paused"; exit 1; }

curl -sf -X POST "$base/api/runs/$r2/checkpoint" >"$work/r2.ckpt"
jq -e -s '.[0].whitefi_checkpoint == 1' "$work/r2.ckpt" >/dev/null \
    || { echo "serve-smoke: checkpoint header malformed:"; head -1 "$work/r2.ckpt"; exit 1; }

# Restore the checkpoint as a new run: it replays run 2's history and
# must finish exactly like the uninterrupted reference.
r3=$(curl -sf -X POST "$base/api/restore" --data-binary @"$work/r2.ckpt" | jq -r .id)

# Fork run 2 with a what-if edit: two extra BSSs appear at the fork
# point, so the result must diverge from the reference.
r4=$(curl -sf -X POST "$base/api/runs/$r2/fork" \
    -d '{"edits":[{"op":"add-aps","n":2,"seed":11}]}' | jq -r .id)

curl -sf -X POST "$base/api/runs/$r2/resume" >/dev/null
curl -sf "$base/api/runs/$r2/stream" >"$work/r2.stream"
wait_done "$r2" "$work/r2.json"
wait_done "$r3" "$work/r3.json"
wait_done "$r4" "$work/r4.json"

diff <(jq -S .result "$work/r2.json") <(jq -S . "$work/ref.json") \
    || { echo "serve-smoke: resumed run diverged from uninterrupted batch run"; exit 1; }
diff <(jq -S .result "$work/r3.json") <(jq -S . "$work/ref.json") \
    || { echo "serve-smoke: restored run diverged from uninterrupted batch run"; exit 1; }
diff "$work/r2.stream" "$work/r1.stream" \
    || { echo "serve-smoke: resumed run's snapshot stream diverged"; exit 1; }
if diff <(jq -S .result "$work/r4.json") <(jq -S . "$work/ref.json") >/dev/null; then
    echo "serve-smoke: forked run identical to reference — the edit changed nothing"
    exit 1
fi

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
trap 'rm -rf "$work"' EXIT

echo "serve-smoke: PASS (5 runs; resume + both restores byte-identical to batch, fork diverged; $(wc -l <"$work/r1.stream") stream lines)"

#!/usr/bin/env bash
# serve_resume.sh — durable-checkpoint resume gate for cmd/t3dserve.
#
# Builds the service, the client, and the em3d batch harness, then
# proves the checkpoint layer's serving invariants on real binaries:
#
#   1. A checkpointed job's server SIGKILLed mid-job must, on restart
#      over the same journal and checkpoint dir, RESUME the job from a
#      durable checkpoint (progress reports resumed:true) rather than
#      replay it from scratch.
#   2. The resumed job must finish with the digest `em3d -digest`
#      computes for the same parameters — resuming never changes the
#      answer.
#   3. A watching t3dclient must ride the kill out (retry/reconnect)
#      and report "resumed from epoch N" to the operator.
#   4. /statusz must surface checkpoint writes while the job runs and
#      the resumed job after restart.
#
# Exits nonzero on any divergence. No arguments; runs from the repo
# root in a throwaway temp dir.
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${SERVE_RESUME_PORT:-18084}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
SRV_PID=""
CLI_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
  [ -n "$CLI_PID" ] && kill -9 "$CLI_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

say()  { printf 'serve-resume: %s\n' "$*"; }
fail() { say "FAIL: $*"; exit 1; }

wait_ready() {
  for _ in $(seq 1 100); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz" || true)" = 200 ]; then
      return 0
    fi
    sleep 0.1
  done
  fail "server never became ready on $BASE"
}

start_server() {
  "$TMP/t3dserve" -addr "127.0.0.1:$PORT" -journal "$TMP/resume.journal" \
    -checkpoint-dir "$TMP/ck" -checkpoint-retain 3 -workers 1 \
    >>"$TMP/server.log" 2>&1 &
  SRV_PID=$!
  wait_ready
}

say "building t3dserve, t3dclient, and em3d"
go build -o "$TMP/t3dserve" ./cmd/t3dserve
go build -o "$TMP/t3dclient" ./cmd/t3dclient
go build -o "$TMP/em3d" ./cmd/em3d

# The workload: long enough to survive a first checkpoint plus a kill,
# with a cadence at the floor so a checkpoint lands at nearly every
# epoch barrier. Page-sparse checkpoints cost milliseconds, so the
# simulation itself must run for seconds (about 4 s on a 2-vCPU VM)
# for the kill to land mid-job.
PES=4 NODES=960 DEGREE=8 ITERS=64 SEED=11
JOB_JSON=$(printf '{"app":"em3d","pes":%d,"nodes_per_pe":%d,"degree":%d,"iters":%d,"seed":%d,"checkpoint_cycles":4096}' \
  "$PES" "$NODES" "$DEGREE" "$ITERS" "$SEED")

say "computing batch reference digest"
WANT=$("$TMP/em3d" -digest -version Bulk -pes "$PES" -nodes "$NODES" \
  -degree "$DEGREE" -iters "$ITERS" -seed "$SEED" -remote 0)
say "batch digest: $WANT"

start_server
say "server up; submitting checkpointed job via a watching t3dclient"
"$TMP/t3dclient" -server "$BASE" -spec "$JOB_JSON" -expect "$WANT" \
  -attempts 30 -backoff 100ms \
  >"$TMP/client.out" 2>"$TMP/client.err" &
CLI_PID=$!

# Wait for the first durable checkpoint: a published .ckpt file on disk
# and /statusz owning up to the write.
CKPT_SEEN=""
for _ in $(seq 1 300); do
  if ls "$TMP/ck"/*.ckpt >/dev/null 2>&1 &&
     curl -s "$BASE/statusz" | tr -d ' \n\t' | grep -q '"writes":[1-9]'; then
    CKPT_SEEN=1
    break
  fi
  if ! kill -0 "$CLI_PID" 2>/dev/null; then
    cat "$TMP/client.err" >&2
    fail "client exited before the first checkpoint landed"
  fi
  sleep 0.1
done
[ -n "$CKPT_SEEN" ] || fail "no checkpoint published within 30s (dir: $(ls "$TMP/ck" 2>/dev/null || true))"
say "first checkpoint durable; SIGKILLing server"

kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
start_server
say "restarted on the same journal and checkpoint dir"

# The recovered job must show up resumed on /statusz.
RESUMED=""
for _ in $(seq 1 300); do
  ST=$(curl -s "$BASE/statusz" | tr -d ' \n\t')
  case "$ST" in
    *'"resumed":[{'*) RESUMED=1; break ;;
  esac
  # If it already finished, the client's own resumed assertions below
  # still hold; stop polling once the watcher exits.
  kill -0 "$CLI_PID" 2>/dev/null || break
  sleep 0.1
done

if ! wait "$CLI_PID"; then
  CLI_RC=$?
  cat "$TMP/client.err" >&2
  fail "t3dclient exited $CLI_RC (digest mismatch is 3, transport 2)"
fi
CLI_PID=""

grep -q '"resumed": true' "$TMP/client.out" ||
  fail "final job status never reported resumed:true — the restart replayed from scratch: $(cat "$TMP/client.out")"
grep -q 'resumed from epoch' "$TMP/client.err" ||
  fail "t3dclient never reported 'resumed from epoch': $(tail -5 "$TMP/client.err")"
[ -n "$RESUMED" ] || say "warning: /statusz resumed block not observed (job finished fast); client evidence stands"
say "job resumed from a checkpoint and finished with the batch digest"

EPOCH_LINE=$(grep 'resumed from epoch' "$TMP/client.err" | head -1)
say "client saw: ${EPOCH_LINE#t3dclient: }"

kill "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
say "PASS"

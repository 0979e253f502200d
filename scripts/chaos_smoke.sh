#!/usr/bin/env bash
# Chaos test of the durable serving layer, run by CTest (chaos_smoke) and
# by both sanitizer tiers of scripts/check.sh.
#
# The scenario: an absq_serve process with 2 solver slots takes on 2
# running jobs, 4 queued jobs and 1 queued job with a short TTL — then is
# SIGKILLed mid-flight, exactly the crash the write-ahead job journal
# exists for. A second incarnation restarts with --recover and must
# account for every single job:
#
#   * zero jobs lost (the recovery census and absq_jobs_lost_total agree);
#   * the 6 plain jobs all run to completion (resumed from their
#     checkpoints or requeued from their journaled recipes);
#   * the TTL job expired during the downtime — deterministically, into
#     the terminal "deadline" state, because its deadline is anchored to
#     the submission wall clock, not to process lifetime;
#   * resubmitting an in-flight idempotency key returns the ORIGINAL job
#     id, deduplicated, across the crash.
set -euo pipefail

BIN="${1:?usage: chaos_smoke.sh <build-dir>}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "chaos_smoke: FAIL — $1" >&2; exit 1; }

SERVE="$BIN/tools/absq_serve"
CLIENT="$BIN/tools/absq_client"
mkdir "$WORK/ck"

"$BIN/tools/absq_gen" random --bits 40 --seed 11 --out "$WORK/i.qubo"

# Starts a server writing to $1 (log file); extra flags pass through.
# Sets SERVER_PID and PORT.
start_server() {
  local log="$1"; shift
  : > "$log"  # the background redirect may open it after the first poll
  "$SERVE" --port 0 --solvers 2 --max-queue 16 \
    --checkpoint-dir "$WORK/ck" --checkpoint-interval 0.2 \
    --log-level info "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 200); do
    PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
    [[ -n "$PORT" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died at startup ($log)"
    sleep 0.1
  done
  [[ -n "$PORT" ]] || fail "server never printed its port ($log)"
}

submit() {  # submit <name> [extra flags...] -> prints the job id
  local name="$1"; shift
  "$CLIENT" submit "$WORK/i.qubo" --port "$PORT" --seconds 6 \
    --name "$name" --idempotency-key "$name" "$@" > "$WORK/$name.out"
  sed -n 's/^submitted job \([0-9]*\)$/\1/p' "$WORK/$name.out"
}

running_count() {
  "$CLIENT" list --port "$PORT" | sed -n 's/.* \([0-9]*\) running$/\1/p'
}

# --- phase 1: load the server, then kill it mid-flight -----------------------
start_server "$WORK/serve1.log"

RUNNER1="$(submit runner-1)"
RUNNER2="$(submit runner-2)"
[[ -n "$RUNNER1" && -n "$RUNNER2" ]] || fail "could not parse runner ids"
for _ in $(seq 1 100); do
  [[ "$(running_count)" == "2" ]] && break
  sleep 0.1
done
[[ "$(running_count)" == "2" ]] || fail "runners never occupied both slots"

PLAIN_IDS=("$RUNNER1" "$RUNNER2")
for i in 1 2 3 4; do
  id="$(submit "filler-$i")"
  [[ -n "$id" ]] || fail "could not parse filler-$i id"
  PLAIN_IDS+=("$id")
done

# Give the running jobs a checkpoint cycle or two to land on disk, so the
# recovery has real RunCheckpoints to resume from.
sleep 0.6

# The TTL job goes in last, right before the kill: a 2 s deadline that
# will expire during the ~2.5 s of downtime below.
DOOMED="$(submit doomed --deadline 2)"
[[ -n "$DOOMED" ]] || fail "could not parse the doomed job id"

[[ "$(running_count)" == "2" ]] || fail "expected 2 jobs running at kill time"
"$CLIENT" list --port "$PORT" | grep -q "5 queued" \
  || fail "expected 5 jobs queued at kill time"

kill -9 "$SERVER_PID"
set +e
wait "$SERVER_PID" 2>/dev/null
set -e
SERVER_PID=""

# Downtime long enough for the doomed job's wall-clock TTL to pass.
sleep 2.5

# --- phase 2: restart with --recover, account for every job ------------------
start_server "$WORK/serve2.log" --recover

RECOVERY="$(sed -n 's/^recovery: //p' "$WORK/serve2.log")"
[[ -n "$RECOVERY" ]] || fail "recovering server printed no recovery census"
read -r RESUMED REQUEUED EXPIRED LOST TERMINAL <<< "$(echo "$RECOVERY" \
  | sed 's/[a-z]*=//g')"
echo "chaos_smoke: $RECOVERY"
[[ "$LOST" == "0" ]] || fail "recovery lost $LOST job(s): $RECOVERY"
[[ "$EXPIRED" == "1" ]] \
  || fail "the doomed job's TTL did not expire across the crash: $RECOVERY"
[[ "$((RESUMED + REQUEUED))" == "6" ]] \
  || fail "expected 6 jobs brought back as live work: $RECOVERY"

# Idempotent resubmission across the crash: the same key answers with the
# ORIGINAL job id, deduplicated — no duplicate work was admitted.
"$CLIENT" submit "$WORK/i.qubo" --port "$PORT" --seconds 6 \
  --name runner-1 --idempotency-key runner-1 > "$WORK/dedup.out"
grep -q "submitted job $RUNNER1 (deduplicated)" "$WORK/dedup.out" \
  || fail "resubmitted key did not deduplicate to job $RUNNER1 ($(cat "$WORK/dedup.out"))"

# Every plain job must finish — completed, never lost.
for id in "${PLAIN_IDS[@]}"; do
  "$CLIENT" wait "$id" --port "$PORT" --timeout 120 > "$WORK/wait$id.out" \
    || fail "recovered job $id did not complete ($(cat "$WORK/wait$id.out"))"
  grep -q "job $id .*: done" "$WORK/wait$id.out" \
    || fail "recovered job $id is not done ($(cat "$WORK/wait$id.out"))"
done

# The doomed job is terminal with the typed deadline state — a
# deterministic failure, not a lost job.
"$CLIENT" status "$DOOMED" --port "$PORT" > "$WORK/doomed.out"
grep -q "job $DOOMED (doomed): deadline" "$WORK/doomed.out" \
  || fail "doomed job is not deadline-exceeded ($(cat "$WORK/doomed.out"))"

# The metrics agree with the census: everything recovered, nothing lost.
"$CLIENT" metrics --port "$PORT" > "$WORK/metrics.prom"
grep -q "^absq_jobs_recovered_total 6$" "$WORK/metrics.prom" \
  || fail "absq_jobs_recovered_total != 6"
grep -q "^absq_jobs_lost_total 0$" "$WORK/metrics.prom" \
  || fail "absq_jobs_lost_total != 0"

# Graceful exit: the drain must still work after a recovery.
"$CLIENT" shutdown --port "$PORT" > /dev/null
DRAIN_OK=""
for _ in $(seq 1 200); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
  sleep 0.1
done
[[ -n "$DRAIN_OK" ]] || fail "recovered server did not exit after shutdown"
set +e
wait "$SERVER_PID"
code=$?
set -e
SERVER_PID=""
[[ "$code" == "0" ]] || fail "recovered server exited $code, expected 0"

echo "chaos_smoke: OK"

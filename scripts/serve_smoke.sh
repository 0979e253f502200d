#!/usr/bin/env bash
# End-to-end smoke test of the serving layer, run by CTest (serve_smoke).
#
# One absq_serve process must: accept 8 concurrent absq_client submissions
# and complete them all with energies matching an equivalent absq_solve run
# (same seed + stop criteria), honor a mid-run cancel, serve live
# /metrics + /status + /healthz scrapes over its --http-port while a job
# runs, reject a submission beyond --max-queue with the typed queue_full
# backpressure error, and drain gracefully (exit 0, telemetry files
# written, parseable JSONL logs) on SIGTERM.
set -euo pipefail

BIN="${1:?usage: serve_smoke.sh <build-dir>}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL — $1" >&2; exit 1; }

SERVE="$BIN/tools/absq_serve"
CLIENT="$BIN/tools/absq_client"
mkdir "$WORK/ck"

# --- CLI conventions (shared across every tool) ------------------------------
for tool in absq_serve absq_client absq_solve absq_gen absq_info; do
  "$BIN/tools/$tool" --help > /dev/null || fail "$tool --help exited nonzero"
  "$BIN/tools/$tool" --version | grep -q "absqubo 1" \
    || fail "$tool --version printed nothing useful"
  set +e
  "$BIN/tools/$tool" --definitely-bogus-flag > /dev/null 2> "$WORK/usage.err"
  code=$?
  set -e
  [[ "$code" == "2" ]] || fail "$tool unknown flag exited $code, expected 2"
  grep -q "Flags:" "$WORK/usage.err" \
    || fail "$tool unknown flag printed no usage on stderr"
done

# --- reference solve ---------------------------------------------------------
# The solver is timing-nondeterministic, so "same result" is defined through
# a target: a plain absq_solve finds the reference energy for this seed, and
# every server job must reach that same target (reached_target in replies).
"$BIN/tools/absq_gen" random --bits 40 --seed 11 --out "$WORK/i.qubo"
"$BIN/tools/absq_solve" "$WORK/i.qubo" --seconds 2 --seed 7 \
  > "$WORK/reference.out"
TARGET="$(sed -n 's/^best energy:  \(-\?[0-9]*\).*/\1/p' "$WORK/reference.out")"
[[ -n "$TARGET" ]] || fail "could not parse the reference energy"

# --- start the server --------------------------------------------------------
: > "$WORK/serve.log"  # the background redirect may open it after the poll
"$SERVE" --port 0 --solvers 2 --max-queue 8 --checkpoint-dir "$WORK/ck" \
  --metrics "$WORK/serve.prom" --report "$WORK/serve.jsonl" \
  --http-port 0 --log-level info --log-file "$WORK/serve.ndjson" \
  > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
          "$WORK/serve.log")"
  [[ -n "$PORT" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died at startup"
  sleep 0.1
done
[[ -n "$PORT" ]] || fail "server never printed its port"
HTTP_PORT="$(sed -n 's/^http on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
             "$WORK/serve.log")"
[[ -n "$HTTP_PORT" ]] || fail "server never printed its http port"

# GET an observability endpoint (curl when present, bash /dev/tcp
# otherwise, so the test has no dependency beyond bash).
http_get() {
  if command -v curl > /dev/null 2>&1; then
    curl -sf --max-time 10 "http://127.0.0.1:$HTTP_PORT$1"
  else
    exec 3<> "/dev/tcp/127.0.0.1/$HTTP_PORT"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
    sed '1,/^\r\{0,1\}$/d' <&3
    exec 3<&- 3>&-
  fi
}

"$CLIENT" ping --port "$PORT" | grep -q pong || fail "server does not ping"

# --- 8 concurrent submissions, all must reach the reference energy -----------
for i in $(seq 1 8); do
  "$CLIENT" submit "$WORK/i.qubo" --port "$PORT" --target "$TARGET" \
    --seconds 30 --seed "$i" --name "bulk-$i" --wait --timeout 120 \
    > "$WORK/job$i.out" 2>&1 &
  eval "CPID$i=$!"
done
for i in $(seq 1 8); do
  eval "pid=\$CPID$i"
  wait "$pid" || fail "concurrent submission $i failed ($(cat "$WORK/job$i.out"))"
  grep -q "target reached" "$WORK/job$i.out" \
    || fail "job $i did not reach the reference energy $TARGET"
done

# --- mid-run cancel ----------------------------------------------------------
"$CLIENT" submit "$WORK/i.qubo" --port "$PORT" --seconds 60 --name victim \
  > "$WORK/victim.out"
VICTIM_ID="$(sed -n 's/^submitted job \([0-9]*\)$/\1/p' "$WORK/victim.out")"
[[ -n "$VICTIM_ID" ]] || fail "could not parse the victim job id"
sleep 0.5

# --- live observability scrape (victim job is running right now) -------------
http_get /healthz | grep -q "ok" || fail "/healthz did not answer ok"
http_get /status > "$WORK/status.json"
grep -q '"state":"running"' "$WORK/status.json" \
  || fail "/status shows no running job while the victim solves"
grep -q "\"id\":$VICTIM_ID" "$WORK/status.json" \
  || fail "/status does not list the victim job"
grep -q '"incumbent_energy"' "$WORK/status.json" \
  || fail "/status lacks the incumbent energy of the running job"
http_get /metrics > "$WORK/live.prom"
grep -q "^absq_jobs_submitted " "$WORK/live.prom" \
  || fail "/metrics lacks the manager series"
grep -q "job=\"$VICTIM_ID\"" "$WORK/live.prom" \
  || fail "/metrics lacks per-job labelled solver series"
grep -q "^absq_http_requests_total " "$WORK/live.prom" \
  || fail "/metrics lacks the exporter self-series"

"$CLIENT" cancel "$VICTIM_ID" --port "$PORT" | grep -q "cancel requested" \
  || fail "cancel was not accepted"
set +e
"$CLIENT" wait "$VICTIM_ID" --port "$PORT" --timeout 30 > "$WORK/victim2.out"
code=$?
set -e
[[ "$code" == "130" ]] || fail "cancelled job exited $code, expected 130"
grep -q "cancelled" "$WORK/victim2.out" || fail "victim is not cancelled"

# --- backpressure beyond --max-queue ----------------------------------------
# Two long blockers occupy both slots; 8 more fill the queue to its bound;
# the 9th must be rejected with the typed queue_full error.
BLOCK_IDS=()
for i in 1 2; do
  "$CLIENT" submit "$WORK/i.qubo" --port "$PORT" --seconds 60 \
    --name "blocker-$i" > "$WORK/block$i.out"
  BLOCK_IDS+=("$(sed -n 's/^submitted job \([0-9]*\)$/\1/p' "$WORK/block$i.out")")
done
for _ in $(seq 1 100); do
  RUNNING="$("$CLIENT" list --port "$PORT" | sed -n 's/.* \([0-9]*\) running$/\1/p')"
  [[ "$RUNNING" == "2" ]] && break
  sleep 0.1
done
[[ "$RUNNING" == "2" ]] || fail "blockers never occupied both slots"
QUEUED_IDS=()
for i in $(seq 1 8); do
  "$CLIENT" submit "$WORK/i.qubo" --port "$PORT" --seconds 60 \
    --name "filler-$i" > "$WORK/fill$i.out"
  QUEUED_IDS+=("$(sed -n 's/^submitted job \([0-9]*\)$/\1/p' "$WORK/fill$i.out")")
done
set +e
"$CLIENT" submit "$WORK/i.qubo" --port "$PORT" --seconds 60 --name overflow \
  > /dev/null 2> "$WORK/overflow.err"
code=$?
set -e
[[ "$code" != "0" ]] || fail "submission beyond --max-queue was accepted"
grep -q "queue is full" "$WORK/overflow.err" \
  || fail "overflow rejection lacked the typed queue_full message"

# Clear the backlog so the graceful drain below is quick.
for id in "${QUEUED_IDS[@]}" "${BLOCK_IDS[@]}"; do
  "$CLIENT" cancel "$id" --port "$PORT" > /dev/null
done

# --- graceful drain on SIGTERM ----------------------------------------------
kill -TERM "$SERVER_PID"
DRAIN_OK=""
for _ in $(seq 1 200); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
  sleep 0.1
done
[[ -n "$DRAIN_OK" ]] || fail "server did not exit after SIGTERM"
set +e
wait "$SERVER_PID"
code=$?
set -e
SERVER_PID=""
[[ "$code" == "0" ]] || fail "server exited $code after SIGTERM, expected 0"
grep -q "clean shutdown" "$WORK/serve.log" \
  || fail "server log lacks the clean-shutdown line"

# Telemetry written at shutdown: 19 submissions, 1 typed rejection.
grep -q "absq_jobs_submitted 19" "$WORK/serve.prom" \
  || fail "metrics file lacks the submitted count"
grep -q "absq_jobs_rejected 1" "$WORK/serve.prom" \
  || fail "metrics file lacks the rejected count"
# The durability series exist and report a quiet life: this run never
# crashed, so nothing was recovered and — crucially — nothing was lost.
grep -q "absq_jobs_recovered_total 0" "$WORK/serve.prom" \
  || fail "metrics file lacks the recovered-jobs series"
grep -q "absq_jobs_lost_total 0" "$WORK/serve.prom" \
  || fail "metrics file lacks the lost-jobs series"
[[ "$(grep -c '"type":"job"' "$WORK/serve.jsonl")" == "19" ]] \
  || fail "report file does not list all 19 jobs"

# Per-job checkpoints were written for completed jobs.
ls "$WORK"/ck/job-*.ck > /dev/null 2>&1 || fail "no per-job checkpoints"

# Structured JSONL logs: admissions and job lifecycle were logged with the
# job id stamped on each line.
grep -q '"msg":"job admitted"' "$WORK/serve.ndjson" \
  || fail "structured log lacks job-admitted lines"
grep -q '"msg":"job started","job":' "$WORK/serve.ndjson" \
  || fail "structured log lacks job-stamped lifecycle lines"
grep -q '"msg":"job cancelled"' "$WORK/serve.ndjson" \
  || fail "structured log lacks the cancel line"

echo "serve_smoke: OK"

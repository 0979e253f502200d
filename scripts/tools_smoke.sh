#!/usr/bin/env bash
# End-to-end smoke test of the CLI tools, run by CTest (tools_smoke).
# Exercises: generate → inspect → solve → save solution → verify, across
# all four instance formats, plus failure-path exit codes.
set -euo pipefail

BIN="${1:?usage: tools_smoke.sh <build-dir>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "tools_smoke: FAIL — $1" >&2; exit 1; }

# --- native qubo format ----------------------------------------------------
"$BIN/tools/absq_gen" random --bits 96 --seed 5 --out "$WORK/r.qubo"
"$BIN/tools/absq_info" "$WORK/r.qubo" | grep -q "bits:          96" \
  || fail "absq_info did not report the instance size"
"$BIN/tools/absq_solve" "$WORK/r.qubo" --seconds 0.5 --out "$WORK/r.sol" \
  | grep -q "best energy" || fail "absq_solve (qubo) produced no result"
"$BIN/tools/absq_info" "$WORK/r.qubo" --verify "$WORK/r.sol" \
  | grep -q "VERIFIED" || fail "solution verification failed"

# Tampered solution must be detected (exit 2).
sed 's/^solution \(.*\) -\?[0-9]*$/solution \1 123456/' "$WORK/r.sol" \
  > "$WORK/bad.sol"
if "$BIN/tools/absq_info" "$WORK/r.qubo" --verify "$WORK/bad.sol" \
    > /dev/null 2>&1; then
  fail "tampered solution passed verification"
fi

# --- gset / Max-Cut ---------------------------------------------------------
"$BIN/tools/absq_gen" maxcut --vertices 60 --edges 300 --weights pm1 \
  --seed 3 --out "$WORK/g.gset"
"$BIN/tools/absq_solve" "$WORK/g.gset" --format gset --seconds 0.5 \
  | grep -q "cut weight" || fail "absq_solve (gset) printed no cut"

# --- TSP --------------------------------------------------------------------
"$BIN/tools/absq_gen" tsp --cities 8 --seed 2 --out "$WORK/t.qubo"
"$BIN/tools/absq_solve" "$WORK/t.qubo" --seconds 0.5 \
  | grep -q "best energy" || fail "absq_solve (tsp qubo) failed"

# --- DIMACS / 3-SAT ----------------------------------------------------------
"$BIN/tools/absq_gen" sat --vars 12 --clauses 40 --seed 9 --out "$WORK/f.cnf"
"$BIN/tools/absq_solve" "$WORK/f.cnf" --format dimacs --seconds 0.5 \
  | grep -q "violated clauses" || fail "absq_solve (dimacs) printed no count"

# --- absq_lint ---------------------------------------------------------------
# Outputs are captured to files first — grep -q on a live pipe kills the
# tool with SIGPIPE, which pipefail then reports as a failure.
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Clean tree: exit 0 with the rule total in the summary.
"$BIN/tools/absq_lint" --root "$REPO_ROOT" > "$WORK/lint.txt"
grep -q "files clean (9 rules)" "$WORK/lint.txt" \
  || fail "absq_lint clean run did not print the 9-rule summary"
# SARIF output is a 2.1.0 document.
"$BIN/tools/absq_lint" --root "$REPO_ROOT" --format=sarif \
  > "$WORK/lint.sarif"
grep -q '"version":"2.1.0"' "$WORK/lint.sarif" \
  || fail "absq_lint --format=sarif did not emit a SARIF 2.1.0 document"
# Findings carry per-rule counts in the (stderr) summary; --fail-on=never
# keeps the exit at 0.
LINT_FIXTURE="$WORK/lint_fixture"
mkdir -p "$LINT_FIXTURE/src/qubo"
printf 'int* p = new int;\nint* q = new int;\n' \
  > "$LINT_FIXTURE/src/qubo/bad.cpp"
"$BIN/tools/absq_lint" --root "$LINT_FIXTURE" --fail-on=never src \
  > "$WORK/lint_fixture.txt" 2>&1
grep -q "ABSQ001:2" "$WORK/lint_fixture.txt" \
  || fail "absq_lint summary lacks per-rule counts"
if "$BIN/tools/absq_lint" --root "$LINT_FIXTURE" src > /dev/null 2>&1; then
  fail "absq_lint did not fail on findings with the default --fail-on=error"
fi
# Unknown flags and bad enum values are usage errors: exit 2.
set +e
"$BIN/tools/absq_lint" --bogus > /dev/null 2>&1
code=$?
set -e
[[ "$code" == "2" ]] || fail "absq_lint --bogus exited $code, expected 2"
set +e
"$BIN/tools/absq_lint" --root "$REPO_ROOT" --format=yaml > /dev/null 2>&1
code=$?
set -e
[[ "$code" == "2" ]] || fail "absq_lint --format=yaml exited $code, expected 2"
# The graph dump emits all three digraphs.
"$BIN/tools/absq_lint" --root "$REPO_ROOT" --graph-dump=dot \
  > "$WORK/lint.dot"
[[ "$(grep -c '^digraph' "$WORK/lint.dot")" == "3" ]] \
  || fail "absq_lint --graph-dump=dot did not emit 3 digraphs"

# --- failure paths -----------------------------------------------------------
if "$BIN/tools/absq_solve" /nonexistent.qubo --seconds 0.1 \
    > /dev/null 2>&1; then
  fail "missing file did not fail"
fi
if "$BIN/tools/absq_gen" bogus --out "$WORK/x" > /dev/null 2>&1; then
  fail "unknown family did not fail"
fi
# Unreachable target → exit 2.
set +e
"$BIN/tools/absq_solve" "$WORK/r.qubo" --seconds 0.2 \
  --target -99999999999999 > /dev/null 2>&1
code=$?
set -e
[[ "$code" == "2" ]] || fail "unreachable target exited $code, expected 2"

# Out-of-range counts are usage errors (exit 2) that name the flag, caught
# before absq_solve loads or solves anything and before absq_serve binds a
# port — a negative count must not wrap into a huge allocation. The error
# line starts with the flag, or with $USAGE_ERROR when that is set.
expect_usage_error() {  # <tool> <flag> <value> [args...]
  local tool="$1" flag="$2" value="$3"
  shift 3
  set +e
  "$BIN/tools/$tool" "$@" "$flag" "$value" > "$WORK/usage.out" \
    2> "$WORK/usage.err"
  local code=$?
  set -e
  [[ "$code" == "2" ]] \
    || fail "$tool $flag $value exited $code, expected 2"
  grep -q "^error: ${USAGE_ERROR:-$flag }" "$WORK/usage.err" \
    || fail "$tool $flag $value did not name the flag"
  if grep -q "listening\|best energy" "$WORK/usage.out"; then
    fail "$tool $flag $value started before rejecting the value"
  fi
}
for flag in --devices --blocks --pool --max-restarts --local-steps; do
  expect_usage_error absq_solve "$flag" -1 "$WORK/r.qubo" --seconds 0.1
done
expect_usage_error absq_solve --threads 0 "$WORK/r.qubo" --seconds 0.1
expect_usage_error absq_solve --threads -2 "$WORK/r.qubo" --seconds 0.1
# The retired 32-bit Δ opt-in is an unknown flag now (every kernel is int32).
USAGE_ERROR="unknown flag --delta32" \
  expect_usage_error absq_solve --delta32 true "$WORK/r.qubo" --seconds 0.1
for flag in --devices --blocks --threads --pool --max-restarts; do
  expect_usage_error absq_serve "$flag" -1 --port 0
done
expect_usage_error absq_serve --threads 0 --port 0

echo "tools_smoke: OK"

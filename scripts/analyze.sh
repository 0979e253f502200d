#!/usr/bin/env bash
# Tier 4 of the verification gate: machine-enforced static analysis.
# (Tiers 1–3 — ctest, TSan, ASan+UBSan — live in scripts/check.sh.)
#
#   scripts/analyze.sh [jobs]      (default: nproc)
#
# Five stages, all of which must pass from a clean checkout:
#
#   A. Werror build — the full tree under the strict warning set
#      (-Wall/-Wextra/-Wpedantic/-Wshadow/-Wconversion/-Wsign-conversion
#      plus the deep GCC set: -Wuseless-cast, -Wduplicated-cond,
#      -Wlogical-op, -Wnull-dereference, …) with ABSQUBO_WERROR=ON.
#   B. clang-tidy — the curated .clang-tidy profile over the compilation
#      database, zero findings. Skipped with a notice when clang-tidy is
#      not installed (the minimal container); the CI analyze job provides
#      it. The profile and baseline are maintained regardless.
#   C. absq_lint — the project-invariant checker (naked new/delete,
#      relaxed-atomics policy, hot-path blocking calls, error hierarchy,
#      include hygiene, plus the graph rules: module layering against
#      lint_layers.toml, transitive blocking calls, lock-order cycles,
#      atomic-ordering audit), zero findings. Runs twice: human-readable
#      text, then SARIF into build-analyze/absq_lint.sarif (CI uploads it
#      for code-scanning annotations). Budget: the lint pass must finish
#      in under 2 seconds.
#   D. header standalone compile — every src/ header and every header of
#      the lint engine (tools/lint/) must compile as its own translation
#      unit, pinning the include-what-you-use property absq_lint's include
#      rules approximate.
#   E. fuzz smoke — the tests/fuzz harnesses rebuilt under
#      -DABSQ_SANITIZE=fuzz (ASan+UBSan, libFuzzer when available), each
#      run for 100k iterations or 30 s over the checked-in corpus with
#      no crashes, hangs, or leaks. scripts/format.sh --check rides along
#      as stage F.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
FAILED=0

echo "== stage A: Werror build (strict warning set) =="
cmake -B build-analyze -S . -DCMAKE_BUILD_TYPE=Release \
      -DABSQUBO_WERROR=ON >/dev/null
cmake --build build-analyze -j "$JOBS"

echo
echo "== stage B: clang-tidy (curated profile) =="
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t TIDY_SOURCES < <(git ls-files 'src/*.cpp' 'tools/*.cpp')
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build-analyze -quiet -j "$JOBS" "${TIDY_SOURCES[@]}"
  else
    clang-tidy -p build-analyze --quiet "${TIDY_SOURCES[@]}"
  fi
else
  echo "clang-tidy not found — stage skipped (profile: .clang-tidy; the CI"
  echo "analyze job runs it; install clang-tidy to run locally)"
fi

echo
echo "== stage C: absq_lint (project invariants + graph rules) =="
LINT_START=$(date +%s%N)
./build-analyze/tools/absq_lint --root . --fail-on=error
./build-analyze/tools/absq_lint --root . --format=sarif --fail-on=never \
    > build-analyze/absq_lint.sarif
LINT_ELAPSED_MS=$((($(date +%s%N) - LINT_START) / 1000000))
echo "absq_lint: 2 passes in ${LINT_ELAPSED_MS} ms (SARIF:" \
     "build-analyze/absq_lint.sarif)"
if [[ $LINT_ELAPSED_MS -gt 2000 ]]; then
  echo "analyze.sh: absq_lint exceeded its 2 s budget" >&2
  FAILED=1
fi

echo
echo "== stage D: header standalone compile =="
HEADER_FAILS=0
# Each header is included the way the tree includes it: relative to src/,
# or to tools/ for the lint engine's "lint/..." headers.
HEADERS=('src/*.hpp' 'tools/lint/*.hpp')
while IFS= read -r header; do
  include="${header#src/}"
  include="${include#tools/}"
  if ! g++ -std=c++20 -fsyntax-only -Isrc -Itools -Itests/fuzz -x c++ \
       - <<<"#include \"${include}\"" 2>/tmp/header_err.$$; then
    echo "NOT self-contained: $header"
    sed 's/^/    /' /tmp/header_err.$$ | head -5
    HEADER_FAILS=$((HEADER_FAILS + 1))
  fi
done < <(git ls-files "${HEADERS[@]}")
rm -f /tmp/header_err.$$
if [[ $HEADER_FAILS -ne 0 ]]; then
  echo "analyze.sh: $HEADER_FAILS headers are not self-contained" >&2
  FAILED=1
else
  echo "all $(git ls-files "${HEADERS[@]}" | wc -l) src/ and tools/lint/" \
       "headers compile standalone"
fi

echo
echo "== stage E: fuzz smoke (ASan+UBSan, 100k iters or 30s per target) =="
cmake -B build-fuzz -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DABSQ_SANITIZE=fuzz -DABSQUBO_BUILD_BENCH=OFF \
      -DABSQUBO_BUILD_EXAMPLES=OFF >/dev/null
FUZZ_TARGETS=(fuzz_json fuzz_protocol fuzz_qubo fuzz_gset fuzz_tsplib
              fuzz_dimacs)
cmake --build build-fuzz -j "$JOBS" --target "${FUZZ_TARGETS[@]}"
for target in "${FUZZ_TARGETS[@]}"; do
  echo "-- $target"
  ./build-fuzz/tests/fuzz/"$target" -runs=100000 -max_total_time=30 \
      "tests/fuzz/corpus/$target"
done

echo
echo "== stage F: format check =="
./scripts/format.sh --check

if [[ $FAILED -ne 0 ]]; then
  echo "analyze.sh: FAILED" >&2
  exit 1
fi
echo
echo "analyze.sh: all static-analysis gates passed"

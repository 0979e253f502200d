#!/usr/bin/env bash
# The repo's one-command verification gate:
#
#   1. tier-1: configure + build everything, run the full ctest suite
#      (includes the tools_smoke, crash_smoke, serve_smoke and chaos_smoke
#      end-to-end scripts);
#   2. race check: rebuild the tests listed in scripts/sanitize_targets.txt
#      under ThreadSanitizer (cmake -DABSQ_SANITIZE=thread) and run them —
#      the observability layer's lock-free counters and ring tracer,
#      the sharded mailboxes under device workers, the threaded solver,
#      the fault-injection/watchdog paths, and the serving layer (job
#      scheduler + TCP server) must all be TSan-clean;
#   3. memory check: the same targets under Address+UndefinedBehavior
#      Sanitizer (cmake -DABSQ_SANITIZE=address) — quarantine, restart,
#      and checkpoint paths juggle exception_ptrs and device teardown,
#      exactly where lifetime bugs would hide, and the flip kernels' int32
#      Δ arithmetic must never overflow;
#   then the debug tier: everything rebuilt with -DCMAKE_BUILD_TYPE=Debug
#   and the full ctest suite run again. Tiers 1–3 define NDEBUG, so this
#   is the only tier in which the ABSQ_DCHECK invariants (bounds checks,
#   "straight search must end at target", ...) execute.
#
#   scripts/check.sh [jobs]      (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# One target list for both sanitizer tiers, shared with CI.
mapfile -t SANITIZE_TARGETS < <(grep -v '^#' scripts/sanitize_targets.txt)
# The chaos harness (SIGKILL + --recover) also runs under both sanitizers,
# against sanitized builds of the tools it drives.
CHAOS_TOOLS=(absq_gen absq_serve absq_client)

echo "== tier 1: build + ctest =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "== tier 2: ThreadSanitizer =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DABSQ_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
      --target "${SANITIZE_TARGETS[@]}" "${CHAOS_TOOLS[@]}"
for test in "${SANITIZE_TARGETS[@]}"; do
  echo "-- tsan: $test"
  ./build-tsan/tests/"$test"
done
echo "-- tsan: chaos_smoke"
./scripts/chaos_smoke.sh build-tsan

echo
echo "== tier 3: Address+UB Sanitizer =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DABSQ_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" \
      --target "${SANITIZE_TARGETS[@]}" "${CHAOS_TOOLS[@]}"
# UBSan only prints by default; halting makes a report (e.g. a signed
# overflow in the int32 Δ kernels) fail the tier.
for test in "${SANITIZE_TARGETS[@]}"; do
  echo "-- asan: $test"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 ./build-asan/tests/"$test"
done
echo "-- asan: chaos_smoke"
./scripts/chaos_smoke.sh build-asan

echo
echo "== debug tier: Debug (ABSQ_DCHECK on) build + ctest =="
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-debug -j "$JOBS"
ctest --test-dir build-debug --output-on-failure -j "$JOBS"

echo
echo "check.sh: all gates passed"

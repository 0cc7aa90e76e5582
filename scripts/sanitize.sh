#!/usr/bin/env bash
# Builds the tree under a sanitizer preset and runs tier-1 tests under it.
# Any heap error, leak, UB, or data race aborts (-fno-sanitize-recover=all).
#
#   scripts/sanitize.sh [asan|tsan] [extra ctest args...]
#
# asan (default): ASan + UBSan over the full ctest suite, built without
#       -DNDEBUG and with -D_GLIBCXX_ASSERTIONS, so every SIC_DCHECK and
#       libstdc++'s bounds checks run too (the other builds compile them out).
# tsan: ThreadSanitizer over the concurrency surface — the thread pool, the
#       parallel sweep engine (its reused pools, and the batched trial
#       streams its workers seed, RngBatch), and the deployment engine,
#       which scores association (AssociationPlanner) and serves APs on
#       pool workers. The rest of the suite runs on one thread and is
#       covered by asan.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="asan"
if [[ $# -gt 0 && ( "$1" == "asan" || "$1" == "tsan" ) ]]; then
  mode="$1"
  shift
fi

if [[ "$mode" == "tsan" ]]; then
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --preset tsan -j "$(nproc)" \
      -R 'ThreadPool|ParallelSweep|RngBatch|DeploymentEngine|AssociationPlanner' "$@"
else
  cmake --preset sanitize
  cmake --build --preset sanitize -j "$(nproc)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ctest --preset sanitize -j "$(nproc)" "$@"
fi

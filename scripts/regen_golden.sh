#!/usr/bin/env bash
# Rewrites every golden capture under tests/golden/ from a configured and
# built tree, then checks the fresh captures at --threads 1 and 4.
#
#   scripts/regen_golden.sh [build-dir]     # default: build
#
# The captures are the `golden` ctest label's reference bytes (see
# tests/golden_run.cmake). A change that moves one names every moved cell
# in CHANGES.md, with the reason.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"

rm -rf tests/golden
mkdir tests/golden
SICMAC_GOLDEN_REGEN=1 ctest --test-dir "$build" -L golden -R '\.t1$' \
  --output-on-failure
ctest --test-dir "$build" -L golden -j "$(nproc)" --output-on-failure

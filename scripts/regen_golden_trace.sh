#!/usr/bin/env bash
# Regenerates the checked-in golden decision traces from the current build:
#   tests/obs/golden/decision_trace.txt        (centralized episode)
#   tests/obs/golden/decision_trace_plane.txt  (2-manager failover episode)
#
# Run after an *intentional* change to the predictive growth loop, the
# threshold heuristic, the monitor's decision sequence, or the management
# plane's failover lifecycle — then review the golden diff like any other
# code change before committing it.
#
# Usage: scripts/regen_golden_trace.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build directory '$BUILD_DIR' not found" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

cmake --build "$BUILD_DIR" --target test_obs -j

GOLDEN=tests/obs/golden/decision_trace.txt
GOLDEN_PLANE=tests/obs/golden/decision_trace_plane.txt
RTDRM_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_obs" \
  --gtest_filter='GoldenTrace.DecisionAuditMatchesGoldenFile'
RTDRM_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_obs" \
  --gtest_filter='GoldenTrace.PlaneFailoverDecisionAuditMatchesGoldenFile'

echo
echo "regenerated $GOLDEN ($(wc -l < "$GOLDEN") lines) and"
echo "  $GOLDEN_PLANE ($(wc -l < "$GOLDEN_PLANE") lines); review with:"
echo "  git diff -- $GOLDEN $GOLDEN_PLANE"

#!/usr/bin/env sh
# clip-analyze driver (binary: clip-lint): bring the analyzer up to date
# with its sources and scan the whole tree — src/, examples/, bench/,
# tests/ and the analyzer's own sources (tests/lint_fixtures/ are
# deliberately-violating lint inputs and are excluded). Exit 0 = zero
# unsuppressed findings (suppressions with reasons are fine), 1 =
# violations, 2 = build/usage error. The JSON report
# (default build/lint_report.json) records per-rule counts and the
# suppression total so reviews can watch it trend; the SARIF 2.1.0 report
# (default build/lint_report.sarif) is what code-review UIs ingest — see
# docs/static-analysis.md.
#
# Usage: scripts/lint.sh [--json PATH] [--sarif PATH] [extra clip-lint args...]
#
# Environment:
#   BUILD_DIR   cmake build tree holding (or receiving) the clip-lint target
#               (default: build)
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JSON_OUT="$BUILD_DIR/lint_report.json"
SARIF_OUT="$BUILD_DIR/lint_report.sarif"
while [ $# -ge 2 ]; do
  case "$1" in
    --json) JSON_OUT=$2; shift 2 ;;
    --sarif) SARIF_OUT=$2; shift 2 ;;
    *) break ;;
  esac
done

# Always build: a no-op when the binary is current, and a scan never runs an
# analyzer older than its sources.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi
cmake --build "$BUILD_DIR" --target clip-lint -j "$(nproc)" >/dev/null

"$BUILD_DIR/tools/clip-lint/clip-lint" --root . --json "$JSON_OUT" \
  --sarif "$SARIF_OUT" --exclude tests/lint_fixtures "$@" \
  src examples bench tests tools/clip-lint
echo "lint: reports written to $JSON_OUT and $SARIF_OUT" >&2

# Observability doc drift: every series/metric/span/event name emitted in
# src/ must be documented in docs/observability.md.
scripts/check_obs_docs.sh

#!/usr/bin/env bash
# CI entry point: configure, build and test every preset (release, asan,
# tsan), then run the bench regression gate against the committed
# BENCH_eval_engine.json. The fault/resilience suite is labeled `fault` and
# the crash-consistency suite (journal round-trips, kill-point recovery, the
# randomized kill+recover fuzzer) is labeled `recovery`, and the live
# observability plane (telemetry server sockets + thread, trace
# propagation, the SLO/alert engine) is labeled `obs_live`; all run under
# every preset, so the sanitizers see them on each CI pass. A quick
# sanitizer-only sweep of one suite is:
#
#   PRESETS="asan tsan" CTEST_ARGS="-L fault" scripts/ci.sh
#   PRESETS="asan tsan" CTEST_ARGS="-L recovery" scripts/ci.sh
#   PRESETS="asan tsan" CTEST_ARGS="-L obs_live" scripts/ci.sh
#
# On a ctest failure the fault integration suite's flight-recorder dump (a
# run record written into $CLIP_FLIGHT_DIR — see docs/observability.md) is
# archived under ci-artifacts/<preset>/ before exiting, so the failing run's
# telemetry timeline survives the red build.
#
# After the release preset's tests pass, the benchmark's traced-run test
# (perfbench/tests/test_trace.py) runs once: it builds the benchmark and
# checks every workload's golden fingerprint, the only check that pins the
# queue outputs of rigid jobs (predefined node counts) byte for byte. It
# takes about half a minute once the benchmark is built.
#
# Environment:
#   PRESETS        space-separated subset of presets (default: all three)
#   CTEST_ARGS     extra arguments for ctest (e.g. "-L fault", "-R Queue")
#   JOBS           parallelism for build and test (default: nproc)
#   MAX_SLOWDOWN   regression-gate wall-clock threshold in percent (15)
#   SKIP_GATE      set to 1 to skip the regression-gate step
#   SKIP_LINT      set to 1 to skip the clip-lint stage
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS="${PRESETS:-release asan tsan}"
JOBS="${JOBS:-$(nproc)}"
MAX_SLOWDOWN="${MAX_SLOWDOWN:-15}"
ARTIFACTS="ci-artifacts"

# Stage 0: static analysis. Runs before the build matrix — a determinism,
# crash-consistency, lock-discipline or error-handling invariant broken at
# the token level fails fast, before any compile minute is spent. Fails on
# any unsuppressed finding; the JSON report (suppression-count trend
# included) and the SARIF 2.1.0 report are archived with the artifacts. The
# scan runs twice against a fresh incremental cache and prints both
# timings: the cold pass is the real gate, the warm pass proves the cache
# keeps a full-tree rescan cheap (and cannot change the verdict — the
# driver diffs the two JSON reports).
if [ "${SKIP_LINT:-0}" != "1" ]; then
  echo "==> [lint] clip-analyze full-tree scan (src examples bench tests tools)"
  mkdir -p "$ARTIFACTS"
  lint_cache="ci-lint-cache.txt"
  rm -f "$lint_cache"
  t0=$(date +%s%N)
  LINT_CACHE="$lint_cache" scripts/lint.sh \
    --json "$ARTIFACTS/lint_report.json" \
    --sarif "$ARTIFACTS/lint_report.sarif" --quiet
  t1=$(date +%s%N)
  LINT_CACHE="$lint_cache" scripts/lint.sh \
    --json "$ARTIFACTS/lint_report_warm.json" \
    --sarif "$ARTIFACTS/lint_report.sarif" --quiet
  t2=$(date +%s%N)
  cmp -s "$ARTIFACTS/lint_report.json" "$ARTIFACTS/lint_report_warm.json" \
    || { echo "==> [lint] warm cache changed the report" >&2; exit 1; }
  rm -f "$ARTIFACTS/lint_report_warm.json" "$lint_cache"
  echo "==> [lint] clean; cold $(( (t1 - t0) / 1000000 )) ms," \
    "warm $(( (t2 - t1) / 1000000 )) ms (incremental cache)"
fi

for preset in $PRESETS; do
  echo "==> [$preset] configure"
  cmake --preset "$preset" >/dev/null
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "==> [$preset] test"
  flight_dir="$ARTIFACTS/$preset/flight"
  rm -rf "$flight_dir" && mkdir -p "$flight_dir"
  # shellcheck disable=SC2086  # CTEST_ARGS is intentionally word-split
  if ! CLIP_FLIGHT_DIR="$PWD/$flight_dir" \
      ctest --preset "$preset" -j "$JOBS" --output-on-failure ${CTEST_ARGS:-}; then
    echo "==> [$preset] ctest FAILED — flight-recorder artifacts:" >&2
    find "$flight_dir" -type f | sed 's/^/      /' >&2
    exit 1
  fi
  rm -rf "$ARTIFACTS/$preset"  # green run: nothing worth archiving
  if [ "$preset" = release ]; then
    echo "==> [$preset] perfbench traced run: purity + golden fingerprints"
    python3 perfbench/tests/test_trace.py
  fi
done

# Every gate runs and reports, even after one fails: a failing wall-clock
# comparison must not hide the recovery or purity verdicts behind it. The
# stage exits non-zero at the end, naming each gate that failed.
failed_gates=""
gate() {
  name=$1
  shift
  if ! "$@"; then
    echo "==> [gate] FAILED: $name" >&2
    failed_gates="$failed_gates $name"
  fi
}

if [ "${SKIP_GATE:-0}" != "1" ] && [ -d build/bench ]; then
  echo "==> [gate] regression gate selftest"
  scripts/regression_gate.sh --selftest
  echo "==> [gate] bench sweep (release build)"
  mkdir -p "$ARTIFACTS"
  sh bench/run_benches.sh build "$ARTIFACTS/BENCH_fresh.json" \
    "$ARTIFACTS/BENCH_redist_fresh.json" "$ARTIFACTS/BENCH_recovery_fresh.json" \
    "$ARTIFACTS/BENCH_obs_fresh.json"
  echo "==> [gate] compare against committed BENCH_eval_engine.json"
  gate eval-engine scripts/regression_gate.sh --max-slowdown "$MAX_SLOWDOWN" \
    BENCH_eval_engine.json "$ARTIFACTS/BENCH_fresh.json"
  echo "==> [gate] batch-core throughput floor"
  gate batch scripts/regression_gate.sh --batch --max-slowdown "$MAX_SLOWDOWN" \
    BENCH_eval_engine.json "$ARTIFACTS/BENCH_fresh.json"
  echo "==> [gate] redistribution improvement floor"
  gate redist scripts/regression_gate.sh --redist \
    "$ARTIFACTS/BENCH_redist_fresh.json"
  echo "==> [gate] crash-consistency: byte-identical recovery + journal overhead"
  gate recovery scripts/regression_gate.sh --recovery \
    "$ARTIFACTS/BENCH_recovery_fresh.json"
  echo "==> [gate] observability plane: purity + endpoints + duty-cycle overhead"
  gate obs scripts/regression_gate.sh --obs "$ARTIFACTS/BENCH_obs_fresh.json"
fi

if [ -n "$failed_gates" ]; then
  echo "==> bench gates failed:$failed_gates" >&2
  exit 1
fi
echo "==> all presets passed: $PRESETS"

#!/usr/bin/env bash
# CI entry point: scan the whole tree once with clip-analyze
# (scripts/lint.sh), then configure, build and test every preset (release,
# asan, tsan); with release, also compile one Release (-O3) tree. The
# fault/resilience suite is labeled `fault`, the crash-consistency suite
# (journal round-trips, kill-point recovery, the randomized kill+recover
# fuzzer) `recovery`, the live observability plane (telemetry server
# sockets + thread, trace propagation, the SLO/alert engine) `obs_live`,
# the input fuzzers `fuzz`, and the bench checks (engine output identity
# and sim.runs pins, the golden outputs, among them the kill-point
# recovery report and the obs purity check with their allocation counts,
# and the redistribution floor) `bench`; all run under every preset, so
# the sanitizers see them on each CI pass. No stage judges host time;
# perfbench (perfbench/) times the program. A quick sanitizer-only sweep
# of one suite is:
#
#   PRESETS="asan tsan" CTEST_ARGS="-L fault" scripts/ci.sh
#   PRESETS="asan tsan" CTEST_ARGS="-L recovery" scripts/ci.sh
#   PRESETS="asan tsan" CTEST_ARGS="-L obs_live" scripts/ci.sh
#   PRESETS=asan CTEST_ARGS="-L fuzz" scripts/ci.sh
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
#   SKIP_LINT      set to 1 to skip the clip-lint stage
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS="${PRESETS:-release asan tsan}"
JOBS="${JOBS:-$(nproc)}"
ARTIFACTS="ci-artifacts"

# Stage 0: static analysis. Runs before the build matrix — a determinism,
# crash-consistency, lock-discipline or error-handling invariant broken at
# the token level fails fast, before any compile minute is spent. Fails on
# any unsuppressed finding; the JSON report (suppression-count trend
# included) and the SARIF 2.1.0 report are archived with the artifacts.
if [ "${SKIP_LINT:-0}" != "1" ]; then
  echo "==> [lint] clip-analyze full-tree scan (src examples bench tests tools)"
  mkdir -p "$ARTIFACTS"
  scripts/lint.sh --json "$ARTIFACTS/lint_report.json" \
    --sarif "$ARTIFACTS/lint_report.sarif" --quiet
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
    # -O3 inlines more than the presets' -O2 and Debug, and GCC 12 warns in
    # code they never see; with CLIP_WERROR=ON that fails the build. Compile
    # only: the presets run the tests.
    echo "==> [$preset] Release (-O3) build, compile only"
    cmake -S . -B build-o3 -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-o3 -j "$JOBS"
  fi
done

echo "==> all presets passed: $PRESETS"

#!/usr/bin/env sh
# Run the bench suite with the evaluation engine on, record wall-clock and
# engine counters per binary, and emit BENCH_eval_engine.json.
#
# Usage: bench/run_benches.sh [build-dir] [out-json] [redist-json]
#                             [recovery-json] [obs-json]
#   build-dir      cmake binary dir containing bench/ (default: build)
#   out-json       output path (default: BENCH_eval_engine.json in the cwd)
#   redist-json    output path for the redistribution sweep
#                  (default: BENCH_redist.json in the cwd)
#   recovery-json  output path for the crash-consistency sweep
#                  (default: BENCH_recovery.json in the cwd)
#   obs-json       output path for the observability-plane sweep
#                  (default: BENCH_obs.json in the cwd)
#
# Each binary runs twice: once with the engine (cache + pruning) and once
# as the pre-engine baseline (--no-cache --no-prune). The
# CSV outputs of the two runs are asserted byte-identical — the engine's
# core contract — and the JSON records both wall-clocks plus the sim.runs /
# cache-hit counters parsed from the --stats line.
set -eu

build_dir=${1:-build}
out_json=${2:-BENCH_eval_engine.json}
redist_json=${3:-BENCH_redist.json}
recovery_json=${4:-BENCH_recovery.json}
obs_json=${5:-BENCH_obs.json}
bench_dir="$build_dir/bench"

[ -d "$bench_dir" ] || {
  echo "error: $bench_dir not found (build first: cmake --preset release && cmake --build build -j)" >&2
  exit 1
}

# Benches built on the evaluation engine. micro_runtime (google-benchmark)
# and the purely analytic binaries are out of scope.
benches="fig3_power_budget_impact fig7_inflection fig8_high_budget \
fig9_low_budget summary_claims ablation_dimensions scale_cluster"

# Millisecond wall clock. `date +%s%N` is GNU-only (BSD/busybox print a
# literal 'N'), so probe it once and fall back to python3, then to
# second-resolution POSIX date.
if [ "$(date +%N 2>/dev/null | tr -d '0-9')" = "" ] && \
   [ -n "$(date +%N 2>/dev/null)" ]; then
  now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
elif command -v python3 >/dev/null 2>&1; then
  now_ms() { python3 -c 'import time; print(int(time.time() * 1000))'; }
else
  now_ms() { echo $(( $(date +%s) * 1000 )); }
fi

stat_field() { # stats-file key -> value (0 when absent)
  sed -n "s/.*$2=\([0-9][0-9]*\).*/\1/p" "$1" | head -n 1 | grep . || echo 0
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Provenance stamp: which tree produced these numbers, and when. The
# regression gate prints both stamps when comparing files.
git_sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
utc_date=$(TZ=UTC date -u '+%Y-%m-%dT%H:%M:%SZ')

printf '{\n  "git_sha": "%s",\n  "date_utc": "%s",\n  "benches": [\n' \
  "$git_sha" "$utc_date" > "$out_json"
first=1
for b in $benches; do
  bin="$bench_dir/$b"
  [ -x "$bin" ] || { echo "skip $b (not built)" >&2; continue; }

  echo "== $b (baseline: no cache, no pruning)" >&2
  t0=$(now_ms)
  "$bin" --csv --no-cache --no-prune --stats \
      > "$tmp/$b.base.csv" 2> "$tmp/$b.base.stats"
  t1=$(now_ms)
  base_ms=$((t1 - t0))

  echo "== $b (engine: cache + pruning)" >&2
  t0=$(now_ms)
  "$bin" --csv --stats \
      > "$tmp/$b.fast.csv" 2> "$tmp/$b.fast.stats"
  t1=$(now_ms)
  fast_ms=$((t1 - t0))

  # Byte-identity applies to the model-derived figures. Search-cost and
  # plan-latency reporting legitimately changes with pruning/host timing:
  # summary_claims' cost row is filtered; scale_cluster's per-row latency
  # columns make its table timing-dependent, so it is exempt.
  if [ "$b" != "scale_cluster" ]; then
    grep -v 'oracle needs' "$tmp/$b.base.csv" > "$tmp/$b.base.cmp"
    grep -v 'oracle needs' "$tmp/$b.fast.csv" > "$tmp/$b.fast.cmp"
    cmp -s "$tmp/$b.base.cmp" "$tmp/$b.fast.cmp" || {
      echo "FAIL: $b output differs between baseline and engine runs" >&2
      exit 1
    }
  fi

  base_runs=$(stat_field "$tmp/$b.base.stats" sim.runs)
  fast_runs=$(stat_field "$tmp/$b.fast.stats" sim.runs)
  hits=$(stat_field "$tmp/$b.fast.stats" sim.exact_cache_hits)
  misses=$(stat_field "$tmp/$b.fast.stats" sim.exact_cache_misses)
  batch_runs=$(stat_field "$tmp/$b.fast.stats" sim.batch_runs)
  batch_p50=$(stat_field "$tmp/$b.fast.stats" sim.batch_width_p50)
  # Simulator-run throughput of the engine run (integer runs/s). This is
  # what the batch core optimizes; `regression_gate.sh --batch` floors it.
  runs_per_sec=$(awk -v r="$fast_runs" -v m="$fast_ms" \
    'BEGIN { printf "%d", r * 1000 / (m < 1 ? 1 : m) }')

  [ $first -eq 1 ] || printf ',\n' >> "$out_json"
  first=0
  printf '    {"name": "%s", "baseline_ms": %s, "engine_ms": %s, "baseline_sim_runs": %s, "engine_sim_runs": %s, "cache_hits": %s, "cache_misses": %s, "runs_per_sec": %s, "batch_runs": %s, "batch_width_p50": %s, "output_identical": true}' \
    "$b" "$base_ms" "$fast_ms" "$base_runs" "$fast_runs" "$hits" "$misses" \
    "$runs_per_sec" "$batch_runs" "$batch_p50" \
    >> "$out_json"
  echo "   $b: ${base_ms}ms -> ${fast_ms}ms, sim.runs $base_runs -> $fast_runs, ${runs_per_sec} runs/s" >&2
done
printf '\n  ]\n}\n' >> "$out_json"

echo "wrote $out_json" >&2

# Redistribution sweep: static vs redistribution-enabled queue across the
# resilience scenario catalog. The binary writes BENCH_redist.json into its
# cwd, so run it in the scratch dir and move the result into place.
# `scripts/regression_gate.sh --redist` gates on its counters.
redist_bin=$(cd "$bench_dir" && pwd)/redistribution
if [ -x "$redist_bin" ]; then
  echo "== redistribution (static vs redistribution-enabled queue)" >&2
  ( cd "$tmp" && "$redist_bin" --json > redist.out 2> redist.err )
  case "$redist_json" in
    /*) mv "$tmp/BENCH_redist.json" "$redist_json" ;;
    *)  mv "$tmp/BENCH_redist.json" "./$redist_json" ;;
  esac
  echo "wrote $redist_json" >&2
else
  echo "skip redistribution (not built)" >&2
fi

# Crash-consistency sweep: kill + recover at every catalog scenario plus the
# journal-overhead measurement. Writes BENCH_recovery.json into its cwd;
# `scripts/regression_gate.sh --recovery` gates on its counters.
recovery_bin=$(cd "$bench_dir" && pwd)/recovery
if [ -x "$recovery_bin" ]; then
  echo "== recovery (kill + recover, journal overhead)" >&2
  ( cd "$tmp" && "$recovery_bin" --json > recovery.out 2> recovery.err )
  case "$recovery_json" in
    /*) mv "$tmp/BENCH_recovery.json" "$recovery_json" ;;
    *)  mv "$tmp/BENCH_recovery.json" "./$recovery_json" ;;
  esac
  echo "wrote $recovery_json" >&2
else
  echo "skip recovery (not built)" >&2
fi

# Observability-plane sweep: purity (bare vs fully instrumented run),
# telemetry endpoint probes and the telemetry+tracing duty-cycle overhead.
# Writes BENCH_obs.json into its cwd; `scripts/regression_gate.sh --obs`
# gates on its counters.
obs_bin=$(cd "$bench_dir" && pwd)/obs_overhead
if [ -x "$obs_bin" ]; then
  echo "== obs_overhead (observability plane: purity + endpoints + overhead)" >&2
  ( cd "$tmp" && "$obs_bin" --json > obs.out 2> obs.err )
  case "$obs_json" in
    /*) mv "$tmp/BENCH_obs.json" "$obs_json" ;;
    *)  mv "$tmp/BENCH_obs.json" "./$obs_json" ;;
  esac
  echo "wrote $obs_json" >&2
else
  echo "skip obs_overhead (not built)" >&2
fi

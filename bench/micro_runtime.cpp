// Microbenchmarks of the framework itself (google-benchmark): the latency of
// the decision pipeline and its substrates. CLIP is a runtime system — its
// own overhead must be negligible next to a job launch.
#include <benchmark/benchmark.h>

#include "baselines/oracle.hpp"
#include "core/inflection.hpp"
#include "core/predictor.hpp"
#include "core/profiler.hpp"
#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/executor.hpp"
#include "sim/rapl.hpp"
#include "stats/linreg.hpp"
#include "stats/piecewise.hpp"
#include "util/rng.hpp"
#include "workloads/catalog.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace clip;

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

sim::SimExecutor& executor() {
  static sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  return ex;
}

// ------------------------------------------------------------- substrates ----

void BM_RaplSolve(benchmark::State& state) {
  const sim::MachineSpec spec;
  const sim::RaplSolver solver(spec);
  const auto w = *workloads::find_benchmark("BT-MZ");
  sim::NodeConfig cfg;
  cfg.threads = 16;
  cfg.cpu_cap = Watts(90.0);
  cfg.mem_cap = Watts(40.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(solver.solve(w, 40.0, cfg));
}
BENCHMARK(BM_RaplSolve);

void BM_SimExecutorRun(benchmark::State& state) {
  const auto w = *workloads::find_benchmark("TeaLeaf");
  sim::ClusterConfig cfg;
  cfg.nodes = static_cast<int>(state.range(0));
  cfg.node.threads = 12;
  for (auto _ : state)
    benchmark::DoNotOptimize(executor().run_exact(w, cfg));
}
BENCHMARK(BM_SimExecutorRun)->Arg(1)->Arg(4)->Arg(8);

// The exact-run cache's own cost: construct it, insert n distinct points
// (one 8-node measurement each), destroy it. n = 2636 is
// ablation_dimensions' probe count, the most any bench makes of one cache.
void BM_ExactRunCacheFill(benchmark::State& state) {
  const auto w = *workloads::find_benchmark("TeaLeaf");
  sim::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.node.threads = 12;
  const sim::Measurement m = executor().run_exact(w, cfg);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ExactRunCache cache;
    const std::uint64_t id = cache.intern_prefix("fill");
    for (int i = 0; i < n; ++i)
      cache.insert(sim::CacheKey{id, 40.0 + i, 20.0}, m);
    benchmark::DoNotOptimize(cache.stats().entries);
  }
}
BENCHMARK(BM_ExactRunCacheFill)
    ->Arg(0)
    ->Arg(2636)
    ->Unit(benchmark::kMicrosecond);

void BM_MlrFit(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 26; ++i) {
    std::vector<double> row(8);
    for (auto& v : row) v = rng.uniform(0.0, 1.0);
    x.push_back(row);
    y.push_back(rng.uniform(2.0, 24.0));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(
        stats::fit_linear(x, y, {.ridge_lambda = 4.0}));
}
BENCHMARK(BM_MlrFit);

void BM_PiecewiseFit(benchmark::State& state) {
  std::vector<double> x, y;
  for (int i = 1; i <= 24; ++i) {
    x.push_back(i);
    y.push_back(i <= 10 ? i : 10.0 + 0.2 * (i - 10));
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(stats::fit_piecewise_linear(x, y));
}
BENCHMARK(BM_PiecewiseFit);

// --------------------------------------------------------------- decisions ----

void BM_SmartProfile(benchmark::State& state) {
  core::SmartProfiler profiler(executor());
  const auto w = *workloads::find_benchmark("LU-MZ");
  for (auto _ : state) benchmark::DoNotOptimize(profiler.profile(w));
}
BENCHMARK(BM_SmartProfile);

void BM_ClipScheduleCached(benchmark::State& state) {
  core::ClipScheduler sched(executor(), workloads::training_benchmarks());
  const auto w = *workloads::find_benchmark("SP-MZ");
  (void)sched.schedule(w, Watts(800.0));  // warm the knowledge DB
  for (auto _ : state)
    benchmark::DoNotOptimize(sched.schedule(w, Watts(800.0)));
}
BENCHMARK(BM_ClipScheduleCached);

// ----------------------------------------------------------- observability ----
// The obs layer's contract is near-zero cost when detached; these pin the
// three regimes (no session / session without sink / recording) so a
// regression in the hot-path branch shows up as a latency cliff here.

void BM_ObsSpanDetached(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedSpan span(nullptr, "bench.detached");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDetached);

void BM_ObsSpanNoSink(benchmark::State& state) {
  obs::ObsSession session;  // session attached, but no sink: spans stay inert
  for (auto _ : state) {
    obs::ScopedSpan span(&session, "bench.no_sink");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanNoSink);

void BM_ObsSpanRecorded(benchmark::State& state) {
  obs::ObsSession session;
  obs::MemorySink sink;
  session.set_sink(&sink);
  for (auto _ : state) {
    obs::ScopedSpan span(&session, "bench.recorded");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanRecorded);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::ObsSession session;
  obs::Counter& c = session.metrics().counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::ObsSession session;
  obs::Histogram& h =
      session.metrics().histogram("bench.hist", obs::latency_us_spec());
  double v = 0.5;
  for (auto _ : state) {
    h.record(v);
    v = v < 1e6 ? v * 1.01 : 0.5;
    benchmark::DoNotOptimize(&h);
  }
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ClipScheduleCachedObserved(benchmark::State& state) {
  // BM_ClipScheduleCached with the full obs pipeline attached — the delta
  // between the two is the cost of observing a cached decision.
  core::ClipScheduler sched(executor(), workloads::training_benchmarks());
  const auto w = *workloads::find_benchmark("SP-MZ");
  (void)sched.schedule(w, Watts(800.0));  // warm the knowledge DB
  obs::ObsSession session;
  obs::MemorySink sink;
  session.set_sink(&sink);
  sched.set_observer(&session);
  for (auto _ : state)
    benchmark::DoNotOptimize(sched.schedule(w, Watts(800.0)));
}
BENCHMARK(BM_ClipScheduleCachedObserved);

void BM_OraclePlan(benchmark::State& state) {
  baselines::OracleScheduler oracle(executor());
  const auto w = *workloads::find_benchmark("SP-MZ");
  for (auto _ : state) {
    // Drop the plan memo so every iteration searches; the bound memo stays
    // warm, as in a budget sweep.
    oracle.set_options(baselines::OracleOptions{});
    benchmark::DoNotOptimize(oracle.plan(w, Watts(800.0)));
  }
}
BENCHMARK(BM_OraclePlan);

// ------------------------------------------------------------ host runtime ----

void BM_ThreadPoolRegion(benchmark::State& state) {
  parallel::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state)
    pool.run_region([](int, int) { benchmark::DoNotOptimize(0); });
}
BENCHMARK(BM_ThreadPoolRegion)->Arg(1)->Arg(2)->Arg(4);

void BM_ParallelForStatic(benchmark::State& state) {
  parallel::ThreadPool pool(4);
  std::vector<double> data(1 << 14, 1.0);
  for (auto _ : state) {
    parallel::parallel_for(pool, 0, static_cast<std::int64_t>(data.size()),
                           [&](std::int64_t i) { data[i] *= 1.0000001; });
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_ParallelForStatic);

void BM_KernelStreamTriad(benchmark::State& state) {
  parallel::ThreadPool pool(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        workloads::stream_triad(pool, 1 << 15, 2));
}
BENCHMARK(BM_KernelStreamTriad);

void BM_KernelDgemm(benchmark::State& state) {
  parallel::ThreadPool pool(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(workloads::blocked_dgemm(pool, 96));
}
BENCHMARK(BM_KernelDgemm);

}  // namespace

BENCHMARK_MAIN();

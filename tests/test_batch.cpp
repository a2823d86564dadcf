// Property tests for the batch-vectorized simulator core
// (SimExecutor::run_batch) and the time-only scalar entry point
// (SimExecutor::exact_time). The contract under test is *bit* identity:
// evaluating a whole cap frontier in one call — with subexpression
// hoisting and in-frontier deduplication — or one configuration without
// building its measurement must reproduce run_exact's time to the last
// mantissa bit. Anything weaker would let batching change figure bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "obs/session.hpp"
#include "sim/exec_cache.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/catalog.hpp"
#include "workloads/phases.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

std::uint64_t counter(obs::ObsSession& s, std::string_view name) {
  const obs::Counter* c = s.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Exact double equality, NaN-safe and -0.0-strict: compares the bits.
void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

/// A catalog signature with its continuous model inputs jittered — keeps
/// every field in its physically sensible range while leaving no chance the
/// batch path only works for the ten curated benchmarks.
workloads::WorkloadSignature random_workload(Rng& rng) {
  const auto& cat = workloads::paper_benchmarks();
  workloads::WorkloadSignature w =
      cat[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cat.size()) - 1))];
  w.node_base_time_s *= rng.uniform(0.5, 2.0);
  w.serial_fraction = rng.uniform(0.0, 0.2);
  w.memory_boundedness = rng.uniform(0.0, 1.0);
  w.bw_per_core_gbps = rng.uniform(0.1, 6.0);
  w.sync_coeff_s = rng.uniform(0.0, 0.02);
  w.shared_data_fraction = rng.uniform(0.0, 1.0);
  w.compute_intensity = rng.uniform(0.2, 1.0);
  w.ipc = rng.uniform(0.5, 3.0);
  w.icache_pressure = rng.uniform(0.0, 0.3);
  w.write_fraction = rng.uniform(0.1, 0.6);
  w.comm_latency_s = rng.uniform(0.0, 0.2);
  return w;
}

/// A random placement: node count, even thread count, affinity, mem level.
sim::ClusterConfig random_base(Rng& rng, const sim::MachineSpec& spec) {
  sim::ClusterConfig cfg;
  cfg.nodes = rng.uniform_int(1, spec.nodes);
  cfg.node.threads =
      2 * rng.uniform_int(1, spec.shape.total_cores() / 2);
  cfg.node.affinity = rng.uniform() < 0.5 ? parallel::AffinityPolicy::kCompact
                                          : parallel::AffinityPolicy::kScatter;
  cfg.node.mem_level =
      sim::kAllMemLevels[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<int>(std::size(sim::kAllMemLevels)) - 1))];
  return cfg;
}

std::vector<sim::CapPoint> random_caps(Rng& rng, std::size_t width) {
  std::vector<sim::CapPoint> caps(width);
  for (sim::CapPoint& p : caps) {
    p.cpu_cap = Watts(rng.uniform(25.0, 130.0));
    // Keep the DRAM cap above the worst-case DIMM base power (2 sockets
    // × 5 W) so memory-bound draws always have a positive bandwidth budget.
    p.mem_cap = Watts(rng.uniform(12.0, 60.0));
  }
  return caps;
}

/// The core property: run_batch == the scalar run_exact loop's times, bit
/// for bit.
void check_batch_equals_scalar(sim::SimExecutor& ex, Rng& rng, int trials) {
  for (int t = 0; t < trials; ++t) {
    const workloads::WorkloadSignature w = random_workload(rng);
    const sim::ClusterConfig base = random_base(rng, ex.spec());
    const std::size_t width =
        static_cast<std::size_t>(rng.uniform_int(4, 64));
    const std::vector<sim::CapPoint> caps = random_caps(rng, width);

    const std::vector<Seconds> batch = ex.run_batch(w, base, caps);
    ASSERT_EQ(batch.size(), caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
      sim::ClusterConfig point = base;
      point.node.cpu_cap = caps[i].cpu_cap;
      point.node.mem_cap = caps[i].mem_cap;
      expect_bits(batch[i].value(), ex.run_exact(w, point).time.value(),
                  "time");
    }
  }
}

// ------------------------------------------------------------ bit identity ---

TEST(BatchIdentity, MatchesScalarAcrossRandomFrontiers) {
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  Rng rng(0x11u);
  check_batch_equals_scalar(ex, rng, 30);
}

TEST(BatchIdentity, MatchesScalarUnderNodeVariability) {
  // sigma > 0 makes nodes heterogeneous: the batch path must take the
  // per-node (non-uniform) kernel and still agree bit for bit.
  sim::MachineSpec spec;
  spec.variability_sigma = 0.08;
  spec.variability_seed = 7;
  sim::SimExecutor ex(spec, no_noise());
  Rng rng(0x22u);
  check_batch_equals_scalar(ex, rng, 20);
}

TEST(BatchIdentity, MatchesScalarWithCacheAttached) {
  // An attached cache must be invisible to results: same bytes out.
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  sim::ExactRunCache cache;
  ex.set_exact_cache(&cache);
  Rng rng(0x33u);
  check_batch_equals_scalar(ex, rng, 15);
}

TEST(BatchIdentity, PhasedExecutionUnaffectedByBatchMachinery) {
  // run_phased_exact composes the same node model the batch kernel hoists;
  // attaching a cache/observer must not perturb phased results by a bit.
  sim::SimExecutor plain(sim::MachineSpec{}, no_noise());
  sim::SimExecutor tooled(sim::MachineSpec{}, no_noise());
  sim::ExactRunCache cache;
  obs::ObsSession session;
  tooled.set_exact_cache(&cache);
  tooled.set_observer(&session);

  Rng rng(0x44u);
  for (const workloads::PhasedWorkload& w : workloads::phased_benchmarks()) {
    sim::PhasedClusterConfig cfg;
    cfg.nodes = rng.uniform_int(1, 4);
    for (std::size_t p = 0; p < w.phases.size(); ++p) {
      sim::NodeConfig node;
      node.threads = 2 * rng.uniform_int(1, 12);
      node.cpu_cap = Watts(rng.uniform(40.0, 120.0));
      node.mem_cap = Watts(rng.uniform(10.0, 50.0));
      cfg.phase_nodes.push_back(node);
    }
    const sim::PhasedMeasurement a = plain.run_phased_exact(w, cfg);
    const sim::PhasedMeasurement b = tooled.run_phased_exact(w, cfg);
    expect_bits(a.time.value(), b.time.value(), "phased.time");
    expect_bits(a.avg_power.value(), b.avg_power.value(), "phased.avg_power");
    expect_bits(a.energy.value(), b.energy.value(), "phased.energy");
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t p = 0; p < a.phases.size(); ++p)
      expect_bits(a.phases[p].time.value(), b.phases[p].time.value(),
                  "phase.time");
  }
}

// ----------------------------------------------------- threshold behaviour ---

TEST(BatchThreshold, SmallFrontiersBypassBatchMachinery) {
  // kMinBatchFrontier is a perf contract (fig7's frontiers are narrow):
  // below it run_batch must not pay any batch setup, which we observe
  // through the sim.batch_runs counter staying flat.
  EXPECT_EQ(sim::SimExecutor::kMinBatchFrontier, 4u);

  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  obs::ObsSession session;
  ex.set_observer(&session);
  const auto w = *workloads::find_benchmark("TeaLeaf");
  Rng rng(0x66u);
  const sim::ClusterConfig base = random_base(rng, ex.spec());

  const std::vector<sim::CapPoint> narrow =
      random_caps(rng, sim::SimExecutor::kMinBatchFrontier - 1);
  const std::vector<Seconds> a = ex.run_batch(w, base, narrow);
  EXPECT_EQ(counter(session, "sim.batch_runs"), 0u);
  EXPECT_EQ(counter(session, "sim.runs"), narrow.size());
  // The bypass still honors the result contract.
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    sim::ClusterConfig point = base;
    point.node.cpu_cap = narrow[i].cpu_cap;
    point.node.mem_cap = narrow[i].mem_cap;
    expect_bits(a[i].value(), ex.run_exact(w, point).time.value(), "time");
  }

  const std::vector<sim::CapPoint> wide =
      random_caps(rng, sim::SimExecutor::kMinBatchFrontier);
  (void)ex.run_batch(w, base, wide);
  EXPECT_EQ(counter(session, "sim.batch_runs"), 1u);
}

TEST(BatchThreshold, EmptyFrontierIsANoOp) {
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  obs::ObsSession session;
  ex.set_observer(&session);
  const auto w = *workloads::find_benchmark("CoMD");
  const std::vector<Seconds> r = ex.run_batch(w, sim::ClusterConfig{}, {});
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(counter(session, "sim.runs"), 0u);
  EXPECT_EQ(counter(session, "sim.batch_runs"), 0u);
}

TEST(BatchThreshold, PerNodeOverridesAreScalarOnly) {
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  const auto w = *workloads::find_benchmark("CoMD");
  sim::ClusterConfig base;
  base.nodes = 2;
  base.cpu_cap_overrides = {Watts(90.0), Watts(85.0)};
  Rng rng(0x77u);
  EXPECT_THROW((void)ex.run_batch(w, base, random_caps(rng, 8)),
               PreconditionError);
}

// ------------------------------------------------- cache + counter wiring ----

TEST(BatchCache, ReplayedFrontierIsRecomputedNotStored) {
  // A wide frontier consults no cache: a replay computes every point again,
  // bit-identically, and the attached cache sees neither probe nor fill.
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  sim::ExactRunCache cache;
  obs::ObsSession session;
  ex.set_exact_cache(&cache);
  ex.set_observer(&session);

  const auto w = *workloads::find_benchmark("TeaLeaf");
  Rng rng(0x88u);
  const sim::ClusterConfig base = random_base(rng, ex.spec());
  const std::vector<sim::CapPoint> caps = random_caps(rng, 16);

  const std::vector<Seconds> first = ex.run_batch(w, base, caps);
  const std::vector<Seconds> replay = ex.run_batch(w, base, caps);
  ASSERT_EQ(replay.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    expect_bits(replay[i].value(), first[i].value(), "time");
  EXPECT_EQ(counter(session, "sim.runs"), 2 * caps.size());
  EXPECT_EQ(counter(session, "sim.exact_cache_hits"), 0u);
  EXPECT_EQ(counter(session, "sim.exact_cache_misses"), 0u);
  const sim::ExactCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(BatchCache, InFrontierDuplicatesComputeOnce) {
  // Two frontiers: a typical narrow one, deduped by scanning the uniques,
  // and one wider than 64 points, deduped through the ordered map.
  for (const std::size_t uniques : {std::size_t{6}, std::size_t{70}}) {
    sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
    sim::ExactRunCache cache;
    obs::ObsSession session;
    ex.set_exact_cache(&cache);
    ex.set_observer(&session);

    const auto w = *workloads::find_benchmark("BT-MZ");
    Rng rng(0x99u);
    const sim::ClusterConfig base = random_base(rng, ex.spec());
    std::vector<sim::CapPoint> caps = random_caps(rng, uniques);
    // Alias points onto earlier ones (the oracle's demand-tight cap
    // landing on a grid point, writ large): (alias index, original index).
    const std::vector<std::pair<std::size_t, std::size_t>> aliases = {
        {uniques, 0}, {uniques + 1, 2}, {uniques + 2, 0}};
    for (const auto& [alias, original] : aliases)
      caps.push_back(caps[original]);

    const std::vector<Seconds> r = ex.run_batch(w, base, caps);
    EXPECT_EQ(counter(session, "sim.runs"), uniques) << uniques;
    EXPECT_EQ(counter(session, "sim.exact_cache_misses"), 0u);
    EXPECT_EQ(counter(session, "sim.exact_cache_hits"), 0u);
    for (const auto& [alias, original] : aliases)
      expect_bits(r[alias].value(), r[original].value(), "alias time");
  }
}

// ------------------------------------------------------------ exact_time ----

TEST(ExactTime, MatchesRunExactTimeBitForBit) {
  // exact_time must be run_exact's time without the measurement around it:
  // over uniform and heterogeneous nodes, per-node cap overrides and PKG
  // caps low enough to force clock modulation. Each call is one uncached
  // model run — sim.runs moves by one, the cache sees nothing.
  sim::MachineSpec varied;
  varied.variability_sigma = 0.08;
  varied.variability_seed = 7;
  int duty_cycled = 0;
  int overridden = 0;
  for (const sim::MachineSpec& spec : {sim::MachineSpec{}, varied}) {
    sim::SimExecutor ex(spec, no_noise());
    sim::ExactRunCache cache;
    obs::ObsSession session;
    ex.set_exact_cache(&cache);
    ex.set_observer(&session);
    Rng rng(0xAAu + spec.variability_seed);
    for (int t = 0; t < 60; ++t) {
      const workloads::WorkloadSignature w = random_workload(rng);
      sim::ClusterConfig cfg = random_base(rng, ex.spec());
      // A third of the trials cap the PKG below the lowest state's draw
      // (two socket bases alone are 32 W).
      const bool starve = t % 3 == 0;
      cfg.node.cpu_cap = Watts(starve ? rng.uniform(20.0, 40.0)
                                      : rng.uniform(25.0, 130.0));
      cfg.node.mem_cap = Watts(rng.uniform(12.0, 60.0));
      if (t % 4 == 1) {
        for (int i = 0; i < cfg.nodes; ++i)
          cfg.cpu_cap_overrides.push_back(Watts(
              starve ? rng.uniform(20.0, 40.0) : rng.uniform(25.0, 130.0)));
        ++overridden;
      }

      const std::uint64_t runs = counter(session, "sim.runs");
      const std::uint64_t hits = counter(session, "sim.exact_cache_hits");
      const std::uint64_t misses = counter(session, "sim.exact_cache_misses");
      const sim::ExactCacheStats before = cache.stats();
      const Seconds time = ex.exact_time(w, cfg);
      EXPECT_EQ(counter(session, "sim.runs"), runs + 1);
      EXPECT_EQ(counter(session, "sim.exact_cache_hits"), hits);
      EXPECT_EQ(counter(session, "sim.exact_cache_misses"), misses);
      const sim::ExactCacheStats after = cache.stats();
      EXPECT_EQ(after.hits, before.hits);
      EXPECT_EQ(after.misses, before.misses);
      EXPECT_EQ(after.entries, before.entries);

      const sim::Measurement m = ex.run_exact(w, cfg);
      expect_bits(time.value(), m.time.value(), "time");
      for (const sim::NodeMeasurement& nm : m.nodes)
        if (nm.duty_factor < 1.0) {
          ++duty_cycled;
          break;
        }
    }
  }
  EXPECT_GT(duty_cycled, 0) << "no trial reached the clock-modulation branch";
  EXPECT_GT(overridden, 0);
}

}  // namespace
}  // namespace clip

// Tests for the fast evaluation engine: the exact-run memoization cache
// (sim/exec_cache), the pruned oracle search, the two-phase comparison
// harness, and the knowledge-DB reuse paths. The load-bearing property
// throughout is *determinism*: caching and pruning must never change a
// single output byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/all_in.hpp"
#include "baselines/clip_adapter.hpp"
#include "baselines/coordinated.hpp"
#include "baselines/lower_limit.hpp"
#include "baselines/oracle.hpp"
#include "core/scheduler.hpp"
#include "obs/session.hpp"
#include "runtime/comparison.hpp"
#include "sim/exec_cache.hpp"
#include "sim/executor.hpp"
#include "workloads/catalog.hpp"

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

sim::ClusterConfig small_config(int threads) {
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.threads = threads;
  cfg.node.affinity = parallel::AffinityPolicy::kScatter;
  cfg.node.cpu_cap = Watts(80.0);
  cfg.node.mem_cap = Watts(30.0);
  return cfg;
}

// ------------------------------------------------------------ cache keys ----

TEST(ExactCacheKey, DistinguishesEveryConfigDimension) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  const std::string prefix =
      sim::ExactRunCache::encode_spec(sim::MachineSpec{});
  const sim::ClusterConfig base = small_config(12);
  const std::string key = sim::ExactRunCache::encode_key(prefix, w, base);

  // Same inputs -> same key.
  EXPECT_EQ(key, sim::ExactRunCache::encode_key(prefix, w, base));

  std::vector<sim::ClusterConfig> variants;
  variants.push_back(base);
  variants.back().nodes = 3;
  variants.push_back(base);
  variants.back().node.threads = 14;
  variants.push_back(base);
  variants.back().node.affinity = parallel::AffinityPolicy::kCompact;
  variants.push_back(base);
  variants.back().node.mem_level = sim::MemPowerLevel::kL2;
  variants.push_back(base);
  variants.back().node.cpu_cap = Watts(80.5);
  variants.push_back(base);
  variants.back().node.mem_cap = Watts(29.0);
  variants.push_back(base);
  variants.back().cpu_cap_overrides = {Watts(80.0), Watts(79.0)};
  for (const auto& v : variants)
    EXPECT_NE(key, sim::ExactRunCache::encode_key(prefix, w, v));

  // Different workload -> different key.
  const auto w2 = *workloads::find_benchmark("CoMD");
  EXPECT_NE(key, sim::ExactRunCache::encode_key(prefix, w2, base));
}

TEST(ExactCacheKey, SpecPrefixCoversFieldsTheFingerprintOmits) {
  // MachineSpec::fingerprint() deliberately ignores the variability draw —
  // two executors differing only in seed would alias under it. The cache
  // prefix must not.
  sim::MachineSpec a;
  sim::MachineSpec b = a;
  b.variability_seed += 1;
  EXPECT_NE(sim::ExactRunCache::encode_spec(a),
            sim::ExactRunCache::encode_spec(b));
  sim::MachineSpec c = a;
  c.variability_sigma += 0.01;
  EXPECT_NE(sim::ExactRunCache::encode_spec(a),
            sim::ExactRunCache::encode_spec(c));
  // spec.nodes, by contrast, is deliberately ABSENT from the prefix: the
  // variability multipliers are drawn sequentially from one seeded stream,
  // so the first cfg.nodes multipliers are the same on an 8-node and a
  // 64-node cluster — topologically identical shards share cache entries.
  // The active node count still keys via cfg.nodes in encode_key, and
  // run_exact validates cfg.nodes against the spec before probing.
  sim::MachineSpec d = a;
  d.nodes += 1;
  EXPECT_EQ(sim::ExactRunCache::encode_spec(a),
            sim::ExactRunCache::encode_spec(d));
}

// ------------------------------------------------------- cache mechanics ----

TEST(ExactRunCache, HitReturnsBitIdenticalMeasurementAndSkipsModel) {
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  sim::ExactRunCache cache;
  obs::ObsSession session;
  ex.set_exact_cache(&cache);
  ex.set_observer(&session);

  const auto w = *workloads::find_benchmark("TeaLeaf");
  const sim::ClusterConfig cfg = small_config(12);
  const sim::Measurement first = ex.run_exact(w, cfg);
  const sim::Measurement second = ex.run_exact(w, cfg);

  EXPECT_EQ(first.time.value(), second.time.value());
  EXPECT_EQ(first.energy.value(), second.energy.value());
  EXPECT_EQ(first.avg_power.value(), second.avg_power.value());
  ASSERT_EQ(first.nodes.size(), second.nodes.size());

  EXPECT_EQ(counter(session, "sim.runs"), 1u);  // one real model evaluation
  EXPECT_EQ(counter(session, "sim.exact_cache_hits"), 1u);
  EXPECT_EQ(counter(session, "sim.exact_cache_misses"), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ExactRunCache, DetachedExecutorBypassesCacheCounters) {
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  obs::ObsSession session;
  ex.set_observer(&session);
  const auto w = *workloads::find_benchmark("TeaLeaf");
  (void)ex.run_exact(w, small_config(12));
  (void)ex.run_exact(w, small_config(12));
  EXPECT_EQ(counter(session, "sim.runs"), 2u);
  EXPECT_EQ(counter(session, "sim.exact_cache_hits"), 0u);
  EXPECT_EQ(counter(session, "sim.exact_cache_misses"), 0u);
}

TEST(ExactRunCache, EvictionKeepsTheBoundAndOnlyCostsARecompute) {
  sim::ExactRunCache cache(4);
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  ex.set_exact_cache(&cache);

  const auto w = *workloads::find_benchmark("CoMD");
  const sim::Measurement first = ex.run_exact(w, small_config(2));
  for (int threads : {4, 6, 8, 10, 12})  // five more distinct configs
    (void)ex.run_exact(w, small_config(threads));

  const sim::ExactCacheStats s = cache.stats();
  EXPECT_LE(s.entries, 4u);
  EXPECT_GE(s.evictions, 2u);

  // The first config was evicted (FIFO); querying it again recomputes the
  // same value.
  const sim::Measurement again = ex.run_exact(w, small_config(2));
  EXPECT_EQ(first.time.value(), again.time.value());
  EXPECT_EQ(first.energy.value(), again.energy.value());
}

TEST(ExactRunCache, ClearDropsEntriesButKeepsStatistics) {
  sim::ExactRunCache cache;
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  ex.set_exact_cache(&cache);
  const auto w = *workloads::find_benchmark("CoMD");
  (void)ex.run_exact(w, small_config(4));
  (void)ex.run_exact(w, small_config(4));
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  const auto m = ex.run_exact(w, small_config(4));
  EXPECT_GT(m.time.value(), 0.0);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// ------------------------------------------------------------ the oracle ----

TEST(OracleEngine, PrunedCachedSearchMatchesLegacyOptimum) {
  const auto w = *workloads::find_benchmark("SP-MZ");

  // Legacy shape: unpruned and uncached — the pre-engine behaviour.
  sim::SimExecutor legacy_ex(sim::MachineSpec{}, no_noise());
  baselines::OracleScheduler legacy(legacy_ex,
                                    baselines::OracleOptions{false});

  // Engine shape: pruned and cached.
  sim::SimExecutor fast_ex(sim::MachineSpec{}, no_noise());
  sim::ExactRunCache cache;
  fast_ex.set_exact_cache(&cache);
  baselines::OracleScheduler fast(fast_ex);

  for (double budget : {700.0, 1000.0}) {
    const sim::ClusterConfig a = legacy.plan(w, Watts(budget));
    const sim::ClusterConfig b = fast.plan(w, Watts(budget));
    // Pruning may pick a different configuration only on an exact tie, so
    // the contract is equality of the optimal *time*.
    EXPECT_EQ(legacy_ex.run_exact(w, a).time.value(),
              legacy_ex.run_exact(w, b).time.value())
        << "budget " << budget;
    EXPECT_LT(fast.last_search_cost(), legacy.last_search_cost())
        << "budget " << budget;
    EXPECT_GT(fast.last_search_cost(), 0);
  }
}

TEST(OracleEngine, MemosMakeBudgetSweepsCheaper) {
  const auto w = *workloads::find_benchmark("miniAero");
  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  sim::ExactRunCache cache;
  obs::ObsSession session;
  ex.set_exact_cache(&cache);
  ex.set_observer(&session);
  baselines::OracleScheduler oracle(ex);

  const sim::ClusterConfig first = oracle.plan(w, Watts(900.0));
  const int first_cost = oracle.last_search_cost();
  const std::uint64_t runs_first = counter(session, "sim.runs");
  (void)oracle.plan(w, Watts(1000.0));
  const std::uint64_t runs_second = counter(session, "sim.runs") - runs_first;
  // The uncapped bound runs are budget-independent, so the second budget
  // re-uses them from the scheduler's bound memo and evaluates strictly
  // less.
  EXPECT_LT(runs_second, runs_first);

  // Re-planning an identical budget is served by the plan memo: zero new
  // model evaluations, the same plan and the same reported search cost.
  const std::uint64_t runs_before_replay = counter(session, "sim.runs");
  const sim::ClusterConfig replay = oracle.plan(w, Watts(900.0));
  EXPECT_EQ(counter(session, "sim.runs"), runs_before_replay);
  EXPECT_EQ(replay.nodes, first.nodes);
  EXPECT_EQ(replay.node.threads, first.node.threads);
  EXPECT_EQ(replay.node.affinity, first.node.affinity);
  EXPECT_EQ(replay.node.mem_level, first.node.mem_level);
  EXPECT_EQ(replay.node.cpu_cap.value(), first.node.cpu_cap.value());
  EXPECT_EQ(replay.node.mem_cap.value(), first.node.mem_cap.value());
  EXPECT_EQ(replay.cpu_cap_overrides.size(), first.cpu_cap_overrides.size());
  EXPECT_EQ(oracle.last_search_cost(), first_cost);

  // set_options drops the plan memo, so the next replay searches again.
  oracle.set_options(baselines::OracleOptions{});
  const std::uint64_t runs_before_reset = counter(session, "sim.runs");
  (void)oracle.plan(w, Watts(900.0));
  EXPECT_GT(counter(session, "sim.runs"), runs_before_reset);

  // The memo is the pruned path's alone: an unpruned oracle's replay
  // searches again.
  baselines::OracleScheduler unpruned(ex, baselines::OracleOptions{false});
  (void)unpruned.plan(w, Watts(900.0));
  const std::uint64_t runs_before_unpruned_replay =
      counter(session, "sim.runs");
  (void)unpruned.plan(w, Watts(900.0));
  EXPECT_GT(counter(session, "sim.runs"), runs_before_unpruned_replay);
}

TEST(OracleEngine, PlansAndSearchCostsArePinned) {
  // The engine tests above compare optimal times; this pins *which* combos
  // a serial pruned search visits. Any change to the bound, the pruning
  // rule or the visiting order moves a plan on an exact tie or a reported
  // search cost, and with it this hash. One oracle serves the whole sweep,
  // so later budgets replay memoized bounds as a figure sweep does.
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the rendered text
  const auto feed = [&h](const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  };
  const auto record = [&](const sim::ClusterConfig& p, int cost) {
    char row[256];
    // clip-lint: allow(D3) %a renders every plan double bit for bit
    std::snprintf(row, sizeof(row), "%d,%d,%d,%d,%a,%a,%zu,%d;", p.nodes,
                  p.node.threads, static_cast<int>(p.node.affinity),
                  static_cast<int>(p.node.mem_level), p.node.cpu_cap.value(),
                  p.node.mem_cap.value(), p.cpu_cap_overrides.size(), cost);
    feed(row);
  };

  sim::SimExecutor ex(sim::MachineSpec{}, no_noise());
  baselines::OracleScheduler oracle(ex);
  for (const auto& w : workloads::paper_benchmarks()) {
    for (double budget : {500.0, 700.0, 1000.0, 1400.0, 5000.0}) {
      const sim::ClusterConfig p = oracle.plan(w, Watts(budget));
      record(p, oracle.last_search_cost());
    }
  }

  // Heterogeneous nodes: bound runs and frontiers take the per-node loop.
  sim::MachineSpec varied;
  varied.variability_sigma = 0.08;
  varied.variability_seed = 7;
  sim::SimExecutor varied_ex(varied, no_noise());
  baselines::OracleScheduler varied_oracle(varied_ex);
  for (const char* name : {"SP-MZ", "CoMD", "TeaLeaf"}) {
    const auto w = *workloads::find_benchmark(name);
    for (double budget : {700.0, 1400.0}) {
      const sim::ClusterConfig p = varied_oracle.plan(w, Watts(budget));
      record(p, varied_oracle.last_search_cost());
    }
  }
  EXPECT_EQ(h, 0xb0f455f86efd0e3bull) << std::hex << h;
}

// ------------------------------------------------- the comparison result ----

runtime::ComparisonCell make_cell(const std::string& app, double budget,
                                  const std::string& method, double rel) {
  runtime::ComparisonCell c;
  c.app = app;
  c.parameters = "C";
  c.budget_w = budget;
  c.method = method;
  c.relative_performance = rel;
  return c;
}

TEST(ComparisonResultIndex, FindLocatesCellsAndTracksGrowth) {
  runtime::ComparisonResult r;
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 1.0));
  r.cells.push_back(make_cell("b", 600.0, "CLIP", 2.0));

  const auto* cell = r.find("b", "C", 600.0, "CLIP");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->relative_performance, 2.0);
  EXPECT_EQ(r.find("a", "C", 700.0, "CLIP"), nullptr);
  EXPECT_EQ(r.find("a", "C", 600.0, "Oracle"), nullptr);

  // Growth after a lookup: the index rebuilds and sees the new cell.
  r.cells.push_back(make_cell("c", 700.0, "Oracle", 3.0));
  const auto* late = r.find("c", "C", 700.0, "Oracle");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->relative_performance, 3.0);
}

TEST(ComparisonResultIndex, FirstOccurrenceWinsLikeTheLinearScan) {
  runtime::ComparisonResult r;
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 1.5));
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 9.9));  // duplicate key
  const auto* cell = r.find("a", "C", 600.0, "CLIP");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->relative_performance, 1.5);
}

TEST(ComparisonResultIndex, MeanImprovementUsesTheIndexCorrectly) {
  runtime::ComparisonResult r;
  r.cells.push_back(make_cell("a", 600.0, "CLIP", 1.2));
  r.cells.push_back(make_cell("a", 600.0, "All-In", 1.0));
  r.cells.push_back(make_cell("b", 600.0, "CLIP", 1.5));
  r.cells.push_back(make_cell("b", 600.0, "All-In", 1.0));
  EXPECT_NEAR(r.mean_improvement("CLIP", "All-In"), (0.2 + 0.5) / 2.0, 1e-12);
  EXPECT_NEAR(r.mean_improvement("CLIP", "All-In", {600.0}),
              (0.2 + 0.5) / 2.0, 1e-12);
}

// --------------------------------------------------------- determinism ----

void register_methods(runtime::ComparisonHarness& harness,
                      sim::SimExecutor& ex) {
  harness.add_method(
      std::make_shared<baselines::AllInScheduler>(ex.spec()));
  harness.add_method(
      std::make_shared<baselines::LowerLimitScheduler>(ex.spec()));
  harness.add_method(
      std::make_shared<baselines::CoordinatedScheduler>(ex));
  harness.add_method(std::make_shared<baselines::ClipAdapter>(
      ex, workloads::training_benchmarks()));
  harness.add_method(std::make_shared<baselines::OracleScheduler>(ex));
}

/// Byte-exact serialization of a full result — what the bench CSVs are a
/// projection of.
std::string serialize(const runtime::ComparisonResult& r) {
  std::ostringstream os;
  for (const auto& c : r.cells) {
    char row[128];
    // clip-lint: allow(D3) %.17g is the full round-trip precision; this fingerprint reference must match the bench CSV bytes
    std::snprintf(row, sizeof(row), "%.17g,%.17g,%.17g\n", c.budget_w,
                  c.time_s, c.relative_performance);
    os << c.app << ',' << c.parameters << ',' << c.method << ',' << row;
  }
  return os.str();
}

TEST(EvalEngineDeterminism, CachedHarnessIsByteIdenticalToUncached) {
  // A fig8-shaped run: paper benchmarks × two high budgets × all five
  // methods. Side A runs without the exact-run cache; side B attaches one.
  // Fresh executors per side so the meter's noise stream starts from the
  // same seed.
  const std::vector<workloads::WorkloadSignature> apps(
      workloads::paper_benchmarks().begin(),
      workloads::paper_benchmarks().begin() + 5);
  const std::vector<double> budgets = {1000.0, 1200.0};

  sim::SimExecutor plain_ex{sim::MachineSpec{}};
  runtime::ComparisonHarness plain_harness(plain_ex);
  register_methods(plain_harness, plain_ex);
  const auto plain = plain_harness.run(apps, budgets);

  sim::SimExecutor cached_ex{sim::MachineSpec{}};
  sim::ExactRunCache cache;
  cached_ex.set_exact_cache(&cache);
  runtime::ComparisonHarness cached_harness(cached_ex);
  register_methods(cached_harness, cached_ex);
  const auto cached = cached_harness.run(apps, budgets);

  ASSERT_EQ(plain.cells.size(), cached.cells.size());
  EXPECT_EQ(serialize(plain), serialize(cached));
  EXPECT_GT(cache.stats().hits, 0u);
}

// ------------------------------------------------- knowledge-DB reuse ----

TEST(KnowledgeReuse, BudgetSweepProfilesEachApplicationOnce) {
  sim::SimExecutor ex{sim::MachineSpec{}};
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  obs::ObsSession session;
  sched.set_observer(&session);

  const auto w = *workloads::find_benchmark("BT-MZ");
  for (double budget : {600.0, 800.0, 1000.0, 1200.0})
    (void)sched.schedule(w, Watts(budget));

  EXPECT_LE(counter(session, "profiler.samples"), 3u);
  EXPECT_EQ(counter(session, "scheduler.db_misses"), 1u);
  EXPECT_EQ(counter(session, "scheduler.db_hits"), 3u);
}

TEST(KnowledgeReuse, SeededSchedulerSkipsProfilingEntirely) {
  sim::SimExecutor ex{sim::MachineSpec{}};
  const auto w = *workloads::find_benchmark("TeaLeaf");

  core::ClipScheduler first(ex, workloads::training_benchmarks());
  const auto original = first.schedule(w, Watts(800.0));

  core::ClipScheduler second(ex, workloads::training_benchmarks());
  obs::ObsSession session;
  second.set_observer(&session);
  EXPECT_GT(second.seed_knowledge_from(first.knowledge_db()), 0u);
  const auto seeded = second.schedule(w, Watts(800.0));

  EXPECT_EQ(counter(session, "profiler.samples"), 0u);
  EXPECT_EQ(counter(session, "scheduler.db_hits"), 1u);
  EXPECT_TRUE(seeded.from_knowledge_db);
  EXPECT_EQ(original.cluster.nodes, seeded.cluster.nodes);
  EXPECT_EQ(original.cluster.node.threads, seeded.cluster.node.threads);
}

TEST(KnowledgeReuse, MergeSkipsForeignAndExistingRecords) {
  core::KnowledgeDbShape here;
  here.machine_fingerprint = "machine-A";
  core::KnowledgeDb mine(here);
  core::KnowledgeRecord r;
  r.name = "app";
  r.parameters = "C";
  mine.insert(r);

  core::KnowledgeDb theirs(here);
  core::KnowledgeRecord same = r;  // existing key: kept, not overwritten
  theirs.insert(same);
  core::KnowledgeRecord fresh = r;
  fresh.parameters = "D";
  theirs.insert(fresh);

  core::KnowledgeDbShape elsewhere;
  elsewhere.machine_fingerprint = "machine-B";
  core::KnowledgeDb far(elsewhere);
  core::KnowledgeRecord foreign = r;
  foreign.parameters = "E";
  far.insert(foreign);  // stamped with machine-B

  EXPECT_EQ(mine.merge_from(theirs), 1u);   // only the "D" record is new
  EXPECT_EQ(mine.merge_from(far), 0u);      // foreign fingerprint rejected
  EXPECT_EQ(mine.size(), 2u);
}

}  // namespace
}  // namespace clip

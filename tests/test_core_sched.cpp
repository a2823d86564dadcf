// Unit tests for CLIP's decision layer: node config selector, cluster
// allocator (Algorithm 1), variability coordinator, scheduler facade.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "core/cluster_alloc.hpp"
#include "core/node_config.hpp"
#include "core/profiler.hpp"
#include "core/scheduler.hpp"
#include "core/variability_coord.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/catalog.hpp"
#include "workloads/random.hpp"

namespace clip::core {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

class SchedTest : public ::testing::Test {
 protected:
  sim::SimExecutor ex_{sim::MachineSpec{}, no_noise()};
  SmartProfiler profiler_{ex_};
  ScalabilityClassifier classifier_;
  NodeConfigSelector selector_{ex_.spec()};
  ClusterAllocator allocator_{ex_.spec(), selector_};

  [[nodiscard]] AppModels models(const ProfileData& p,
                                 workloads::ScalabilityClass cls,
                                 int np) const {
    return AppModels(ex_.spec(), p, cls, np);
  }
};

// ----------------------------------------------------------- node selector ----

TEST_F(SchedTest, LinearCandidatesAreAllCoresOnly) {
  const auto c =
      selector_.candidate_threads(workloads::ScalabilityClass::kLinear, 0);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.front(), 24);
}

TEST_F(SchedTest, LogarithmicCandidatesAreAllEvenCounts) {
  const auto c = selector_.candidate_threads(
      workloads::ScalabilityClass::kLogarithmic, 10);
  EXPECT_EQ(c.size(), 12u);
  EXPECT_EQ(c.front(), 2);
  EXPECT_EQ(c.back(), 24);
}

TEST_F(SchedTest, ParabolicCandidatesCappedAtInflection) {
  const auto c = selector_.candidate_threads(
      workloads::ScalabilityClass::kParabolic, 12);
  EXPECT_EQ(c.back(), 12);
  for (int t : c) EXPECT_LE(t, 12);
}

TEST_F(SchedTest, ParabolicWithoutInflectionThrows) {
  EXPECT_THROW((void)selector_.candidate_threads(
                   workloads::ScalabilityClass::kParabolic, 0),
               PreconditionError);
}

TEST_F(SchedTest, SelectorKeepsAllCoresForLinearUnderAnyBudget) {
  const auto w = *workloads::find_benchmark("CoMD");
  const ProfileData p = profiler_.profile(w);
  for (double budget : {60.0, 100.0, 160.0}) {
    const NodeDecision d = selector_.select(
        models(p, workloads::ScalabilityClass::kLinear, 0), Watts(budget));
    EXPECT_EQ(d.config.threads, 24) << budget;
  }
}

TEST_F(SchedTest, SelectorThrottlesLogarithmicAtLowBudget) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  ProfileData p = profiler_.profile(w);
  profiler_.validate_at(w, p, 10);
  const NodeDecision rich = selector_.select(
      models(p, workloads::ScalabilityClass::kLogarithmic, 10), Watts(170.0));
  const NodeDecision poor = selector_.select(
      models(p, workloads::ScalabilityClass::kLogarithmic, 10), Watts(70.0));
  EXPECT_EQ(rich.config.threads, 24);
  EXPECT_LE(poor.config.threads, rich.config.threads);
}

TEST_F(SchedTest, SelectorNeverExceedsInflectionForParabolic) {
  const auto w = *workloads::find_benchmark("SP-MZ");
  ProfileData p = profiler_.profile(w);
  profiler_.validate_at(w, p, 12);
  for (double budget : {70.0, 100.0, 140.0, 170.0}) {
    const NodeDecision d = selector_.select(
        models(p, workloads::ScalabilityClass::kParabolic, 12), Watts(budget));
    EXPECT_LE(d.config.threads, 12) << budget;
  }
}

TEST_F(SchedTest, SelectorSplitsBudgetBetweenDomains) {
  const auto w = *workloads::find_benchmark("TeaLeaf");
  ProfileData p = profiler_.profile(w);
  profiler_.validate_at(w, p, 12);
  const Watts budget(120.0);
  const NodeDecision d = selector_.select(
      models(p, workloads::ScalabilityClass::kParabolic, 12), budget);
  EXPECT_LE(d.config.cpu_cap.value() + d.config.mem_cap.value(),
            budget.value() + 1.0);
  EXPECT_GT(d.config.mem_cap.value(), 10.0);  // memory app needs DRAM watts
}

TEST_F(SchedTest, MemLevelMatchesDemand) {
  const auto stream = profiler_.profile(
      *workloads::find_benchmark("STREAM-Triad"));
  const PowerEstimator est_stream(ex_.spec(), stream);
  EXPECT_EQ(selector_.choose_mem_level(est_stream, 24,
                                       parallel::AffinityPolicy::kScatter),
            sim::MemPowerLevel::kL0);

  const auto ep = profiler_.profile(*workloads::find_benchmark("EP"));
  const PowerEstimator est_ep(ex_.spec(), ep);
  EXPECT_EQ(selector_.choose_mem_level(est_ep, 24,
                                       parallel::AffinityPolicy::kScatter),
            sim::MemPowerLevel::kL3);
}

TEST_F(SchedTest, ImpossibleBudgetThrows) {
  const auto w = *workloads::find_benchmark("CoMD");
  const ProfileData p = profiler_.profile(w);
  EXPECT_THROW(
      (void)selector_.select(
          models(p, workloads::ScalabilityClass::kLinear, 0), Watts(0.0)),
      PreconditionError);
}

// -------------------------------------------------------- cluster allocator ----

TEST_F(SchedTest, GenerousBudgetUsesAllNodes) {
  const auto w = *workloads::find_benchmark("CoMD");
  const ProfileData p = profiler_.profile(w);
  const ClusterDecision d = allocator_.allocate(
      models(p, workloads::ScalabilityClass::kLinear, 0), Watts(1500.0));
  EXPECT_EQ(d.nodes, 8);
}

TEST_F(SchedTest, NodeBudgetIsClusterShare) {
  const auto w = *workloads::find_benchmark("CoMD");
  const ProfileData p = profiler_.profile(w);
  const ClusterDecision d = allocator_.allocate(
      models(p, workloads::ScalabilityClass::kLinear, 0), Watts(1000.0));
  EXPECT_NEAR(d.node_budget.value(), 1000.0 / d.nodes, 1e-9);
}

TEST_F(SchedTest, PredefinedCountsAreRespected) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  ProfileData p = profiler_.profile(w);
  profiler_.validate_at(w, p, 10);
  for (double budget : {300.0, 500.0, 700.0, 1100.0}) {
    const ClusterDecision d = allocator_.allocate(
        models(p, workloads::ScalabilityClass::kLogarithmic, 10), Watts(budget),
        allocator_.power_of_two_counts());
    EXPECT_TRUE(d.nodes == 1 || d.nodes == 2 || d.nodes == 4 ||
                d.nodes == 8)
        << "budget=" << budget << " nodes=" << d.nodes;
  }
}

TEST_F(SchedTest, NodeCountGrowsWithBudget) {
  const auto w = *workloads::find_benchmark("CoMD");
  const ProfileData p = profiler_.profile(w);
  int prev_nodes = 0;
  for (double budget : {150.0, 400.0, 800.0, 1500.0}) {
    const ClusterDecision d = allocator_.allocate(
        models(p, workloads::ScalabilityClass::kLinear, 0), Watts(budget));
    EXPECT_GE(d.nodes, prev_nodes) << budget;
    prev_nodes = d.nodes;
  }
}

TEST_F(SchedTest, PowerOfTwoCountsHelper) {
  EXPECT_EQ(allocator_.power_of_two_counts(),
            (std::vector<int>{1, 2, 4, 8}));
}

TEST_F(SchedTest, StrictAlgorithm1UsesRangeBounds) {
  ClusterAllocator strict(ex_.spec(), selector_,
                          ClusterAllocOptions{.strict_algorithm1 = true});
  const auto w = *workloads::find_benchmark("BT-MZ");
  ProfileData p = profiler_.profile(w);
  profiler_.validate_at(w, p, 10);
  const ClusterDecision d = strict.allocate(
      models(p, workloads::ScalabilityClass::kLogarithmic, 10), Watts(600.0),
      allocator_.power_of_two_counts());
  // Algorithm 1: largest predefined count with share >= P_lo.
  EXPECT_EQ(d.nodes, 4);
}

TEST_F(SchedTest, ScoredAllocationNeverWorseThanStrict) {
  // The scored search includes every candidate the strict rule could pick,
  // so its *achieved* time must not be meaningfully worse.
  ClusterAllocator strict(ex_.spec(), selector_,
                          ClusterAllocOptions{.strict_algorithm1 = true});
  for (const char* name : {"BT-MZ", "SP-MZ", "CoMD"}) {
    const auto w = *workloads::find_benchmark(name);
    ProfileData p = profiler_.profile(w);
    const auto cls = classifier_.classify(p);
    int np = 0;
    if (cls != workloads::ScalabilityClass::kLinear) {
      np = 12;
      profiler_.validate_at(w, p, np);
    }
    for (double budget : {500.0, 900.0, 1300.0}) {
      const auto counts = w.has_predefined_process_counts
                              ? allocator_.power_of_two_counts()
                              : std::vector<int>{};
      const ClusterDecision scored =
          allocator_.allocate(models(p, cls, np), Watts(budget), counts);
      const ClusterDecision literal =
          strict.allocate(models(p, cls, np), Watts(budget), counts);
      auto run = [&](const ClusterDecision& d) {
        sim::ClusterConfig cfg;
        cfg.nodes = d.nodes;
        cfg.node = d.node.config;
        return ex_.run_exact(w, cfg).time.value();
      };
      EXPECT_LE(run(scored), run(literal) * 1.05)
          << name << " @" << budget;
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST_F(SchedTest, AllocatorDecisionIsTheSelectorsAtTheChosenShareBitForBit) {
  // The allocator prices every node count with one shared set of models;
  // the node decision it keeps must be exactly what a selector with
  // freshly built models picks at the chosen share. Low budgets push the
  // one-node share below the lowest DVFS state (clock modulation).
  Rng rng(0x5E1EC7);
  const double f_min = ex_.spec().ladder.relative(ex_.spec().ladder.min());
  int clock_modulated = 0;
  for (int i = 0; i < 24; ++i) {
    const workloads::WorkloadSignature w = workloads::random_signature(rng);
    ProfileData p = profiler_.profile(w);
    const auto cls = classifier_.classify(p);
    int np = 0;
    if (cls != workloads::ScalabilityClass::kLinear) {
      np = 2 * static_cast<int>(rng.uniform_int(1, 12));
      profiler_.validate_at(w, p, np);
    }
    const AppModels shared = models(p, cls, np);
    for (int b = 0; b < 6; ++b) {
      const double budget =
          b < 3 ? rng.uniform(30.0, 90.0) : rng.uniform(90.0, 1400.0);
      const ClusterDecision d = allocator_.allocate(shared, Watts(budget));
      const NodeDecision fresh = selector_.select(
          models(p, cls, np), Watts(budget / d.nodes));
      const std::string where = w.name + " @" + std::to_string(budget);
      EXPECT_EQ(d.node.config.threads, fresh.config.threads) << where;
      EXPECT_EQ(d.node.config.affinity, fresh.config.affinity) << where;
      EXPECT_EQ(d.node.config.mem_level, fresh.config.mem_level) << where;
      EXPECT_EQ(bits(d.node.config.cpu_cap.value()),
                bits(fresh.config.cpu_cap.value()))
          << where;
      EXPECT_EQ(bits(d.node.config.mem_cap.value()),
                bits(fresh.config.mem_cap.value()))
          << where;
      EXPECT_EQ(bits(d.node.f_rel_expected), bits(fresh.f_rel_expected))
          << where;
      EXPECT_EQ(bits(d.node.predicted_time.value()),
                bits(fresh.predicted_time.value()))
          << where;
      EXPECT_EQ(bits(d.node.predicted_power.value()),
                bits(fresh.predicted_power.value()))
          << where;
      if (d.node.f_rel_expected < f_min) ++clock_modulated;
    }
  }
  EXPECT_GT(clock_modulated, 0);  // the duty-cycle branch was exercised
}

TEST_F(SchedTest, LadderTableCpuPowerIsCpuPowerAtEveryState) {
  const sim::FrequencyLadder& ladder = ex_.spec().ladder;
  for (const char* name : {"CoMD", "STREAM-Triad", "SP-MZ"}) {
    const PowerEstimator est(
        ex_.spec(), profiler_.profile(*workloads::find_benchmark(name)));
    for (int threads = 1; threads <= ex_.spec().shape.total_cores();
         ++threads)
      for (const auto affinity : {parallel::AffinityPolicy::kCompact,
                                  parallel::AffinityPolicy::kScatter})
        for (std::size_t s = 0; s < ladder.state_count(); ++s)
          EXPECT_EQ(bits(est.cpu_power_at_state(threads, affinity, s).value()),
                    bits(est.cpu_power(threads, affinity,
                                       ladder.relative(ladder.states()[s]))
                             .value()))
              << name << " t=" << threads << " state=" << s;
  }
}

// ------------------------------------------------------------- variability ----

TEST(VariabilityCoord, SpreadComputation) {
  EXPECT_NEAR(VariabilityCoordinator::spread({1.0, 1.1}), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(VariabilityCoordinator::spread({1.0, 1.0, 1.0}), 0.0);
}

TEST(VariabilityCoord, BelowThresholdKeepsUniformCaps) {
  const VariabilityCoordinator coord;
  const auto caps = coord.coordinate(Watts(100.0), {1.0, 1.01, 0.995});
  EXPECT_TRUE(caps.empty());
}

TEST(VariabilityCoord, AboveThresholdShiftsWattsToInefficientNodes) {
  const VariabilityCoordinator coord;
  const std::vector<double> mult = {0.9, 1.1};
  const auto caps = coord.coordinate(Watts(100.0), mult);
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_LT(caps[0].value(), caps[1].value());  // hungry node gets more
  EXPECT_NEAR(caps[0].value() + caps[1].value(), 200.0, 1e-9);
}

TEST(VariabilityCoord, TotalBudgetPreserved) {
  const VariabilityCoordinator coord;
  const std::vector<double> mult = {0.92, 1.0, 1.05, 1.12};
  const auto caps = coord.coordinate(Watts(80.0), mult);
  double total = 0.0;
  for (auto c : caps) total += c.value();
  EXPECT_NEAR(total, 4 * 80.0, 1e-9);
}

TEST(VariabilityCoord, CoordinationEqualizesFrequencies) {
  sim::MachineSpec spec;
  spec.variability_sigma = 0.08;
  sim::SimExecutor ex(spec, no_noise());
  const auto w = *workloads::find_benchmark("CoMD");

  sim::ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.node.threads = 24;
  cfg.node.affinity = parallel::AffinityPolicy::kScatter;
  cfg.node.cpu_cap = Watts(95.0);
  cfg.node.mem_cap = Watts(40.0);

  const sim::Measurement uniform = ex.run_exact(w, cfg);

  const VariabilityCoordinator coord;
  coord.apply(cfg, ex.variability().multipliers());
  ASSERT_FALSE(cfg.cpu_cap_overrides.empty());
  const sim::Measurement coordinated = ex.run_exact(w, cfg);

  auto freq_spread = [](const sim::Measurement& m) {
    double lo = 1e9, hi = 0.0;
    for (const auto& n : m.nodes) {
      lo = std::min(lo, n.frequency.value());
      hi = std::max(hi, n.frequency.value());
    }
    return hi - lo;
  };
  EXPECT_LE(freq_spread(coordinated), freq_spread(uniform));
  EXPECT_LE(coordinated.time.value(), uniform.time.value() * 1.001);
}

TEST(VariabilityCoord, ApplyValidatesNodeCount) {
  const VariabilityCoordinator coord;
  sim::ClusterConfig cfg;
  cfg.nodes = 3;
  EXPECT_THROW(coord.apply(cfg, {1.0, 1.0}), PreconditionError);
}

// ---------------------------------------------------------------- scheduler ----

class SchedulerTest : public ::testing::Test {
 protected:
  sim::SimExecutor ex_{sim::MachineSpec{}, no_noise()};
  ClipScheduler sched_{ex_, workloads::training_benchmarks()};
};

TEST_F(SchedulerTest, DecisionIsExecutable) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  const ScheduleDecision d = sched_.schedule(w, Watts(800.0));
  EXPECT_NO_THROW((void)ex_.run_exact(w, d.cluster));
}

TEST_F(SchedulerTest, BudgetRespectedEndToEnd) {
  for (const auto& w : workloads::paper_benchmarks()) {
    for (double budget : {500.0, 900.0, 1300.0}) {
      const ScheduleDecision d = sched_.schedule(w, Watts(budget));
      const sim::Measurement m = ex_.run_exact(w, d.cluster);
      EXPECT_LE(m.avg_power.value(), budget * 1.01)
          << w.name << " @" << budget;
    }
  }
}

TEST_F(SchedulerTest, SecondScheduleHitsKnowledgeDb) {
  const auto w = *workloads::find_benchmark("SP-MZ");
  const ScheduleDecision first = sched_.schedule(w, Watts(800.0));
  EXPECT_FALSE(first.from_knowledge_db);
  EXPECT_GT(first.profiling_cost.value(), 0.0);
  const ScheduleDecision second = sched_.schedule(w, Watts(600.0));
  EXPECT_TRUE(second.from_knowledge_db);
  EXPECT_DOUBLE_EQ(second.profiling_cost.value(), 0.0);
}

TEST_F(SchedulerTest, CachedDecisionMatchesFreshDecision) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  const ScheduleDecision fresh = sched_.schedule(w, Watts(700.0));
  const ScheduleDecision cached = sched_.schedule(w, Watts(700.0));
  EXPECT_EQ(fresh.cluster.nodes, cached.cluster.nodes);
  EXPECT_EQ(fresh.cluster.node.threads, cached.cluster.node.threads);
  EXPECT_EQ(fresh.cls, cached.cls);
}

TEST_F(SchedulerTest, ClassesMatchTableII) {
  for (const auto& w : workloads::paper_benchmarks()) {
    const ScheduleDecision d = sched_.schedule(w, Watts(1000.0));
    EXPECT_EQ(d.cls, w.expected_class) << w.name;
  }
}

TEST_F(SchedulerTest, ParabolicAppsNeverRunAllCores) {
  for (const char* name : {"SP-MZ", "miniAero", "TeaLeaf"}) {
    const auto w = *workloads::find_benchmark(name);
    const ScheduleDecision d = sched_.schedule(w, Watts(1200.0));
    EXPECT_LT(d.cluster.node.threads, 24) << name;
    EXPECT_GT(d.inflection, 0) << name;
  }
}

TEST_F(SchedulerTest, LinearAppsRunAllCores) {
  for (const char* name : {"CoMD", "AMG", "miniMD"}) {
    const auto w = *workloads::find_benchmark(name);
    const ScheduleDecision d = sched_.schedule(w, Watts(1200.0));
    EXPECT_EQ(d.cluster.node.threads, 24) << name;
  }
}

TEST_F(SchedulerTest, DescribeMentionsClassAndCaching) {
  const auto w = *workloads::find_benchmark("TeaLeaf");
  const ScheduleDecision d = sched_.schedule(w, Watts(900.0));
  const std::string desc = d.describe();
  EXPECT_NE(desc.find("parabolic"), std::string::npos);
  EXPECT_NE(desc.find("freshly profiled"), std::string::npos);
}

TEST_F(SchedulerTest, ScheduleAndRunReturnsMeasurement) {
  const auto w = *workloads::find_benchmark("AMG");
  const sim::Measurement m = sched_.schedule_and_run(w, Watts(900.0));
  EXPECT_GT(m.time.value(), 0.0);
  EXPECT_FALSE(m.nodes.empty());
}

TEST(SchedulerConstruction, SchedulerAndExecutorAreNeitherCopiedNorMoved) {
  // Both point into themselves (the allocator at the scheduler's selector,
  // the RAPL solver at the executor's spec): a copy or a moved-to object
  // would read its source's members.
  static_assert(!std::is_copy_constructible_v<ClipScheduler>);
  static_assert(!std::is_move_constructible_v<ClipScheduler>);
  static_assert(!std::is_copy_assignable_v<ClipScheduler>);
  static_assert(!std::is_move_assignable_v<ClipScheduler>);
  static_assert(!std::is_copy_constructible_v<sim::SimExecutor>);
  static_assert(!std::is_move_constructible_v<sim::SimExecutor>);
  static_assert(!std::is_copy_assignable_v<sim::SimExecutor>);
  static_assert(!std::is_move_assignable_v<sim::SimExecutor>);
  SUCCEED();
}

TEST(SchedulerConstruction, EmptyTrainingSuiteThrows) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  EXPECT_THROW(ClipScheduler(ex, {}), PreconditionError);
}

TEST(SchedulerVariability, OverridesAppearOnHeterogeneousCluster) {
  sim::MachineSpec spec;
  spec.variability_sigma = 0.08;
  sim::SimExecutor ex(spec, no_noise());
  ClipScheduler sched(ex, workloads::training_benchmarks());
  const auto w = *workloads::find_benchmark("CoMD");
  const ScheduleDecision d = sched.schedule(w, Watts(800.0));
  EXPECT_FALSE(d.cluster.cpu_cap_overrides.empty());
}

}  // namespace
}  // namespace clip::core

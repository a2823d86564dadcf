// Tests for the extension features: phased workloads and phase-aware
// scheduling (§V-B1), the constrained runtime (§VII future work), and the
// power-aware job queue.
#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "runtime/queue.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"
#include "workloads/phases.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

class ExtensionTest : public ::testing::Test {
 protected:
  sim::SimExecutor ex_{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched_{ex_, workloads::training_benchmarks()};
};

/// `apps` as a job stream, CLIP picking every node count.
std::vector<runtime::QueueJob> as_jobs(
    const std::vector<workloads::WorkloadSignature>& apps) {
  std::vector<runtime::QueueJob> jobs;
  for (const auto& w : apps) jobs.push_back({w, 0});
  return jobs;
}

// --------------------------------------------------------- phased workloads ----

TEST(PhasedWorkload, CatalogEntriesValidate) {
  EXPECT_GE(workloads::phased_benchmarks().size(), 4u);
  for (const auto& p : workloads::phased_benchmarks())
    EXPECT_NO_THROW(p.validate());
}

TEST(PhasedWorkload, WeightsMustSumToOne) {
  workloads::PhasedWorkload p = workloads::phased_benchmarks().front();
  p.phases[0].weight += 0.1;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(PhasedWorkload, NeedsAtLeastTwoPhases) {
  workloads::PhasedWorkload p = workloads::phased_benchmarks().front();
  p.phases.resize(1);
  p.phases[0].weight = 1.0;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(PhasedWorkload, BlendAveragesByWeight) {
  const auto p = *workloads::find_phased("BT-MZ-phased");
  const auto blend = p.blended();
  double expected_m = 0.0;
  for (const auto& phase : p.phases)
    expected_m += phase.weight * phase.signature.memory_boundedness;
  EXPECT_NEAR(blend.memory_boundedness, expected_m, 1e-12);
  EXPECT_DOUBLE_EQ(blend.node_base_time_s, p.node_base_time_s);
  EXPECT_EQ(blend.name, "BT-MZ-phased");
}

TEST(PhasedWorkload, PhaseSignatureScalesWork) {
  const auto p = *workloads::find_phased("SP-MZ-phased");
  double total = 0.0;
  for (std::size_t i = 0; i < p.phases.size(); ++i)
    total += p.phase_signature(i).node_base_time_s;
  EXPECT_NEAR(total, p.node_base_time_s, 1e-9);
  EXPECT_THROW((void)p.phase_signature(99), PreconditionError);
}

TEST(PhasedWorkload, FindByName) {
  EXPECT_TRUE(workloads::find_phased("TeaLeaf-phased").has_value());
  EXPECT_FALSE(workloads::find_phased("nope").has_value());
}

// ---------------------------------------------------------- phased execution ----

TEST_F(ExtensionTest, PhasedRunSumsPhaseTimes) {
  const auto p = *workloads::find_phased("BT-MZ-phased");
  sim::PhasedClusterConfig cfg;
  cfg.nodes = 4;
  cfg.phase_nodes.assign(p.phases.size(), sim::NodeConfig{.threads = 16});
  const auto m = ex_.run_phased_exact(p, cfg);
  ASSERT_EQ(m.phases.size(), p.phases.size());
  double sum = 0.0, energy = 0.0;
  for (const auto& pm : m.phases) {
    sum += pm.time.value();
    energy += pm.energy.value();
  }
  EXPECT_NEAR(m.time.value(), sum, 1e-9);
  EXPECT_NEAR(m.energy.value(), energy, 1e-6);
  EXPECT_NEAR(m.avg_power.value(), energy / sum, 1e-9);
}

TEST_F(ExtensionTest, PhasedRunRequiresConfigPerPhase) {
  const auto p = *workloads::find_phased("BT-MZ-phased");
  sim::PhasedClusterConfig cfg;
  cfg.nodes = 4;
  cfg.phase_nodes.assign(1, sim::NodeConfig{});
  EXPECT_THROW((void)ex_.run_phased_exact(p, cfg), PreconditionError);
}

TEST_F(ExtensionTest, PhasedRunAppliesPerPhaseConfigs) {
  const auto p = *workloads::find_phased("BT-MZ-phased");
  sim::PhasedClusterConfig cfg;
  cfg.nodes = 4;
  sim::NodeConfig solve{.threads = 24};
  sim::NodeConfig exchange{.threads = 8};
  cfg.phase_nodes = {solve, exchange};
  const auto m = ex_.run_phased_exact(p, cfg);
  EXPECT_EQ(m.phases[0].threads, 24);
  EXPECT_EQ(m.phases[1].threads, 8);
}

// ----------------------------------------------------- phase-aware scheduling ----

TEST_F(ExtensionTest, PhaseAwareBeatsFlatOnEveryPhasedBenchmark) {
  for (const auto& p : workloads::phased_benchmarks()) {
    for (double budget : {600.0, 1000.0}) {
      const auto flat = sched_.schedule(p.blended(), Watts(budget));
      sim::PhasedClusterConfig flat_cfg;
      flat_cfg.nodes = flat.cluster.nodes;
      flat_cfg.phase_nodes.assign(p.phases.size(), flat.cluster.node);
      const auto flat_m = ex_.run_phased_exact(p, flat_cfg);

      const auto phased = sched_.schedule_phased(p, Watts(budget));
      const auto phased_m = ex_.run_phased_exact(p, phased.cluster);
      EXPECT_LT(phased_m.time.value(), flat_m.time.value() * 1.001)
          << p.name << " @" << budget;
    }
  }
}

TEST_F(ExtensionTest, PhaseAwareThrottlesTheExchangePhase) {
  const auto p = *workloads::find_phased("BT-MZ-phased");
  const auto d = sched_.schedule_phased(p, Watts(1000.0));
  ASSERT_EQ(d.cluster.phase_nodes.size(), 2u);
  // Solver scales; exchange saturates early and is contended.
  EXPECT_GT(d.cluster.phase_nodes[0].threads,
            d.cluster.phase_nodes[1].threads);
}

TEST_F(ExtensionTest, PhaseAwareRespectsBudget) {
  for (const auto& p : workloads::phased_benchmarks()) {
    const double budget = 800.0;
    const auto d = sched_.schedule_phased(p, Watts(budget));
    const auto m = ex_.run_phased_exact(p, d.cluster);
    for (const auto& pm : m.phases)
      EXPECT_LE(pm.avg_power.value(), budget * 1.01)
          << p.name << " phase " << pm.phase;
  }
}

TEST_F(ExtensionTest, PhaseClassesReported) {
  const auto p = *workloads::find_phased("SP-MZ-phased");
  const auto d = sched_.schedule_phased(p, Watts(1000.0));
  EXPECT_EQ(d.phase_classes.size(), p.phases.size());
  EXPECT_EQ(d.phase_inflections.size(), p.phases.size());
}

// --------------------------------------------------------- constrained mode ----

TEST_F(ExtensionTest, ConstrainedHonorsFixedNodes) {
  const auto w = *workloads::find_benchmark("CoMD");
  for (int nodes : {1, 3, 5, 8}) {
    const auto d = sched_.schedule_constrained(w, Watts(900.0), nodes);
    EXPECT_EQ(d.cluster.nodes, nodes);
  }
}

TEST_F(ExtensionTest, ConstrainedHonorsFixedThreads) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  const auto d = sched_.schedule_constrained(w, Watts(900.0), 4, 16);
  EXPECT_EQ(d.cluster.nodes, 4);
  EXPECT_EQ(d.cluster.node.threads, 16);
}

TEST_F(ExtensionTest, ConstrainedStillCoordinatesPower) {
  // Even with nodes+threads pinned, the CPU/DRAM split adapts to the app.
  const auto mem = *workloads::find_benchmark("TeaLeaf");
  const auto cpu = *workloads::find_benchmark("miniMD");
  const auto d_mem = sched_.schedule_constrained(mem, Watts(800.0), 4, 24);
  const auto d_cpu = sched_.schedule_constrained(cpu, Watts(800.0), 4, 24);
  EXPECT_GT(d_mem.cluster.node.mem_cap.value(),
            d_cpu.cluster.node.mem_cap.value());
}

TEST_F(ExtensionTest, ConstrainedRespectsBudget) {
  const auto w = *workloads::find_benchmark("SP-MZ");
  for (int nodes : {2, 4, 8}) {
    const auto d = sched_.schedule_constrained(w, Watts(700.0), nodes, 24);
    const auto m = ex_.run_exact(w, d.cluster);
    EXPECT_LE(m.avg_power.value(), 700.0 * 1.01) << nodes;
  }
}

TEST_F(ExtensionTest, UnconstrainedNeverWorseThanConstrained) {
  // Free CLIP must match-or-beat any fixed shape it could also have picked.
  const auto w = *workloads::find_benchmark("TeaLeaf");
  const double budget = 900.0;
  const double free_time =
      ex_.run_exact(w, sched_.schedule(w, Watts(budget)).cluster)
          .time.value();
  for (int nodes : {2, 4, 8}) {
    const auto d = sched_.schedule_constrained(w, Watts(budget), nodes, 24);
    EXPECT_LE(free_time,
              ex_.run_exact(w, d.cluster).time.value() * 1.01)
        << nodes;
  }
}

TEST_F(ExtensionTest, ConstrainedValidatesArguments) {
  const auto w = *workloads::find_benchmark("CoMD");
  EXPECT_THROW((void)sched_.schedule_constrained(w, Watts(900.0), 0),
               PreconditionError);
  EXPECT_THROW((void)sched_.schedule_constrained(w, Watts(900.0), 9),
               PreconditionError);
  EXPECT_THROW((void)sched_.schedule_constrained(w, Watts(900.0), 4, 25),
               PreconditionError);
}

// ----------------------------------------------------------------- job queue ----

TEST_F(ExtensionTest, QueueRunsEveryJob) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(800.0);
  const auto jobs = workloads::paper_benchmarks();
  runtime::QueueEventLoop queue(ex_, sched_, opt, as_jobs(jobs));
  const auto report = queue.run();
  ASSERT_EQ(report.jobs.size(), jobs.size());
  for (const auto& j : report.jobs) {
    EXPECT_GT(j.end_s, j.start_s) << j.app;
    EXPECT_GE(j.nodes, 1) << j.app;
  }
}

TEST_F(ExtensionTest, QueueNeverExceedsClusterBudgetOrNodes) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  runtime::QueueEventLoop queue(ex_, sched_, opt,
                                as_jobs(workloads::paper_benchmarks()));
  const auto report = queue.run();
  // Sweep time: at every job start, sum the power/nodes of overlapping jobs.
  for (const auto& a : report.jobs) {
    double watts = 0.0;
    int nodes = 0;
    for (const auto& b : report.jobs) {
      if (b.start_s <= a.start_s && a.start_s < b.end_s) {
        watts += b.budget_w;
        nodes += b.nodes;
      }
    }
    EXPECT_LE(watts, 700.0 * 1.001) << "at t=" << a.start_s;
    EXPECT_LE(nodes, ex_.spec().nodes) << "at t=" << a.start_s;
  }
}

TEST_F(ExtensionTest, PackingBeatsSerialAtTightBudgets) {
  const auto jobs = workloads::paper_benchmarks();
  const Watts budget(600.0);
  const auto serial =
      runtime::run_serially(ex_, sched_, budget, jobs);
  runtime::QueueOptions opt;
  opt.cluster_budget = budget;
  runtime::QueueEventLoop queue(ex_, sched_, opt, as_jobs(jobs));
  const auto packed = queue.run();
  EXPECT_LT(packed.makespan_s, serial.makespan_s);
  EXPECT_LE(packed.mean_turnaround_s, serial.mean_turnaround_s);
}

TEST_F(ExtensionTest, BackfillNeverHurtsMakespan) {
  const auto jobs = workloads::paper_benchmarks();
  runtime::QueueOptions strict;
  strict.cluster_budget = Watts(600.0);
  strict.backfill = false;
  runtime::QueueOptions backfill = strict;
  backfill.backfill = true;
  const double strict_makespan =
      runtime::QueueEventLoop(ex_, sched_, strict, as_jobs(jobs))
          .run()
          .makespan_s;
  const double backfill_makespan =
      runtime::QueueEventLoop(ex_, sched_, backfill, as_jobs(jobs))
          .run()
          .makespan_s;
  EXPECT_LE(backfill_makespan, strict_makespan * 1.001);
}

TEST_F(ExtensionTest, QueueReportAccounting) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(900.0);
  runtime::QueueEventLoop queue(
      ex_, sched_, opt,
      as_jobs({*workloads::find_benchmark("CoMD"),
               *workloads::find_benchmark("EP")}));
  const auto report = queue.run();
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_GT(report.total_energy_j, 0.0);
  EXPECT_GT(report.node_utilization(), 0.0);
  EXPECT_LE(report.node_utilization(), 1.0);
}

TEST_F(ExtensionTest, QueueValidatesInput) {
  runtime::QueueOptions opt;
  EXPECT_THROW(runtime::QueueEventLoop(ex_, sched_, opt, {}),
               PreconditionError);
  opt.cluster_budget = Watts(0.0);
  EXPECT_THROW(runtime::QueueEventLoop(ex_, sched_, opt,
                                       as_jobs(workloads::paper_benchmarks())),
               PreconditionError);
}

}  // namespace
}  // namespace clip

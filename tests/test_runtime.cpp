// Unit tests for the runtime module: jobs, launch scripts, the launcher with
// persistent knowledge DB, the comparison harness, telemetry (energy
// integral invariant + the Chrome-trace counter bridge), and rigid jobs
// (predefined node counts) in a running queue.
#include <gtest/gtest.h>

#include <unistd.h>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "baselines/all_in.hpp"
#include "baselines/lower_limit.hpp"
#include "obs/session.hpp"
#include "obs/sink.hpp"
#include "runtime/comparison.hpp"
#include "runtime/job.hpp"
#include "runtime/journal.hpp"
#include "runtime/launcher.hpp"
#include "runtime/queue.hpp"
#include "runtime/telemetry.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"

namespace clip::runtime {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

// --------------------------------------------------------------------- job ----

TEST(Job, LaunchScriptContainsConfiguration) {
  JobSpec spec;
  spec.app = *workloads::find_benchmark("BT-MZ");
  spec.cluster_budget = Watts(800.0);

  sim::ClusterConfig plan;
  plan.nodes = 4;
  plan.node.threads = 16;
  plan.node.affinity = parallel::AffinityPolicy::kScatter;
  plan.node.cpu_cap = Watts(110.0);
  plan.node.mem_cap = Watts(35.0);

  const std::string script = render_launch_script(spec, plan);
  EXPECT_NE(script.find("mpirun -np 4"), std::string::npos);
  EXPECT_NE(script.find("OMP_NUM_THREADS=16"), std::string::npos);
  EXPECT_NE(script.find("OMP_PROC_BIND=scatter"), std::string::npos);
  EXPECT_NE(script.find("--pkg-cap 110"), std::string::npos);
  EXPECT_NE(script.find("BT-MZ"), std::string::npos);
}

TEST(Job, LaunchScriptEmitsPerNodeOverrides) {
  JobSpec spec;
  spec.app = *workloads::find_benchmark("CoMD");
  spec.cluster_budget = Watts(400.0);
  sim::ClusterConfig plan;
  plan.nodes = 2;
  plan.node.cpu_cap = Watts(100.0);
  plan.cpu_cap_overrides = {Watts(95.0), Watts(105.0)};
  const std::string script = render_launch_script(spec, plan);
  EXPECT_NE(script.find("--pkg-cap 95"), std::string::npos);
  EXPECT_NE(script.find("--pkg-cap 105"), std::string::npos);
}

// ---------------------------------------------------------------- launcher ----

class LauncherTest : public ::testing::Test {
 protected:
  // One path per process: ctest -j runs each case as its own concurrent
  // process, and one case's TearDown would delete another's database.
  std::filesystem::path db_path_ =
      std::filesystem::temp_directory_path() /
      ("clip_launcher_db." + std::to_string(::getpid()) + ".csv");
  void SetUp() override { std::filesystem::remove(db_path_); }
  void TearDown() override { std::filesystem::remove(db_path_); }
};

TEST_F(LauncherTest, RunProducesMeasurementWithinBudget) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  Launcher launcher(ex, workloads::training_benchmarks());
  JobSpec spec;
  spec.app = *workloads::find_benchmark("SP-MZ");
  spec.cluster_budget = Watts(900.0);
  const JobResult result = launcher.run(spec);
  EXPECT_EQ(result.method, "CLIP");
  EXPECT_GT(result.performance(), 0.0);
  EXPECT_LE(result.measurement.avg_power.value(), 900.0 * 1.01);
  EXPECT_GT(result.scheduling_overhead.value(), 0.0);
}

TEST_F(LauncherTest, KnowledgePersistsAcrossLauncherInstances) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  JobSpec spec;
  spec.app = *workloads::find_benchmark("TeaLeaf");
  spec.cluster_budget = Watts(800.0);
  {
    Launcher first(ex, workloads::training_benchmarks(), db_path_);
    (void)first.run(spec);
  }
  EXPECT_TRUE(std::filesystem::exists(db_path_));
  // A new launcher loads the DB: the job is scheduled with zero profiling.
  Launcher second(ex, workloads::training_benchmarks(), db_path_);
  const JobResult cached = second.run(spec);
  EXPECT_DOUBLE_EQ(cached.scheduling_overhead.value(), 0.0);
}

TEST_F(LauncherTest, PlanScriptIsRenderable) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  Launcher launcher(ex, workloads::training_benchmarks());
  JobSpec spec;
  spec.app = *workloads::find_benchmark("AMG");
  spec.cluster_budget = Watts(700.0);
  const std::string script = launcher.plan_script(spec);
  EXPECT_NE(script.find("#!/bin/sh"), std::string::npos);
  EXPECT_NE(script.find("AMG"), std::string::npos);
}

// -------------------------------------------------------------- comparison ----

class ComparisonTest : public ::testing::Test {
 protected:
  sim::SimExecutor ex_{sim::MachineSpec{}, no_noise()};
};

TEST_F(ComparisonTest, ProducesOneCellPerAppBudgetMethod) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  h.add_method(std::make_shared<baselines::LowerLimitScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD"),
      *workloads::find_benchmark("BT-MZ")};
  const ComparisonResult r = h.run(apps, {600.0, 1000.0});
  EXPECT_EQ(r.cells.size(), 2u * 2u * 2u);
}

TEST_F(ComparisonTest, RelativePerformanceAgainstUnboundedAllIn) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD")};
  // At a huge budget All-In equals the unbounded reference: relative = 1.
  const ComparisonResult r = h.run(apps, {1e6});
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_NEAR(r.cells[0].relative_performance, 1.0, 1e-9);
}

TEST_F(ComparisonTest, MeanRelativeAggregates) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD"),
      *workloads::find_benchmark("miniMD")};
  const ComparisonResult r = h.run(apps, {800.0});
  const double mean = r.mean_relative("All-In", 800.0);
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 1.0);  // bounded run is slower than unbounded reference
}

TEST_F(ComparisonTest, FindReturnsNullForMissingCell) {
  ComparisonResult r;
  EXPECT_EQ(r.find("x", "", 1.0, "m"), nullptr);
}

TEST_F(ComparisonTest, MeanImprovementIsZeroAgainstItself) {
  ComparisonHarness h(ex_);
  h.add_method(std::make_shared<baselines::AllInScheduler>(ex_.spec()));
  const std::vector<workloads::WorkloadSignature> apps = {
      *workloads::find_benchmark("CoMD")};
  const ComparisonResult r = h.run(apps, {800.0});
  EXPECT_NEAR(r.mean_improvement("All-In", "All-In"), 0.0, 1e-12);
}

TEST_F(ComparisonTest, EmptyHarnessRejected) {
  ComparisonHarness h(ex_);
  EXPECT_THROW(
      (void)h.run({*workloads::find_benchmark("CoMD")}, {800.0}),
      PreconditionError);
  EXPECT_THROW(h.add_method(nullptr), PreconditionError);
}

// --------------------------------------------------------------- telemetry ----

TEST(TelemetryTest, EnergyIntegralReproducesMeasuredEnergy) {
  // The invariant telemetry.hpp documents: with meter noise off, the
  // rectangle-rule integral of the power series equals the job's measured
  // energy up to the final partial sample period.
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  const auto app = *workloads::find_benchmark("CoMD");
  sim::ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.node.threads = 16;
  const sim::Measurement m = ex.run_exact(app, cfg);

  TelemetryOptions opt;
  opt.noise_sigma = 0.0;
  const Telemetry telemetry(opt);
  const auto series = telemetry.record(m, cfg.node.threads);
  const double integral = Telemetry::energy_j(series, opt.sample_period_s);
  // One sample period of slack per node covers the truncated last interval.
  const double slack =
      m.avg_power.value() * opt.sample_period_s * (1.0 + cfg.nodes);
  EXPECT_NEAR(integral, m.energy.value(), slack);
}

TEST(TelemetryTest, TraceCounterBridgePreservesSeries) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  const auto app = *workloads::find_benchmark("SP-MZ");
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.threads = 8;
  const sim::Measurement m = ex.run_exact(app, cfg);

  TelemetryOptions opt;
  opt.noise_sigma = 0.0;
  const auto series = Telemetry(opt).record(m, cfg.node.threads);
  const auto counters = Telemetry::to_trace_counters(series);
  ASSERT_EQ(counters.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(counters[i].name,
              "power.node" + std::to_string(series[i].node));
    EXPECT_DOUBLE_EQ(counters[i].time_us, series[i].time_s * 1e6);
    ASSERT_EQ(counters[i].series.size(), 2u);
    EXPECT_EQ(counters[i].series[0].first, "cpu_w");
    EXPECT_DOUBLE_EQ(counters[i].series[0].second, series[i].cpu_power_w);
    EXPECT_EQ(counters[i].series[1].first, "mem_w");
    EXPECT_DOUBLE_EQ(counters[i].series[1].second, series[i].mem_power_w);
  }
}

// ------------------------------------------------------ rigid jobs, queued ----

QueueJob rigid(const char* app, int nodes) {
  return QueueJob{*workloads::find_benchmark(app), nodes};
}

QueueJob malleable(const char* app) { return rigid(app, 0); }

/// Hexfloat (`%a`) rendering of every report field admission can move:
/// bit-exact, so a pinned string shows any change in when, where or how a
/// job ran.
std::string hex_fingerprint(const QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.node_seconds_used;
  for (const QueuedJobResult& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes
       << ',' << j.budget_w << ',' << j.power_w << ',' << j.attempts;
  return os.str();
}

/// One queue run on a fresh testbed and scheduler. `warm` characterizes
/// every app first, as a long-lived site's knowledge DB would have; the
/// counters and spans then cover the queue run only. The meter is the
/// testbed's seeded noisy one, so the order in which apps are profiled
/// shows in every later decision.
struct RigidRun {
  QueueReport report;
  std::uint64_t schedules = 0;  ///< scheduler.schedules
  std::uint64_t db_misses = 0;  ///< scheduler.db_misses
  std::size_t try_starts = 0;   ///< queue.try_start spans
};

RigidRun run_rigid(const std::vector<QueueJob>& jobs, double budget_w,
                   bool backfill, bool warm) {
  sim::SimExecutor ex{sim::MachineSpec{}};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  if (warm)
    for (const QueueJob& j : jobs)
      (void)sched.schedule(j.app, Watts(budget_w));
  obs::ObsSession session;
  obs::MemorySink sink;
  session.set_sink(&sink);
  QueueOptions opt;
  opt.cluster_budget = Watts(budget_w);
  opt.backfill = backfill;
  PowerAwareJobQueue queue(ex, sched, opt);
  sched.set_observer(&session);
  queue.set_observer(&session);
  RigidRun out;
  out.report = queue.run(jobs);
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = session.metrics().find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  out.schedules = counter("scheduler.schedules");
  out.db_misses = counter("scheduler.db_misses");
  for (const obs::SpanRecord& s : sink.spans())
    out.try_starts += s.name == "queue.try_start" ? 1 : 0;
  return out;
}

// At 900 W the 6-node CoMD job leaves 2 nodes free, so the 4-node BT-MZ job
// behind it is blocked at t = 0 while the 2-node EP job would fit.
const std::vector<QueueJob>& blocked_stream() {
  static const std::vector<QueueJob> jobs = {
      rigid("CoMD", 6), rigid("BT-MZ", 4), rigid("EP", 2)};
  return jobs;
}

TEST(RigidQueue, BlockedJobStartsLaterOnExactlyItsRequestedNodes) {
  for (const bool backfill : {true, false}) {
    const QueueReport r =
        run_rigid(blocked_stream(), 900.0, backfill, true).report;
    ASSERT_EQ(r.jobs.size(), 3u);
    EXPECT_EQ(r.jobs[0].start_s, 0.0) << backfill;
    EXPECT_EQ(r.jobs[0].nodes, 6) << backfill;
    const QueuedJobResult& blocked = r.jobs[1];
    EXPECT_TRUE(blocked.completed) << backfill;
    EXPECT_EQ(blocked.nodes, 4) << backfill;
    EXPECT_GT(blocked.start_s, 0.0) << backfill;
    // It starts at the completion that freed its nodes.
    EXPECT_TRUE(blocked.start_s == r.jobs[0].end_s ||
                blocked.start_s == r.jobs[2].end_s)
        << backfill;
  }
}

TEST(RigidQueue, BlockedHeadStopsAStrictFcfsPass) {
  const QueueReport fcfs =
      run_rigid(blocked_stream(), 900.0, false, true).report;
  const QueueReport backfilled =
      run_rigid(blocked_stream(), 900.0, true, true).report;
  // EP fits beside CoMD at t = 0: backfill starts it there, strict FCFS
  // holds it behind the blocked BT-MZ.
  EXPECT_EQ(backfilled.jobs[2].start_s, 0.0);
  EXPECT_GT(fcfs.jobs[1].start_s, 0.0);
  EXPECT_GE(fcfs.jobs[2].start_s, fcfs.jobs[1].start_s);
}

TEST(RigidQueue, WarmBlockedJobIsNotPlannedWhileItWaits) {
  // Once an app is characterized, a rigid job that does not fit the free
  // nodes is rejected before planning: each start plans once.
  for (const bool backfill : {true, false}) {
    const RigidRun run = run_rigid(blocked_stream(), 900.0, backfill, true);
    EXPECT_EQ(run.db_misses, 0u) << backfill;
    EXPECT_EQ(run.schedules, 3u) << backfill;
  }
}

TEST(RigidQueue, AdmissionPassEndsWhenTheClusterIsFull) {
  // Each job takes all 8 nodes, so every pass starts one job and ends:
  // one try_start per job, not one per pending job per pass.
  const std::vector<QueueJob> jobs = {malleable("CoMD"), rigid("EP", 8),
                                      rigid("BT-MZ", 8), rigid("CoMD", 8),
                                      rigid("SP-MZ", 8)};
  const RigidRun run = run_rigid(jobs, 1500.0, true, true);
  std::set<double> starts;
  for (const QueuedJobResult& j : run.report.jobs) {
    EXPECT_EQ(j.nodes, 8) << j.app;
    starts.insert(j.start_s);
  }
  EXPECT_EQ(starts.size(), jobs.size());  // one at a time
  EXPECT_EQ(run.try_starts, jobs.size());
}

TEST(RigidQueue, CorruptRecordStillThrowsOnTheBlockedAttempt) {
  // The blocked BT-MZ job is not planned, but its record is still
  // validated, so a corrupt one throws on that attempt, as schedule()
  // would, before EP (behind it) is launched.
  sim::SimExecutor ex{sim::MachineSpec{}};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  for (const QueueJob& j : blocked_stream())
    (void)sched.schedule(j.app, Watts(900.0));
  const QueueJob& blocked = blocked_stream()[1];
  core::KnowledgeRecord bad = *sched.knowledge_db().lookup(
      blocked.app.name, blocked.app.parameters);
  bad.time_all_s = -1.0;  // physically impossible
  sched.knowledge_db().insert(bad);
  QueueOptions opt;
  opt.cluster_budget = Watts(900.0);
  PowerAwareJobQueue queue(ex, sched, opt);
  Journal journal;
  queue.set_journal(&journal);
  EXPECT_THROW((void)queue.run(blocked_stream()), PreconditionError);
  int launches = 0;
  for (const auto& rec : journal.records())
    launches += rec.kind == "launch" ? 1 : 0;
  EXPECT_EQ(launches, 1);  // CoMD only
}

TEST(RigidQueue, ColdDbBlockedFirstAttemptStillCharacterizes) {
  // BT-MZ's first attempt finds 2 free nodes and a cold knowledge DB: it is
  // still characterized there, before EP is. Profiling it later would draw
  // other meter noise and move every decision after it. The fingerprint,
  // recorded from a queue that planned every attempt, pins every start,
  // end, slice and draw bit for bit.
  const RigidRun run = run_rigid(blocked_stream(), 900.0, true, false);
  EXPECT_EQ(run.db_misses, 3u);
  EXPECT_EQ(hex_fingerprint(run.report),
            "0x1.f0f9aa2553884p+3|0x1.1084a645e9c35p+3|0x1.c346dfca9b6a2p+12|"
            "0x1.48a1e73dc4349p+6\n"
            "CoMD,0x0p+0,0x1.e4eb8af7e7abap+1,6,0x1.518p+9,"
            "0x1.489d0f0328421p+9,1\n"
            "BT-MZ,0x1.e4eb8af7e7abap+1,0x1.f0f9aa2553884p+3,4,0x1.518p+8,"
            "0x1.37d1dd444e975p+8,1\n"
            "EP,0x0p+0,0x1.8eb2cbdcdfadap+2,2,0x1.c2p+7,"
            "0x1.a43991181120ep+7,1");
}

}  // namespace
}  // namespace clip::runtime

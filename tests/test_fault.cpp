// Tests for the fault-injection subsystem (clip::fault) and the resilient
// runtime: plan validation and seeded generation, the injector's window
// resolution, the budget guard, crash/requeue/claw-back behavior of the
// power-aware queue, launcher degradation, and knowledge-DB hardening.
// All of it is seeded and deterministic — see docs/robustness.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scheduler.hpp"
#include "fault/budget_guard.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "runtime/launcher.hpp"
#include "runtime/queue.hpp"
#include "runtime/run_report.hpp"
#include "sim/executor.hpp"
#include "sim/power_meter.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "workloads/catalog.hpp"
#include "temp_path.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

/// Bit-exact textual fingerprint of a QueueReport (hexfloat doubles), for
/// byte-identity assertions.
std::string fingerprint(const runtime::QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.node_seconds_used << '|'
     << r.node_seconds_available << '|' << r.retries << '|' << r.jobs_failed
     << '|' << r.caps_reprogrammed << '|' << r.violation_s << '|'
     << r.violation_ws << '|' << r.meter_reads_rejected;
  for (int n : r.crashed_nodes) os << "|crash:" << n;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.parameters << ',' << j.submit_s << ','
       << j.start_s << ',' << j.end_s << ',' << j.nodes << ',' << j.budget_w
       << ',' << j.power_w << ',' << j.attempts << ',' << j.completed << ','
       << j.crashed_node;
  return os.str();
}

std::string metrics_fingerprint(obs::ObsSession& session) {
  std::ostringstream os;
  session.metrics().summary_table().print(os);
  return os.str();
}

/// One self-contained queue run: fresh executor/scheduler/queue so repeated
/// runs share no state (the knowledge DB warms per scheduler).
struct QueueRun {
  runtime::QueueReport report;
  std::string report_fp;
  std::string metrics_fp;
};

QueueRun run_queue(const std::vector<workloads::WorkloadSignature>& jobs,
                   runtime::QueueOptions opt,
                   const fault::FaultPlan* plan = nullptr) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  obs::ObsSession session;
  std::vector<runtime::QueueJob> queued;
  for (const auto& w : jobs) queued.push_back({w, 0});
  runtime::QueueEventLoop queue(ex, sched, opt, queued);
  queue.set_observer(&session);
  std::optional<fault::FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan, ex.spec().nodes);
    queue.set_fault_injector(&*injector);
  }
  QueueRun out;
  out.report = queue.run();
  out.report_fp = fingerprint(out.report);
  out.metrics_fp = metrics_fingerprint(session);
  return out;
}

std::uint64_t counter_of(obs::ObsSession& s, const char* name) {
  const auto* c = s.metrics().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

std::filesystem::path temp_file(const std::string& stem) {
  return unique_temp_path(stem, ".csv");
}

// ------------------------------------------------------------- fault plan ----

TEST(FaultPlan, ValidateRejectsOutOfRangeNode) {
  fault::FaultPlan plan;
  plan.crashes.push_back({99, 10.0});
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.crashes[0].node = -1;
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.crashes[0].node = 7;
  EXPECT_NO_THROW(plan.validate(8));
}

TEST(FaultPlan, ValidateRejectsBadFields) {
  fault::FaultPlan plan;
  plan.degrades.push_back({0, 5.0, 0.0});  // factor must be in (0, 1]
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.degrades[0].speed_factor = 1.5;
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.degrades.clear();
  plan.meter_faults.push_back({0, 5.0, -1.0, fault::MeterFaultKind::kDropout,
                               0.0});
  EXPECT_THROW(plan.validate(8), PreconditionError);
  plan.meter_faults.clear();
  plan.cap_violations.push_back({0, 5.0, 30.0, -40.0});
  EXPECT_THROW(plan.validate(8), PreconditionError);
}

TEST(FaultPlan, RandomIsSeedDeterministic) {
  const auto a = fault::FaultPlan::random(7, 8, 500.0);
  const auto b = fault::FaultPlan::random(7, 8, 500.0);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.size(), b.size());
  const auto c = fault::FaultPlan::random(8, 8, 500.0);
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, RandomHonorsShape) {
  fault::FaultPlanShape shape;
  shape.crashes = 2;
  shape.degrades = 3;
  shape.meter_faults = 4;
  shape.cap_violations = 5;
  const auto plan = fault::FaultPlan::random(1, 8, 1000.0, shape);
  EXPECT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.degrades.size(), 3u);
  EXPECT_EQ(plan.meter_faults.size(), 4u);
  EXPECT_EQ(plan.cap_violations.size(), 5u);
  EXPECT_FALSE(plan.empty());
  EXPECT_NO_THROW(plan.validate(8));
}

// ----------------------------------------------------------- retry policy ----

TEST(Retry, BackoffGrowsExponentially) {
  EXPECT_DOUBLE_EQ(fault::backoff_s(1), 5.0);
  EXPECT_DOUBLE_EQ(fault::backoff_s(2), 10.0);
  EXPECT_DOUBLE_EQ(fault::backoff_s(3), 20.0);
  EXPECT_THROW((void)fault::backoff_s(0), PreconditionError);
}

// --------------------------------------------------------------- injector ----

TEST(FaultInjector, ResolveCrashAbortsRun) {
  fault::FaultPlan plan;
  plan.crashes.push_back({2, 50.0});
  fault::FaultInjector inj(plan, 8);
  const auto res = inj.resolve(10.0, 100.0, {1, 2});
  EXPECT_TRUE(res.crashed);
  EXPECT_EQ(res.crashed_node, 2);
  EXPECT_DOUBLE_EQ(res.end_s, 50.0);
  // A run not holding the crashed node is untouched.
  const auto clean = inj.resolve(10.0, 100.0, {0, 3});
  EXPECT_FALSE(clean.crashed);
  EXPECT_DOUBLE_EQ(clean.end_s, 110.0);
  EXPECT_TRUE(inj.node_crashed(2, 60.0));
  EXPECT_FALSE(inj.node_crashed(2, 40.0));
}

TEST(FaultInjector, ResolveDegradeStretchesPiecewise) {
  fault::FaultPlan plan;
  plan.degrades.push_back({1, 50.0, 0.5});
  fault::FaultInjector inj(plan, 8);
  // 100 s of work from t=0: 50 s at full rate, the remaining 50 s of work
  // at half speed takes 100 s -> ends at 150.
  const auto res = inj.resolve(0.0, 100.0, {1});
  EXPECT_FALSE(res.crashed);
  EXPECT_DOUBLE_EQ(res.end_s, 150.0);
  EXPECT_DOUBLE_EQ(res.slowdown, 1.5);
  // A job started after the degrade runs at the degraded rate throughout.
  const auto after = inj.resolve(100.0, 100.0, {1});
  EXPECT_DOUBLE_EQ(after.end_s, 300.0);
  // The job paces at its slowest node even when healthy nodes are held too.
  const auto mixed = inj.resolve(100.0, 100.0, {0, 1});
  EXPECT_DOUBLE_EQ(mixed.end_s, 300.0);
}

TEST(FaultInjector, WorkDoneInvertsResolve) {
  // work_done_s runs resolve's stretching backwards: by its resolved end a
  // placement has done exactly the work it was given, whether its nodes
  // degrade before, during or after the run, singly or stacked.
  fault::FaultPlanShape shape;
  shape.crashes = 0;
  shape.meter_faults = 0;
  shape.cap_violations = 0;
  Rng rng(0x1A7Eu);
  int stretched = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    shape.degrades = static_cast<int>(seed % 6) + 1;
    const fault::FaultInjector inj(
        fault::FaultPlan::random(seed, 8, 400.0, shape), 8);
    for (int trial = 0; trial < 10; ++trial) {
      const double start = rng.uniform(0.0, 300.0);
      const double work = rng.uniform(1.0, 200.0);
      std::vector<int> nodes;
      for (int n = 0; n < 8; ++n)
        if (rng.uniform() < 0.4) nodes.push_back(n);
      if (nodes.empty()) nodes.push_back(trial % 8);
      const fault::RunResolution res = inj.resolve(start, work, nodes);
      ASSERT_FALSE(res.crashed);
      if (res.end_s > start + work) ++stretched;
      EXPECT_NEAR(inj.work_done_s(start, res.end_s, nodes), work,
                  1e-12 * work)
          << "seed " << seed << " trial " << trial;
    }
  }
  EXPECT_GT(stretched, 50);  // the degrades really stretched most runs
}

TEST(FaultInjector, MeterCorruptionIsWindowed) {
  fault::FaultPlan plan;
  plan.meter_faults.push_back(
      {3, 100.0, 50.0, fault::MeterFaultKind::kStuckAt, 77.0});
  plan.meter_faults.push_back(
      {4, 100.0, 50.0, fault::MeterFaultKind::kDropout, 0.0});
  plan.meter_faults.push_back(
      {5, 100.0, 50.0, fault::MeterFaultKind::kSpike, 10.0});
  fault::FaultInjector inj(plan, 8);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(3, 120.0, 200.0), 77.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(4, 120.0, 200.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(5, 120.0, 200.0), 2000.0);
  // Outside the window — and on unaffected nodes — truth passes through.
  EXPECT_DOUBLE_EQ(inj.observed_node_power(3, 99.0, 200.0), 200.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(3, 150.0, 200.0), 200.0);
  EXPECT_DOUBLE_EQ(inj.observed_node_power(0, 120.0, 200.0), 200.0);
}

TEST(FaultInjector, CapExcessTruncationAndViolatingNodes) {
  fault::FaultPlan plan;
  plan.cap_violations.push_back({2, 100.0, 200.0, 40.0});
  fault::FaultInjector inj(plan, 8);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({2}, 150.0), 40.0);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({3}, 150.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({2}, 99.0), 0.0);
  EXPECT_EQ(inj.violating_nodes({1, 2, 3}, 150.0), std::vector<int>{2});
  // Claw-back truncates the window at the enforcement instant.
  EXPECT_EQ(inj.truncate_cap_violations(2, 150.0), 1);
  EXPECT_DOUBLE_EQ(inj.cap_excess_w({2}, 151.0), 0.0);
  EXPECT_TRUE(inj.violating_nodes({1, 2, 3}, 151.0).empty());
  EXPECT_EQ(inj.truncate_cap_violations(2, 160.0), 0);
}

TEST(FaultInjector, WakeupsAreSortedWindowEdges) {
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 300.0});
  plan.meter_faults.push_back(
      {1, 100.0, 50.0, fault::MeterFaultKind::kDropout, 0.0});
  plan.cap_violations.push_back({2, 200.0, 40.0, 30.0});
  fault::FaultInjector inj(plan, 8);
  const std::vector<double> expect = {100.0, 150.0, 200.0, 240.0, 300.0};
  EXPECT_EQ(inj.wakeups(), expect);
}

// ------------------------------------------------------------ budget guard ----

TEST(BudgetGuard, FiltersImplausibleReadings) {
  // Plausible: [kMinPlausibleNodeW, the 500 W ceiling passed in].
  fault::BudgetGuard guard(fault::BudgetGuardOptions{}, Watts(1000.0), 500.0);
  EXPECT_DOUBLE_EQ(guard.filter_reading(120.0, 100.0), 120.0);
  EXPECT_DOUBLE_EQ(guard.filter_reading(500.0, 100.0), 500.0);
  EXPECT_DOUBLE_EQ(guard.filter_reading(0.0, 100.0), 100.0);     // dropout
  EXPECT_DOUBLE_EQ(guard.filter_reading(2400.0, 100.0), 100.0);  // spike
  EXPECT_EQ(guard.rejected_reads(), 2u);
}

TEST(BudgetGuard, OvershootAndAccounting) {
  fault::BudgetGuard guard(fault::BudgetGuardOptions{}, Watts(1000.0), 500.0);
  EXPECT_FALSE(guard.overshoot(999.0));
  EXPECT_FALSE(guard.overshoot(1000.0));
  EXPECT_TRUE(guard.overshoot(1040.0));
  guard.account(10.0, 900.0);   // under budget: nothing accrues
  guard.account(5.0, 1040.0);   // 40 W over for 5 s
  EXPECT_DOUBLE_EQ(guard.violation_s(), 5.0);
  EXPECT_DOUBLE_EQ(guard.violation_ws(), 200.0);
}

// --------------------------------------------------------- resilient queue ----

TEST(ResilientQueue, EmptyPlanIsByteIdenticalToNoInjector) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const auto jobs = workloads::paper_benchmarks();
  const QueueRun plain = run_queue(jobs, opt);
  const fault::FaultPlan empty;
  const QueueRun faulted = run_queue(jobs, opt, &empty);
  EXPECT_EQ(plain.report_fp, faulted.report_fp);
  EXPECT_EQ(plain.report.retries, 0);
  EXPECT_EQ(faulted.report.retries, 0);
  EXPECT_EQ(faulted.report.violation_s, 0.0);
  EXPECT_EQ(faulted.report.jobs_completed(), jobs.size());
}

TEST(ResilientQueue, SurvivesTwoOfEightNodeCrashes) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const auto jobs = workloads::paper_benchmarks();
  const QueueRun baseline = run_queue(jobs, opt);
  const double makespan = baseline.report.makespan_s;
  ASSERT_GT(makespan, 0.0);

  fault::FaultPlan plan;
  plan.crashes.push_back({2, 0.25 * makespan});
  plan.crashes.push_back({5, 0.5 * makespan});

  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  obs::ObsSession session;
  std::vector<runtime::QueueJob> queued;
  for (const auto& w : jobs) queued.push_back({w, 0});
  runtime::QueueEventLoop queue(ex, sched, opt, queued);
  queue.set_observer(&session);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);
  const auto report = queue.run();

  // Acceptance scenario: every job completes despite losing 2 of 8 nodes.
  EXPECT_EQ(report.jobs_completed(), jobs.size());
  EXPECT_EQ(report.jobs_failed, 0);
  EXPECT_EQ(report.crashed_nodes.size(), 2u);
  EXPECT_LE(report.retries,
            static_cast<int>(jobs.size()) * fault::kMaxAttempts);
  // No cap violations were injected, so the bound held throughout.
  EXPECT_DOUBLE_EQ(report.violation_s, 0.0);
  // Note: makespan may go *either* way — power, not nodes, is the binding
  // constraint, so concentrating 700 W on 6 survivors can speed jobs up.
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_TRUE(std::isfinite(report.makespan_s));
  // Reserved power never exceeds the budget at any start instant.
  for (const auto& a : report.jobs) {
    double watts = 0.0;
    for (const auto& b : report.jobs)
      if (b.start_s <= a.start_s && a.start_s < b.end_s) watts += b.budget_w;
    EXPECT_LE(watts, 700.0 * 1.001) << "at t=" << a.start_s;
  }
  EXPECT_EQ(counter_of(session, "fault.crashes"), 2u);
  EXPECT_EQ(counter_of(session, "queue.retries"),
            static_cast<std::uint64_t>(report.retries));
}

TEST(ResilientQueue, AllNodesDeadMarksJobsFailed) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  fault::FaultPlan plan;
  for (int n = 0; n < 8; ++n) plan.crashes.push_back({n, 5.0});
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP")};
  const QueueRun run = run_queue(jobs, opt, &plan);
  // Every job is accounted for: completed or failed, nothing in limbo.
  EXPECT_EQ(run.report.jobs_completed() +
                static_cast<std::size_t>(run.report.jobs_failed),
            jobs.size());
  EXPECT_EQ(run.report.jobs_failed, static_cast<int>(jobs.size()));
  EXPECT_EQ(run.report.crashed_nodes.size(), 8u);
  for (const auto& j : run.report.jobs) {
    EXPECT_FALSE(j.completed);
    EXPECT_LE(j.attempts, fault::kMaxAttempts);
  }
}

TEST(ResilientQueue, GuardClawsBackCapViolation) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  fault::FaultPlan plan;
  plan.cap_violations.push_back({0, 1.0, 1e6, 100.0});  // effectively forever
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP"),
      *workloads::find_benchmark("LULESH")};
  const QueueRun run = run_queue(jobs, opt, &plan);
  EXPECT_EQ(run.report.jobs_completed(), jobs.size());
  // The guard detected the overshoot and re-programmed the cap...
  EXPECT_GE(run.report.caps_reprogrammed, 1);
  // ...so the violation lasted about the reaction latency, not the window.
  EXPECT_GT(run.report.violation_s, 0.0);
  EXPECT_LE(run.report.violation_s, 10.0 * opt.guard.reaction_s);
  EXPECT_GT(run.report.violation_ws, 0.0);
}

TEST(ResilientQueue, MeterDropoutDoesNotTriggerFalseReaction) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  fault::FaultPlan plan;
  plan.meter_faults.push_back(
      {0, 0.0, 1e6, fault::MeterFaultKind::kDropout, 0.0});
  plan.meter_faults.push_back(
      {1, 0.0, 1e6, fault::MeterFaultKind::kSpike, 50.0});
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP")};
  const QueueRun run = run_queue(jobs, opt, &plan);
  EXPECT_EQ(run.report.jobs_completed(), jobs.size());
  // Implausible readings were filtered instead of believed...
  EXPECT_GT(run.report.meter_reads_rejected, 0u);
  // ...so no cap was clawed back and no violation was recorded.
  EXPECT_EQ(run.report.caps_reprogrammed, 0);
  EXPECT_DOUBLE_EQ(run.report.violation_s, 0.0);
}

TEST(ResilientQueue, DegradeStretchesMakespan) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const std::vector<workloads::WorkloadSignature> jobs = {
      *workloads::find_benchmark("CoMD"), *workloads::find_benchmark("EP")};
  const QueueRun baseline = run_queue(jobs, opt);
  fault::FaultPlan plan;
  for (int n = 0; n < 8; ++n) plan.degrades.push_back({n, 0.0, 0.5});
  const QueueRun degraded = run_queue(jobs, opt, &plan);
  EXPECT_EQ(degraded.report.jobs_completed(), jobs.size());
  EXPECT_GT(degraded.report.makespan_s, baseline.report.makespan_s * 1.5);
}

TEST(ResilientQueue, SameSeedIsByteIdenticalAcrossRuns) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const auto jobs = workloads::paper_benchmarks();
  fault::FaultPlanShape shape;
  shape.crashes = 2;
  shape.cap_violations = 2;
  const auto plan = fault::FaultPlan::random(42, 8, 2000.0, shape);
  const QueueRun a = run_queue(jobs, opt, &plan);
  const QueueRun b = run_queue(jobs, opt, &plan);
  EXPECT_EQ(a.report_fp, b.report_fp);
  EXPECT_EQ(a.metrics_fp, b.metrics_fp);
}

TEST(ResilientQueue, ValidationNamesTheOffendingField) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  const auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const PreconditionError& e) {
      return e.what();
    }
    return {};
  };
  const std::vector<runtime::QueueJob> ep = {
      runtime::QueueJob{*workloads::find_benchmark("EP"), 0}};
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(0.0);
  EXPECT_NE(message_of([&] {
              runtime::QueueEventLoop q(ex, sched, opt, ep);
            }).find("cluster_budget"),
            std::string::npos);
  opt.cluster_budget = Watts(-5.0);
  EXPECT_NE(message_of([&] {
              runtime::QueueEventLoop q(ex, sched, opt, ep);
            }).find("cluster_budget"),
            std::string::npos);
  opt.cluster_budget = Watts(100.0);
  opt.min_node_power_w = -1.0;
  EXPECT_NE(message_of([&] {
              runtime::QueueEventLoop q(ex, sched, opt, ep);
            }).find("min_node_power_w"),
            std::string::npos);
  opt.min_node_power_w = 200.0;  // exceeds the 100 W budget
  EXPECT_NE(message_of([&] {
              runtime::QueueEventLoop q(ex, sched, opt, ep);
            }).find("min_node_power_w"),
            std::string::npos);
  runtime::QueueOptions ok;
  ok.cluster_budget = Watts(700.0);
  const std::string msg = message_of([&] {
    runtime::QueueEventLoop q(
        ex, sched, ok,
        {runtime::QueueJob{*workloads::find_benchmark("EP"), 99}});
  });
  EXPECT_NE(msg.find("requested_nodes"), std::string::npos);
  EXPECT_NE(msg.find("99"), std::string::npos);
}

TEST(ResilientQueue, RequestedNodesIsHonored) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(900.0);
  runtime::QueueEventLoop queue(
      ex, sched, opt, {runtime::QueueJob{*workloads::find_benchmark("CoMD"), 2}});
  const auto report = queue.run();
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].nodes, 2);
  EXPECT_TRUE(report.jobs[0].completed);
}

// ----------------------------------------------------- launcher degradation ----

TEST(LauncherResilience, FallsBackOnCorruptKnowledgeRecord) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  runtime::Launcher launcher(ex, workloads::training_benchmarks());
  obs::ObsSession session;
  launcher.set_observer(&session);

  const auto app = *workloads::find_benchmark("CoMD");
  core::KnowledgeRecord bad;
  bad.name = app.name;
  bad.parameters = app.parameters;
  bad.perf_ratio = -1.0;  // physically impossible
  bad.time_all_s = 10.0;
  bad.time_half_s = 14.0;
  bad.cpu_power_all_w = 150.0;
  launcher.scheduler().knowledge_db().insert(bad);

  runtime::JobSpec spec;
  spec.app = app;
  spec.cluster_budget = Watts(700.0);
  const auto result = launcher.run(spec);
  EXPECT_EQ(result.method, "CLIP-fallback");
  EXPECT_GT(result.measurement.time.value(), 0.0);
  // Conservative degraded-mode shape: half the nodes, all cores.
  EXPECT_EQ(result.plan.nodes, ex.spec().nodes / 2);
  EXPECT_EQ(result.plan.node.threads, ex.spec().shape.total_cores());
  EXPECT_EQ(counter_of(session, "runtime.fallbacks"), 1u);

  // A healthy app on the same launcher still schedules normally.
  runtime::JobSpec healthy;
  healthy.app = *workloads::find_benchmark("EP");
  healthy.cluster_budget = Watts(700.0);
  EXPECT_EQ(launcher.run(healthy).method, "CLIP");
}

TEST(LauncherResilience, UserErrorsStillThrow) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  runtime::Launcher launcher(ex, workloads::training_benchmarks());
  runtime::JobSpec spec;
  spec.app = *workloads::find_benchmark("CoMD");
  spec.cluster_budget = Watts(-100.0);
  EXPECT_THROW((void)launcher.run(spec), PreconditionError);
}

TEST(LauncherResilience, SurvivesCorruptDbFileAtConstruction) {
  const auto path = temp_file("clip_test_fault_corrupt_db");
  {
    std::ofstream os(path);
    os << "not,a,knowledge,db\n1,2,3\n";
  }
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  runtime::Launcher launcher(ex, workloads::training_benchmarks(), path);
  EXPECT_FALSE(launcher.db_load_error().empty());
  EXPECT_EQ(launcher.scheduler().knowledge_db().size(), 0u);
  // The launcher still works: the app simply re-characterizes.
  runtime::JobSpec spec;
  spec.app = *workloads::find_benchmark("EP");
  spec.cluster_budget = Watts(700.0);
  EXPECT_EQ(launcher.run(spec).method, "CLIP");
  std::filesystem::remove(path);
}

// ------------------------------------------------------ knowledge-DB hardening ----

class KnowledgeDbHardening : public ::testing::Test {
 protected:
  void SetUp() override {
    core::KnowledgeRecord r;
    r.name = "app";
    r.parameters = "n=1";
    r.perf_ratio = 0.6;
    r.time_all_s = 10.0;
    r.time_half_s = 16.0;
    r.cpu_power_all_w = 150.0;
    r.mem_power_all_w = 20.0;
    db_.insert(r);
    r.parameters = "n=2";
    db_.insert(r);
    path_ = temp_file("clip_test_fault_kdb");
    db_.save(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Load must throw and leave the two staged records untouched.
  void expect_rejected() {
    EXPECT_THROW(db_.load(path_), PreconditionError);
    EXPECT_EQ(db_.size(), 2u);
    EXPECT_TRUE(db_.lookup("app", "n=1").has_value());
    EXPECT_TRUE(db_.lookup("app", "n=2").has_value());
  }

  core::KnowledgeDb db_;
  std::filesystem::path path_;
};

TEST_F(KnowledgeDbHardening, RoundTripStillWorks) {
  core::KnowledgeDb fresh;
  fresh.load(path_);
  EXPECT_EQ(fresh.size(), 2u);
}

TEST_F(KnowledgeDbHardening, EmptyFileRejectsCleanly) {
  std::ofstream(path_, std::ios::trunc).close();
  expect_rejected();
}

TEST_F(KnowledgeDbHardening, WrongColumnCountRejectsCleanly) {
  std::ofstream os(path_, std::ios::trunc);
  os << "name,parameters,class\napp,n=3,linear\n";
  os.close();
  expect_rejected();
}

TEST_F(KnowledgeDbHardening, PartialLastLineRejectsCleanly) {
  // Truncate the file mid-row, as a crashed writer would leave it.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 30);
  expect_rejected();
}

TEST_F(KnowledgeDbHardening, GarbageNumericRejectsWithRowContext) {
  // Corrupt one numeric field in an otherwise well-formed file.
  std::ifstream is(path_);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  is.close();
  const auto pos = content.find("0.600000");
  ASSERT_NE(pos, std::string::npos);
  content.replace(pos, 8, "garbage!");
  std::ofstream os(path_, std::ios::trunc);
  os << content;
  os.close();
  try {
    db_.load(path_);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("row"), std::string::npos) << msg;
    EXPECT_NE(msg.find("garbage!"), std::string::npos) << msg;
  }
  EXPECT_EQ(db_.size(), 2u);
}

TEST_F(KnowledgeDbHardening, MalformedCellRejectsNamingFileRowAndColumn) {
  // Cells std::stod plus an int cast used to take: a numeric prefix with a
  // suffix, a fraction or an out-of-range exponent in an integer column,
  // and nan where an integer belongs.
  struct Cell {
    std::size_t col;
    const char* column;
    const char* text;
  };
  const Cell cells[] = {{4, "perf_ratio", "0.85abc"},
                        {3, "inflection", "12.7"},
                        {3, "inflection", "1e10"},
                        {12, "validation_threads", "nan"}};
  const CsvDocument saved = read_csv(path_);
  for (const Cell& c : cells) {
    SCOPED_TRACE(std::string(c.column) + " = " + c.text);
    CsvDocument doc = saved;
    doc.rows[1][c.col] = c.text;
    write_csv(path_, doc);
    try {
      db_.load(path_);
      ADD_FAILURE() << "expected PreconditionError";
    } catch (const PreconditionError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path_.string()), std::string::npos) << msg;
      EXPECT_NE(msg.find("row 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'" + std::string(c.column) + "'"),
                std::string::npos)
          << msg;
    }
    EXPECT_EQ(db_.size(), 2u);
    EXPECT_TRUE(db_.lookup("app", "n=1").has_value());
    EXPECT_TRUE(db_.lookup("app", "n=2").has_value());
  }
}

// ------------------------------------------- flight recorder integration ----

/// Runs the acceptance scenario (2-of-8 crashes plus one guarded cap
/// violation) with the flight recorder attached and persists the run record.
/// When $CLIP_FLIGHT_DIR is set (as scripts/ci.sh does), the record is also
/// written there, so a red ctest leaves the telemetry behind as an artifact.
struct FlightRecordedRun {
  runtime::QueueReport report;
  obs::Timeline timeline;
};

void run_crash_scenario(FlightRecordedRun& out) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  const auto jobs = workloads::paper_benchmarks();
  const double makespan = run_queue(jobs, opt).report.makespan_s;

  fault::FaultPlan plan;
  plan.crashes.push_back({2, 0.25 * makespan});
  plan.crashes.push_back({5, 0.5 * makespan});
  plan.cap_violations.push_back({0, 0.1 * makespan, 1e6, 100.0});

  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  std::vector<runtime::QueueJob> queued;
  for (const auto& w : jobs) queued.push_back({w, 0});
  runtime::QueueEventLoop queue(ex, sched, opt, queued);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);
  queue.set_timeline(&out.timeline);
  out.report = queue.run();
}

TEST(FlightRecorder, ReportViolationSecondsMatchBudgetGuardGroundTruth) {
  FlightRecordedRun run;
  run_crash_scenario(run);
  ASSERT_EQ(run.report.crashed_nodes.size(), 2u);
  ASSERT_GT(run.report.violation_s, 0.0);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("flight_gt." + std::to_string(::getpid()));
  runtime::write_run_record(dir, Watts(700.0), run.report, run.timeline);

  // The rendered reports carry the BudgetGuard's accounting bit-for-bit:
  // shortest-exact formatting means a string compare is an exact compare.
  const std::string exact = obs::format_exact(run.report.violation_s);
  const std::string json = runtime::render_json_report(dir);
  EXPECT_NE(json.find("\"violation_s\": " + exact), std::string::npos)
      << json;
  const std::string md = runtime::render_markdown_report(dir);
  EXPECT_NE(md.find("| cap violation (s) | " + exact + " |"),
            std::string::npos);

  // Rendering is deterministic across repeats.
  EXPECT_EQ(json, runtime::render_json_report(dir));
  EXPECT_EQ(md, runtime::render_markdown_report(dir));

  // The timeline's own copy of the final accounting agrees too.
  const auto viol = run.timeline.samples("budget.violation_s");
  ASSERT_EQ(viol.size(), 1u);
  EXPECT_EQ(viol[0].value, run.report.violation_s);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, FaultEventsLandOnTheTimeline) {
  FlightRecordedRun run;
  run_crash_scenario(run);
  const auto faults = run.timeline.events("fault");
  std::size_t crashes = 0;
  std::size_t claw_backs = 0;
  std::size_t cap_violations = 0;
  for (const auto& e : faults) {
    if (e.label.rfind("crash ", 0) == 0) ++crashes;
    if (e.label.rfind("claw-back ", 0) == 0) ++claw_backs;
    if (e.label.rfind("cap-violation ", 0) == 0) ++cap_violations;
  }
  EXPECT_EQ(crashes, 2u);
  EXPECT_EQ(cap_violations, 1u);
  EXPECT_EQ(static_cast<int>(claw_backs), run.report.caps_reprogrammed);
  // fault.active tracks the injections.
  const auto active = run.timeline.summary("fault.active");
  EXPECT_GT(active.count, 0u);
  EXPECT_GE(active.max, 1.0);
  // Crashed nodes leave job-crash events behind.
  std::size_t job_crashes = 0;
  for (const auto& e : run.timeline.events("job"))
    if (e.label.rfind("crash ", 0) == 0) ++job_crashes;
  EXPECT_GE(job_crashes, 1u);
}

/// The `fault` event stream ("<t> <label>", t rendered exactly) of the ten
/// paper jobs at 700 W with redistribution reacting after 30 s, on a warm
/// knowledge DB.
std::vector<std::string> fault_stream(const fault::FaultPlan& plan) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  opt.redist.enabled = true;
  opt.redist.reaction_s = 30.0;
  std::vector<runtime::QueueJob> jobs;
  for (const auto& w : workloads::paper_benchmarks()) jobs.push_back({w, 0});
  (void)runtime::QueueEventLoop(ex, sched, opt, jobs).run();  // warm the DB
  runtime::QueueEventLoop queue(ex, sched, opt, jobs);
  obs::Timeline timeline;
  queue.set_timeline(&timeline);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);
  (void)queue.run();
  std::vector<std::string> out;
  for (const auto& e : timeline.events("fault"))
    out.push_back(obs::format_exact(e.t_s) + " " + e.label);
  return out;
}

TEST(FlightRecorder, SimultaneousFaultsAnnounceInKindOrder) {
  // Events that fall due together are announced by kind (crash, degrade,
  // meter fault, cap violation, blackout, budget cut), then in plan order.
  fault::FaultPlan at_once;
  at_once.crashes = {{5, 10.0}, {2, 10.0}};
  at_once.degrades = {{4, 10.0, 0.8}};
  at_once.meter_faults = {{6, 10.0, 5.0, fault::MeterFaultKind::kSpike, 2.0}};
  at_once.cap_violations = {{0, 10.0, 5.0, 30.0}};
  at_once.meter_blackouts = {{10.0, 5.0}};
  at_once.budget_cuts = {{10.0, 5.0, 0.8}};
  EXPECT_EQ(fault_stream(at_once),
            (std::vector<std::string>{
                "1e+01 crash node=5", "1e+01 crash node=2",
                "1e+01 degrade node=4", "1e+01 meter-spike node=6",
                "1e+01 cap-violation node=0",
                "1e+01 meter-blackout for 5.0s",
                "1e+01 budget-cut to 0.80x for 5.0s"}));

  // One batch can span several instants: once every job is done, a pending
  // claw-back carries time from 63.6 s to 90 s past three planned events
  // (cap violation at 85.2 s, meter faults at 86.7 and 88.4 s). They are
  // announced at 90 s by kind, not in time order.
  EXPECT_EQ(fault_stream(fault::FaultPlan::random(269, 8, 120.0,
                                                  {1, 3, 3, 2, 1, 1})),
            (std::vector<std::string>{
                "5.046153181379092 degrade node=2",
                "10.496031301105218 degrade node=0",
                "28.991784403072614 meter-dropout node=1",
                "39.681216611206935 degrade node=0",
                "46.06117572743665 meter-blackout for 10.6s",
                "52.16816266131328 crash node=1",
                "58.65406357250352 budget-cut to 0.83x for 21.8s",
                "9e+01 meter-stuck-at node=2", "9e+01 meter-dropout node=5",
                "9e+01 cap-violation node=3"}));
}

TEST(FlightRecorder, ArchivesRunRecordIntoFlightDirWhenSet) {
  FlightRecordedRun run;
  run_crash_scenario(run);
  const char* env = std::getenv("CLIP_FLIGHT_DIR");
  // Outside CI the behavior is exercised against a temp stand-in.
  const std::filesystem::path base =
      env != nullptr && *env != '\0'
          ? std::filesystem::path(env)
          : std::filesystem::temp_directory_path() /
                ("flight_dump." + std::to_string(::getpid()));
  const auto dir = base / "fault_integration";
  runtime::write_run_record(dir, Watts(700.0), run.report, run.timeline);
  for (const char* f :
       {runtime::RunRecordFiles::kTimeline, runtime::RunRecordFiles::kJobs,
        runtime::RunRecordFiles::kSummary})
    EXPECT_TRUE(std::filesystem::exists(dir / f)) << f;
  // Prove the dump is renderable — what a post-mortem will do first.
  EXPECT_NE(runtime::render_markdown_report(dir).find("# CLIP run report"),
            std::string::npos);
  if (env == nullptr || *env == '\0') std::filesystem::remove_all(base);
}

TEST(KnowledgeRecordValidate, RejectsImpossibleFields) {
  core::KnowledgeRecord r;
  r.name = "app";
  r.perf_ratio = 0.6;
  r.time_all_s = 10.0;
  r.time_half_s = 16.0;
  r.cpu_power_all_w = 150.0;
  EXPECT_NO_THROW(r.validate());
  r.time_all_s = 0.0;
  EXPECT_THROW(r.validate(), PreconditionError);
  r.time_all_s = 10.0;
  r.cpu_power_all_w = -5.0;
  EXPECT_THROW(r.validate(), PreconditionError);
}

}  // namespace
}  // namespace clip

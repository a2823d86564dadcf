// Tests for runtime power redistribution (runtime/redistribution.hpp and its
// integration into the power-aware queue): slack detection from each node's
// newest samples, phase lookup, claw-back sizing and the claw-vs-crash race,
// re-grant admission against the facility cap, PKG→DRAM subsystem shifts,
// and the byte-identity contract with the feature disabled. All runs are
// deterministic — see docs/power-redistribution.md.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "core/scheduler.hpp"
#include "fault/budget_guard.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "runtime/queue.hpp"
#include "runtime/redistribution.hpp"
#include "sim/config.hpp"
#include "sim/executor.hpp"
#include "sim/power_meter.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"

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
     << r.violation_ws << '|' << r.meter_reads_rejected << '|'
     << r.redist_claw_backs << '|' << r.redist_regrants << '|'
     << r.redist_subsystem_shifts << '|' << r.redist_reclaimed_w << '|'
     << r.redist_granted_w;
  for (int n : r.crashed_nodes) os << "|crash:" << n;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.parameters << ',' << j.submit_s << ','
       << j.start_s << ',' << j.end_s << ',' << j.nodes << ',' << j.budget_w
       << ',' << j.power_w << ',' << j.attempts << ',' << j.completed << ','
       << j.crashed_node;
  return os.str();
}

struct QueueRun {
  runtime::QueueReport report;
  std::string report_fp;
};

/// One self-contained queue run: fresh executor/scheduler/queue so repeated
/// runs share no state.
QueueRun run_queue(const std::vector<runtime::QueueJob>& jobs,
                   runtime::QueueOptions opt,
                   const fault::FaultPlan* plan = nullptr,
                   obs::ObsSession* session = nullptr,
                   obs::Timeline* timeline = nullptr) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueEventLoop queue(ex, sched, opt, jobs);
  if (session != nullptr) queue.set_observer(session);
  if (timeline != nullptr) queue.set_timeline(timeline);
  std::optional<fault::FaultInjector> injector;
  if (plan != nullptr) {
    injector.emplace(*plan, ex.spec().nodes);
    queue.set_fault_injector(&*injector);
  }
  QueueRun out;
  out.report = queue.run();
  out.report_fp = fingerprint(out.report);
  return out;
}

std::vector<runtime::QueueJob> wrap(
    const std::vector<workloads::WorkloadSignature>& apps) {
  std::vector<runtime::QueueJob> jobs;
  for (const auto& a : apps) jobs.push_back({a, 0});
  return jobs;
}

// ---------------------------------------------------------------- options ----

TEST(RedistOptions, ValidateRejectsBadValues) {
  runtime::RedistributionOptions o;
  EXPECT_NO_THROW(o.validate());
  o.period_s = 0.0;
  EXPECT_THROW(o.validate(), PreconditionError);
  o = {};
  o.reaction_s = -1.0;
  EXPECT_THROW(o.validate(), PreconditionError);
  o.reaction_s = 0.0;  // an immediate claw-back is valid
  EXPECT_NO_THROW(o.validate());
}

TEST(RedistOptions, DisabledByDefault) {
  EXPECT_FALSE(runtime::QueueOptions{}.redist.enabled);
}

// --------------------------------------------------------- slack detector ----

TEST(SlackDetector, NoSamplesMeansNoSlack) {
  runtime::SlackDetector d;
  EXPECT_EQ(d.node_slack_w(0, 100.0), 0.0);
}

TEST(SlackDetector, JudgesAgainstMaxOfRecentWindow) {
  runtime::SlackDetector d;
  d.observe(0, 1.0, 50.0);
  d.observe(0, 2.0, 80.0);
  d.observe(0, 3.0, 60.0);
  // cap − max(recent) − headroom·cap = 100 − 80 − 8.
  EXPECT_DOUBLE_EQ(d.node_slack_w(0, 100.0), 12.0);
  // Another node's samples are independent.
  EXPECT_EQ(d.node_slack_w(1, 100.0), 0.0);
}

TEST(SlackDetector, RingEvictsSamplesBeyondWindow) {
  static_assert(runtime::kWindowSamples == 3);
  runtime::SlackDetector d;
  d.observe(0, 1.0, 90.0);
  d.observe(0, 2.0, 40.0);
  d.observe(0, 3.0, 40.0);
  d.observe(0, 4.0, 50.0);  // evicts the 90 W sample
  // cap − max(recent) − headroom·cap = 100 − 50 − 8.
  EXPECT_DOUBLE_EQ(d.node_slack_w(0, 100.0), 42.0);
  const auto window = d.window(0);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window.front().t_s, 2.0);
  EXPECT_EQ(window.back().draw_w, 50.0);
  // A node's samples may not go back in time; a refused one leaves the
  // window as it was.
  EXPECT_THROW(d.observe(0, 3.5, 40.0), PreconditionError);
  EXPECT_EQ(d.window(0).back().t_s, 4.0);
}

TEST(SlackDetector, SlackNeverNegative) {
  runtime::SlackDetector d;
  d.observe(0, 1.0, 150.0);  // drawing above the cap (violation window)
  EXPECT_EQ(d.node_slack_w(0, 100.0), 0.0);
}

TEST(SlackDetector, PhaseAtMapsElapsedFractionOntoPhases) {
  const auto bt = workloads::find_benchmark("BT-MZ");
  ASSERT_TRUE(bt.has_value());
  // BT-MZ-phased is 80% solve (compute) then 20% exch_qbc (memory).
  const auto early = runtime::SlackDetector::phase_at(*bt, 0.0, 100.0, 10.0);
  EXPECT_TRUE(early.known);
  EXPECT_EQ(early.phase, "solve");
  EXPECT_FALSE(early.memory_bound);
  const auto late = runtime::SlackDetector::phase_at(*bt, 0.0, 100.0, 90.0);
  EXPECT_TRUE(late.known);
  EXPECT_EQ(late.phase, "exch_qbc");
  EXPECT_TRUE(late.memory_bound);
}

TEST(SlackDetector, PhaseAtFallsBackToFlatSignature) {
  workloads::WorkloadSignature app;
  app.name = "no-such-app";
  app.memory_boundedness = 0.7;
  const auto sig = runtime::SlackDetector::phase_at(app, 0.0, 10.0, 5.0);
  EXPECT_FALSE(sig.known);
  EXPECT_TRUE(sig.memory_bound);
}

// ------------------------------------------------------------ redistributor ----

TEST(Redistributor, ClawRespectsFloorAndMinimum) {
  // Slack-limited claw.
  EXPECT_DOUBLE_EQ(runtime::claw_w(200.0, 30.0, 100.0), 30.0);
  // Floor-limited claw: never below floor_w.
  EXPECT_DOUBLE_EQ(runtime::claw_w(200.0, 150.0, 120.0), 80.0);
  // Below kMinClawW (4 W): not worth a cap rewrite.
  EXPECT_EQ(runtime::claw_w(200.0, 3.0, 100.0), 0.0);
  EXPECT_EQ(runtime::claw_w(102.0, 50.0, 100.0), 0.0);
}

TEST(Redistributor, PicksBestGainAboveThreshold) {
  const std::vector<runtime::RegrantCandidate> cands = {
      {0, 50.0, 0.2}, {1, 50.0, 1.5}, {2, 50.0, 0.01}};
  const auto* best = runtime::pick_regrant(cands);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->job, 1u);
  // Below kMinGainS (0.05 s): the watts stay in the free pool.
  const std::vector<runtime::RegrantCandidate> weak = {{0, 50.0, 0.01}};
  EXPECT_EQ(runtime::pick_regrant(weak), nullptr);
  EXPECT_EQ(runtime::pick_regrant({}), nullptr);
}

// ------------------------------------------------------- subsystem shifts ----

TEST(SubsystemShift, MovesCapsAndStepsMemoryLevel) {
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.node.cpu_cap = Watts(80.0);
  cfg.node.mem_cap = Watts(30.0);
  cfg.node.mem_level = sim::MemPowerLevel::kL2;
  cfg.cpu_cap_overrides = {Watts(78.0), Watts(82.0)};
  const auto s = sim::shift_pkg_to_dram(cfg, Watts(5.0), Watts(40.0));
  EXPECT_DOUBLE_EQ(s.node.cpu_cap.value(), 75.0);
  EXPECT_DOUBLE_EQ(s.node.mem_cap.value(), 35.0);
  EXPECT_EQ(s.node.mem_level, sim::MemPowerLevel::kL1);
  EXPECT_DOUBLE_EQ(s.cpu_cap_overrides[0].value(), 73.0);
  EXPECT_DOUBLE_EQ(s.cpu_cap_overrides[1].value(), 77.0);
}

TEST(SubsystemShift, ClampsDeltaAtCpuFloor) {
  sim::ClusterConfig cfg;
  cfg.node.cpu_cap = Watts(42.0);
  cfg.node.mem_cap = Watts(20.0);
  cfg.node.mem_level = sim::MemPowerLevel::kL0;
  const auto s = sim::shift_pkg_to_dram(cfg, Watts(5.0), Watts(40.0));
  EXPECT_DOUBLE_EQ(s.node.cpu_cap.value(), 40.0);  // clamped to the floor
  EXPECT_DOUBLE_EQ(s.node.mem_cap.value(), 22.0);
  EXPECT_EQ(s.node.mem_level, sim::MemPowerLevel::kL0);
}

// --------------------------------------------------------- work accounting ----

TEST(WorkDone, IntegratesDegradesLikeResolve) {
  fault::FaultPlan plan;
  plan.degrades.push_back({0, 10.0, 0.5});
  fault::FaultInjector inj(plan, 4);
  // 10 s at full rate + 10 s at half rate = 15 s of work.
  EXPECT_DOUBLE_EQ(inj.work_done_s(0.0, 20.0, {0}), 15.0);
  // Inverse of resolve: 15 s of work starting at 0 ends at 20.
  EXPECT_DOUBLE_EQ(inj.resolve(0.0, 15.0, {0}).end_s, 20.0);
  // Unaffected node integrates at full rate.
  EXPECT_DOUBLE_EQ(inj.work_done_s(0.0, 20.0, {1}), 20.0);
}

// -------------------------------------------------------- regrant admission ----

TEST(BudgetGuard, AdmitRegrantEnforcesFacilityCap) {
  fault::BudgetGuard guard(fault::BudgetGuardOptions{}, Watts(700.0), 500.0);
  EXPECT_TRUE(guard.admit_regrant(650.0, 40.0));
  EXPECT_EQ(guard.regrants_rejected(), 0u);
  EXPECT_FALSE(guard.admit_regrant(680.0, 40.0));
  EXPECT_EQ(guard.regrants_rejected(), 1u);
  EXPECT_THROW((void)guard.admit_regrant(650.0, -1.0), PreconditionError);
}

// --------------------------------------------------- queue: byte identity ----

TEST(RedistQueue, DisabledRunsAreByteIdenticalAndSilent) {
  const auto jobs = wrap(workloads::paper_benchmarks());
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  ASSERT_FALSE(opt.redist.enabled);

  obs::ObsSession session;
  obs::Timeline timeline;
  const QueueRun a = run_queue(jobs, opt, nullptr, &session, &timeline);
  const QueueRun b = run_queue(jobs, opt);
  EXPECT_EQ(a.report_fp, b.report_fp);

  // Disabled means silent: no redist metrics, series, or events exist.
  EXPECT_EQ(session.metrics().find_counter("redist.ticks"), nullptr);
  EXPECT_TRUE(timeline.samples("redist.slack_w").empty());
  EXPECT_TRUE(timeline.events("redist").empty());
  EXPECT_EQ(a.report.redist_claw_backs, 0);
  EXPECT_EQ(a.report.redist_regrants, 0);
  EXPECT_EQ(a.report.redist_subsystem_shifts, 0);
  EXPECT_EQ(a.report.redist_reclaimed_w, 0.0);
  EXPECT_EQ(a.report.redist_granted_w, 0.0);
}

TEST(RedistQueue, ZeroSlackFleetIsANoOp) {
  // A loop that ticks but never acts leaves the run bit-identical to the
  // disabled queue — under faults too. One compute-bound job holds the
  // whole budget, so no watt is free to re-grant; at this budget it draws
  // its caps, so there is no slack to claw; and it has no memory phase to
  // shift watts to DRAM for.
  const std::vector<runtime::QueueJob> jobs = {
      {*workloads::find_benchmark("EP"), 0}};
  runtime::QueueOptions off;
  off.cluster_budget = Watts(400.0);
  runtime::QueueOptions on = off;
  on.redist.enabled = true;
  on.redist.period_s = 1.0;

  // Node 1 slows and node 3 dies under the first placement, which retries.
  fault::FaultPlan faulted;
  faulted.degrades.push_back({1, 1.0, 0.7});
  faulted.crashes.push_back({3, 2.0});
  for (const bool with_faults : {false, true}) {
    const fault::FaultPlan* plan = with_faults ? &faulted : nullptr;
    obs::ObsSession session;
    const QueueRun run = run_queue(jobs, on, plan, &session);
    EXPECT_EQ(run.report_fp, run_queue(jobs, off, plan).report_fp)
        << "faults " << with_faults;
    const auto* ticks = session.metrics().find_counter("redist.ticks");
    ASSERT_NE(ticks, nullptr) << "faults " << with_faults;
    EXPECT_GE(ticks->value(), 1u);
    EXPECT_EQ(run.report.redist_claw_backs, 0);
    EXPECT_EQ(run.report.redist_regrants, 0);
    EXPECT_EQ(run.report.redist_subsystem_shifts, 0);
    EXPECT_EQ(run.report.redist_regrants_rejected, 0u);
    EXPECT_EQ(run.report.redist_reclaimed_w, 0.0);
    EXPECT_EQ(run.report.redist_granted_w, 0.0);
  }
}

// ------------------------------------------------------ queue: claw-backs ----

/// A deliberately over-provisioned placement: one job given every node and
/// far more watts than it can draw, so the first tick detects slack.
runtime::QueueOptions overprovisioned_options() {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(1600.0);
  opt.redist.enabled = true;
  opt.redist.period_s = 0.5;
  opt.redist.reaction_s = 0.2;
  return opt;
}

TEST(RedistQueue, ClawsBackSlackWithoutSlowingTheJob) {
  sim::SimExecutor probe{sim::MachineSpec{}, no_noise()};
  std::vector<runtime::QueueJob> jobs = {
      {workloads::paper_benchmarks().front(), probe.spec().nodes}};

  runtime::QueueOptions off = overprovisioned_options();
  off.redist.enabled = false;
  const QueueRun stat = run_queue(jobs, off);

  obs::ObsSession session;
  obs::Timeline timeline;
  const QueueRun redist =
      run_queue(jobs, overprovisioned_options(), nullptr, &session, &timeline);

  EXPECT_GE(redist.report.redist_claw_backs, 1);
  EXPECT_GT(redist.report.redist_reclaimed_w, 0.0);
  // Claw-backs reclaim only watts the caps guarantee are unused: the job's
  // completion time and the true draw are untouched.
  EXPECT_DOUBLE_EQ(redist.report.makespan_s, stat.report.makespan_s);
  EXPECT_EQ(redist.report.violation_s, 0.0);
  // The reclaimed watts stepped the job's recorded budget down.
  EXPECT_LT(redist.report.jobs[0].budget_w, stat.report.jobs[0].budget_w);
  EXPECT_FALSE(timeline.events("redist").empty());
}

TEST(RedistQueue, ClawNeverRacesACrashOnItsOwnPlacement) {
  // The claw-vs-crash race is resolved pre-emptively: placements are
  // resolved against the fault plan at start, so the tick skips a placement
  // that will abort — its full slice returns to the free pool at the abort
  // instant, and no claw is ever left pending against it.
  sim::SimExecutor probe{sim::MachineSpec{}, no_noise()};
  std::vector<runtime::QueueJob> jobs = {
      {workloads::paper_benchmarks().front(), probe.spec().nodes}};

  runtime::QueueOptions opt = overprovisioned_options();
  opt.redist.period_s = 1.0;
  opt.redist.reaction_s = 5.0;

  // Aborts the slack-rich placement. The rigid job asks for every node, so
  // it cannot be placed again on the seven survivors and ends failed.
  fault::FaultPlan plan;
  plan.crashes.push_back({2, 1.5});

  obs::Timeline timeline;
  const QueueRun run = run_queue(jobs, opt, &plan, nullptr, &timeline);

  // Ticks fired before the abort (the same setup claws within two ticks in
  // ClawsBackSlackWithoutSlowingTheJob), but the doomed placement was never
  // targeted: no decision, no actuation, no reclaimed watts.
  EXPECT_FALSE(timeline.samples("redist.slack_w").empty());
  for (const auto& e : timeline.events("redist"))
    EXPECT_TRUE(e.label.rfind("claw", 0) != 0) << e.label;
  EXPECT_EQ(run.report.redist_claw_backs, 0);
  EXPECT_EQ(run.report.redist_reclaimed_w, 0.0);
  EXPECT_EQ(run.report.jobs_failed, 1);
}

TEST(RedistQueue, StaleClawAgainstAGonePlacementDissolves) {
  // A scheduled claw whose placement is gone by the time the reaction
  // latency elapses must dissolve without effect — the watts already
  // returned to the pool when the placement ended. With reaction_s at 5 s
  // the second claw decision actuates past the job's completion.
  sim::SimExecutor probe{sim::MachineSpec{}, no_noise()};
  std::vector<runtime::QueueJob> jobs = {
      {workloads::paper_benchmarks().front(), probe.spec().nodes}};

  runtime::QueueOptions opt = overprovisioned_options();
  opt.redist.period_s = 1.0;
  opt.redist.reaction_s = 5.0;

  obs::Timeline timeline;
  const QueueRun run = run_queue(jobs, opt, nullptr, nullptr, &timeline);

  int scheduled = 0;
  int actuated = 0;
  for (const auto& e : timeline.events("redist")) {
    if (e.label.rfind("claw-scheduled", 0) == 0) ++scheduled;
    else if (e.label.rfind("claw", 0) == 0) ++actuated;
  }
  // More decisions than actuations: at least one claw found its placement
  // gone and dissolved.
  EXPECT_GE(scheduled, 2);
  EXPECT_EQ(actuated, run.report.redist_claw_backs);
  EXPECT_LT(run.report.redist_claw_backs, scheduled);
  EXPECT_GE(run.report.redist_claw_backs, 1);
}

// -------------------------------------------------------- queue: regrants ----

TEST(RedistQueue, RedistributionNeverWorseAcrossFaultScenarios) {
  // The headline contract on the Table II stream: enabling redistribution
  // never increases the makespan or the ground-truth violation seconds.
  const auto jobs = wrap(workloads::paper_benchmarks());
  runtime::QueueOptions off;
  off.cluster_budget = Watts(700.0);
  runtime::QueueOptions on = off;
  on.redist.enabled = true;

  std::vector<fault::FaultPlan> plans(3);
  plans[1].crashes.push_back({3, 15.0});
  plans[2].degrades.push_back({1, 8.0, 0.6});
  plans[2].cap_violations.push_back({0, 5.0, 30.0, 90.0});

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const QueueRun stat = run_queue(jobs, off, &plans[i]);
    const QueueRun redist = run_queue(jobs, on, &plans[i]);
    EXPECT_LE(redist.report.makespan_s, stat.report.makespan_s)
        << "plan " << i;
    EXPECT_LE(redist.report.violation_s, stat.report.violation_s + 1e-9)
        << "plan " << i;
    EXPECT_EQ(redist.report.jobs_completed(), stat.report.jobs_completed())
        << "plan " << i;
  }
}

TEST(RedistQueue, RegrantsFreedWattsAfterACrash) {
  // A crash mid-stream frees watts with jobs still running; once nothing is
  // pending the free pool is re-granted to the job it helps most.
  const auto jobs = wrap(workloads::paper_benchmarks());
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  opt.redist.enabled = true;

  fault::FaultPlan plan;
  plan.crashes.push_back({3, 15.0});

  obs::ObsSession session;
  const QueueRun run = run_queue(jobs, opt, &plan, &session);
  EXPECT_GE(run.report.redist_regrants, 1);
  EXPECT_GT(run.report.redist_granted_w, 0.0);
  const auto* c = session.metrics().find_counter("redist.regrants");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(run.report.redist_regrants));
}

}  // namespace
}  // namespace clip

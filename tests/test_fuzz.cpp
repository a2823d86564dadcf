// Fuzz-style property suites over randomly generated workloads and swept
// operating conditions: the simulator's physical invariants and CLIP's
// guarantees must hold across the whole valid signature space, not just the
// calibrated catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "core/profiler.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lint.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "sim/executor.hpp"
#include "sim/rapl_controller.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"
#include "workloads/phases.hpp"
#include "workloads/random.hpp"

namespace clip {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

sim::SimExecutor& fuzz_executor() {
  static sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  return ex;
}

core::ClipScheduler& fuzz_scheduler() {
  static core::ClipScheduler sched{fuzz_executor(),
                                   workloads::training_benchmarks()};
  return sched;
}

// ------------------------------------------------- random-workload sweep ----

class RandomWorkload : public ::testing::TestWithParam<int> {
 protected:
  static workloads::WorkloadSignature workload(int index) {
    // One deterministic batch shared across the suite.
    static const auto batch = workloads::random_signatures(0xF00D, 48);
    return batch[static_cast<std::size_t>(index)];
  }
};

INSTANTIATE_TEST_SUITE_P(Batch, RandomWorkload, ::testing::Range(0, 48));

TEST_P(RandomWorkload, SimulatorInvariantsHold) {
  const auto w = workload(GetParam());
  auto& ex = fuzz_executor();
  sim::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.affinity = parallel::AffinityPolicy::kScatter;
  cfg.node.threads = 1;
  const double t1 = ex.run_exact(w, cfg).time.value();
  double prev_power = 0.0;
  for (int n : {4, 12, 24}) {
    cfg.node.threads = n;
    const auto m = ex.run_exact(w, cfg);
    EXPECT_TRUE(std::isfinite(m.time.value()));
    EXPECT_GT(m.time.value(), 0.0);
    EXPECT_LE(t1 / m.time.value(), n * 1.0001);  // speedup <= ideal
    // More threads at the same frequency never draw less power.
    EXPECT_GE(m.avg_power.value(), prev_power - 1e-9);
    prev_power = m.avg_power.value();
  }
}

TEST_P(RandomWorkload, ProfilerAndClassifierNeverChoke) {
  const auto w = workload(GetParam());
  core::SmartProfiler profiler(fuzz_executor());
  const core::ScalabilityClassifier classifier;
  const auto p = profiler.profile(w);
  EXPECT_GT(p.perf_ratio_half_over_all, 0.0);
  EXPECT_LT(p.perf_ratio_half_over_all, 5.0);
  EXPECT_NO_THROW((void)classifier.classify(p));
  EXPECT_GE(p.per_core_bw_gbps, 0.0);
  EXPECT_LE(p.memory_intensity, 1.0);
}

TEST_P(RandomWorkload, ClipSchedulesAndRespectsBudget) {
  const auto w = workload(GetParam());
  auto& sched = fuzz_scheduler();
  auto& ex = fuzz_executor();
  for (double budget : {500.0, 900.0, 1300.0}) {
    const auto d = sched.schedule(w, Watts(budget));
    const auto m = ex.run_exact(w, d.cluster);
    EXPECT_LE(m.avg_power.value(), budget * 1.01) << budget;
    EXPECT_GE(d.cluster.nodes, 1);
    EXPECT_GE(d.cluster.node.threads, 1);
  }
}

TEST_P(RandomWorkload, CapEnforcementUnderRandomCaps) {
  const auto w = workload(GetParam());
  auto& ex = fuzz_executor();
  Rng rng(0xCAFE + static_cast<std::uint64_t>(GetParam()));
  const auto& spec = ex.spec();
  const double base_w = spec.shape.sockets * spec.socket_base_w;
  for (int trial = 0; trial < 4; ++trial) {
    sim::ClusterConfig cfg;
    cfg.nodes = static_cast<int>(rng.uniform_int(1, 8));
    cfg.node.threads = static_cast<int>(rng.uniform_int(1, 24));
    cfg.node.affinity = rng.uniform() < 0.5
                            ? parallel::AffinityPolicy::kCompact
                            : parallel::AffinityPolicy::kScatter;
    cfg.node.cpu_cap = Watts(rng.uniform(35.0, 140.0));
    cfg.node.mem_cap = Watts(rng.uniform(12.0, 40.0));
    sim::Measurement m;
    try {
      m = ex.run_exact(w, cfg);
    } catch (const PreconditionError&) {
      continue;  // e.g. memory-bound workload with a sub-base DRAM cap
    }
    for (const auto& node : m.nodes) {
      const double enforceable =
          std::max(cfg.node.cpu_cap.value(),
                   base_w + spec.shape.total_cores() * spec.core_max_w / 16.0);
      EXPECT_LE(node.cpu_power.value(), enforceable + 1e-9);
      EXPECT_GT(node.time.value(), 0.0);
    }
  }
}

// ------------------------------------------------------ phased sweeps ----

class PhasedSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

std::vector<std::string> phased_names() {
  std::vector<std::string> names;
  for (const auto& p : workloads::phased_benchmarks())
    names.push_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    All, PhasedSweep,
    ::testing::Combine(::testing::ValuesIn(phased_names()),
                       ::testing::Values(550.0, 750.0, 1050.0, 1350.0)));

TEST_P(PhasedSweep, PhaseAwareNeverLosesToFlatAndStaysInBudget) {
  const auto [name, budget] = GetParam();
  const auto p = *workloads::find_phased(name);
  auto& sched = fuzz_scheduler();
  auto& ex = fuzz_executor();

  const auto flat = sched.schedule(p.blended(), Watts(budget));
  sim::PhasedClusterConfig flat_cfg;
  flat_cfg.nodes = flat.cluster.nodes;
  flat_cfg.phase_nodes.assign(p.phases.size(), flat.cluster.node);
  const auto flat_m = ex.run_phased_exact(p, flat_cfg);

  const auto phased = sched.schedule_phased(p, Watts(budget));
  const auto phased_m = ex.run_phased_exact(p, phased.cluster);

  EXPECT_LT(phased_m.time.value(), flat_m.time.value() * 1.001);
  for (const auto& pm : phased_m.phases)
    EXPECT_LE(pm.avg_power.value(), budget * 1.01) << pm.phase;
}

TEST_P(PhasedSweep, BlendEnergyAccountingConsistent) {
  const auto [name, budget] = GetParam();
  const auto p = *workloads::find_phased(name);
  auto& sched = fuzz_scheduler();
  auto& ex = fuzz_executor();
  const auto d = sched.schedule_phased(p, Watts(budget));
  const auto m = ex.run_phased_exact(p, d.cluster);
  double phase_energy = 0.0;
  for (const auto& pm : m.phases) phase_energy += pm.energy.value();
  EXPECT_NEAR(m.energy.value(), phase_energy, 1e-6);
  EXPECT_NEAR(m.avg_power.value(),
              m.energy.value() / m.time.value(), 1e-9);
}

// ------------------------------------------------- fault-plan fuzzing ----
//
// Random fault plans against the resilient queue: whatever combination of
// crashes, degrades, meter faults and cap violations a seed draws, the queue
// must terminate, account every job as completed-or-failed, never reserve
// more power than the budget, and never record more violation energy than
// the plan actually injected.

class FaultPlanFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanFuzz, ::testing::Range(0, 12));

TEST_P(FaultPlanFuzz, QueueSurvivesArbitrarySeededFaults) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto& ex = fuzz_executor();
  auto& sched = fuzz_scheduler();

  fault::FaultPlanShape shape;
  shape.crashes = static_cast<int>(seed % 4);        // 0..3 of 8 nodes
  shape.degrades = static_cast<int>((seed / 4) % 3);
  shape.meter_faults = 2;
  shape.cap_violations = 2;
  const double horizon = 4000.0;
  const auto plan =
      fault::FaultPlan::random(0xFA01 + seed, ex.spec().nodes, horizon, shape);

  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  runtime::PowerAwareJobQueue queue(ex, sched, opt);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);

  const auto& jobs = workloads::paper_benchmarks();
  const auto report = queue.run(jobs);  // termination is the first property

  // Every submitted job is accounted for: completed or failed, no limbo.
  EXPECT_EQ(report.jobs.size(), jobs.size());
  EXPECT_EQ(report.jobs_completed() +
                static_cast<std::size_t>(report.jobs_failed),
            jobs.size());
  EXPECT_TRUE(std::isfinite(report.makespan_s));
  EXPECT_GE(report.makespan_s, 0.0);
  EXPECT_LE(report.crashed_nodes.size(),
            static_cast<std::size_t>(shape.crashes));

  // Reserved power never exceeds the budget at any start instant, and no
  // job lands on a node set larger than the cluster.
  for (const auto& a : report.jobs) {
    if (a.nodes == 0) continue;  // never placed (all nodes dead)
    EXPECT_LE(a.nodes, ex.spec().nodes);
    EXPECT_LE(a.attempts, opt.retry.max_attempts);
    double reserved = 0.0;
    for (const auto& b : report.jobs)
      if (b.nodes > 0 && b.start_s <= a.start_s && a.start_s < b.end_s)
        reserved += b.budget_w;
    EXPECT_LE(reserved, opt.cluster_budget.value() * 1.001)
        << "seed " << seed << " t=" << a.start_s;
  }

  // Violation energy is bounded by what the plan injected: the cluster can
  // only exceed the budget through unenforced cap excess.
  double injected_ws = 0.0;
  for (const auto& v : plan.cap_violations)
    injected_ws += v.excess_w * v.duration_s;
  // Slack: measured draw may exceed a job's reserved slice by the queue's
  // 1 % + 1 W shaping tolerance, integrated over the run.
  const double slack =
      (0.01 * opt.cluster_budget.value() + 1.0) * report.makespan_s;
  EXPECT_LE(report.violation_ws, injected_ws + slack) << "seed " << seed;
  if (plan.cap_violations.empty()) {
    EXPECT_LE(report.violation_ws, slack);
  }
}

// -------------------------------------------- randomized kill-point fuzz ----
//
// The crash-consistency analogue of the fault-plan fuzzer: random fault
// plans (degraded-mode windows included), a journaled reference run, then
// random kill points — every recovery must reproduce the reference run
// byte-for-byte. The exhaustive every-boundary sweep lives in
// tests/test_recovery.cpp; this suite varies the *plans* instead.

std::string report_fingerprint(const runtime::QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat << r.makespan_s << '|' << r.total_energy_j << '|'
     << r.node_seconds_used << '|' << r.retries << '|' << r.jobs_failed << '|'
     << r.caps_reprogrammed << '|' << r.violation_s << '|' << r.violation_ws;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes << ','
       << j.budget_w << ',' << j.attempts << ',' << j.completed << ','
       << j.crashed_node;
  return os.str();
}

class RecoveryFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz, ::testing::Range(0, 6));

TEST_P(RecoveryFuzz, RandomKillPointsRecoverByteIdentically) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  auto& ex = fuzz_executor();
  auto& sched = fuzz_scheduler();

  fault::FaultPlanShape shape;
  shape.crashes = static_cast<int>(seed % 3);
  shape.degrades = static_cast<int>((seed / 3) % 2);
  shape.meter_faults = 1;
  shape.cap_violations = 1;
  shape.meter_blackouts = static_cast<int>(seed % 2);
  shape.budget_cuts = static_cast<int>((seed + 1) % 2);
  const auto plan =
      fault::FaultPlan::random(0x1EC0 + seed, ex.spec().nodes, 60.0, shape);

  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  std::vector<runtime::QueueJob> jobs;
  for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});

  // Warm the knowledge DB so the reference run and every recovery schedule
  // from identical cached profiles.
  {
    runtime::PowerAwareJobQueue warm(ex, sched, opt);
    (void)warm.run(jobs);
  }

  // The report and the flight record, byte for byte.
  const auto run_with = [&](runtime::Journal* journal,
                            runtime::Journal* resume) {
    runtime::QueueEventLoop loop(ex, sched, opt, jobs);
    obs::Timeline timeline;
    loop.set_timeline(&timeline);
    std::optional<fault::FaultInjector> injector;
    if (!plan.empty()) {
      injector.emplace(plan, ex.spec().nodes);
      loop.set_fault_injector(&*injector);
    }
    if (journal != nullptr) loop.set_journal(journal);
    const runtime::QueueReport r =
        resume != nullptr ? loop.recover(*resume) : loop.run();
    return report_fingerprint(r) + '\n' + timeline.to_csv_string();
  };
  const auto journal_text = [](const runtime::Journal& j) {
    std::string out;
    for (const auto& r : j.records())
      out += r.kind + ' ' + r.payload + '\n';
    return out;
  };

  // A 10-job journal holds about 30 records: a cadence of 1-8 puts several
  // snapshots in it, so the cuts restore and fold them rather than restart.
  runtime::JournalOptions jopt;
  jopt.snapshot_every = static_cast<int>(Rng(0x5AE7 + seed).uniform_int(1, 8));
  runtime::Journal reference(jopt);
  const std::string ref = run_with(&reference, nullptr);
  ASSERT_TRUE(reference.last_snapshot().has_value())
      << "seed " << seed << " every " << jopt.snapshot_every;
  const std::string ref_journal = journal_text(reference);

  Rng rng(0x171F + seed);
  for (int trial = 0; trial < 5; ++trial) {
    const auto kill = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(reference.size())));
    runtime::Journal j = reference;
    j.truncate(kill);
    EXPECT_EQ(run_with(nullptr, &j), ref)
        << "seed " << seed << " every " << jopt.snapshot_every << " kill@"
        << kill << " of " << reference.size();
    EXPECT_EQ(journal_text(j), ref_journal)
        << "seed " << seed << " every " << jopt.snapshot_every << " kill@"
        << kill << " of " << reference.size();
  }
}

// --------------------------------------------------- controller sweeps ----

class ControllerSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Caps, ControllerSweep,
                         ::testing::Values(40, 55, 70, 85, 100, 115, 130));

TEST_P(ControllerSweep, ThroughputBoundedAndMonotone) {
  const double cap = GetParam();
  const sim::MachineSpec spec;
  const sim::RaplControllerSim controller(spec);
  const auto w = *workloads::find_benchmark("BT-MZ");
  const auto trace = controller.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(cap));
  EXPECT_GT(trace.throughput, 0.0);
  EXPECT_LE(trace.throughput, 1.0 + 1e-9);
  const auto looser = controller.simulate(
      w, 24, parallel::AffinityPolicy::kScatter, 68.0, Watts(cap + 15.0));
  EXPECT_GE(looser.throughput, trace.throughput - 0.02);
}

// ----------------------------------------------- static-analyzer fuzz ----
//
// clip-analyze runs over every source file in CI, so its lexer, directive
// parser, function-span detector and flow engine must survive arbitrary
// byte soup: unterminated strings/comments, unbalanced braces, truncated
// directives, init-list lookalikes. The property is "never crash, never
// hang, always deterministic" — the exact findings on garbage are
// unspecified but must be well-formed and stable across runs.

class LintFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Soup, LintFuzz, ::testing::Range(0, 64));

TEST_P(LintFuzz, AnalyzerNeverChokesOnTokenSoup) {
  static const char* const kPieces[] = {
      "{", "}", "(", ")", "[", "]", ";", ":", "::", "->", ".", ",", "<",
      ">", "=", "+", "-", "*", "&", "|", "==", "&&", "#", "\"lit\"", "'c'",
      "\"unterminated", "/* unterminated", "//", "\\", "0x1f", "12.5",
      "try", "catch", "if", "for", "while", "operator", "noexcept",
      "return", "struct", "const", "static", "else", "do",
      "lock_guard", "scoped_lock", "unique_lock", "lock", "mu_",
      "jlog", "append_or_verify", "known_record_kinds", "journal_",
      "append", "load", "state_", "x_",
      "// clip-lint: journaled(state_, x_)",
      "// clip-lint: guards(mu_: state_)",
      "// clip-lint: guards(mu_@label: x_)",
      "// clip-lint: fallible(load)",
      "// clip-lint: allow(J1) reason",
      "// clip-lint: allow(",
      "// clip-lint: guards(",
      "// clip-lint:",
      "#include <mutex>",
  };
  constexpr std::size_t kVocab = sizeof(kPieces) / sizeof(kPieces[0]);

  Rng rng(0x11A7F022u + static_cast<std::uint64_t>(GetParam()));
  std::string src;
  const int pieces = static_cast<int>(rng.uniform_int(1, 400));
  for (int i = 0; i < pieces; ++i) {
    src += kPieces[rng.uniform_int(0, static_cast<std::int64_t>(kVocab) - 1)];
    const double sep = rng.uniform();
    src += sep < 0.70 ? " " : (sep < 0.95 ? "\n" : "");
  }
  // Half the cases additionally truncate mid-byte, modeling a torn read.
  if (rng.uniform() < 0.5 && !src.empty())
    src.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(src.size()) - 1)));

  const lint::FileResult a = lint::analyze_source(src, "soup.cpp");
  const lint::FileResult b = lint::analyze_source(src, "soup.cpp");
  ASSERT_EQ(a.findings.size(), b.findings.size()) << "non-deterministic";
  const auto& rules = lint::known_rules();
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].rule, b.findings[i].rule);
    EXPECT_EQ(a.findings[i].line, b.findings[i].line);
    EXPECT_EQ(a.findings[i].message, b.findings[i].message);
    EXPECT_GE(a.findings[i].line, 0);
    EXPECT_NE(std::find(rules.begin(), rules.end(), a.findings[i].rule),
              rules.end())
        << a.findings[i].rule;
  }
  // The project passes must also digest fuzzed facts without incident.
  std::vector<lint::FileResult> files = {a};
  (void)lint::project_rules(files);
}

}  // namespace
}  // namespace clip

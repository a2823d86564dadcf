// Fuzz-style property suites over randomly generated workloads and swept
// operating conditions: the simulator's physical invariants and CLIP's
// guarantees must hold across the whole valid signature space, not just the
// calibrated catalog. The byte-level suites (the knowledge-DB, timeline,
// run-record and journal loaders, the alert-rule parser, the telemetry
// request line, the analyzer) feed mutated input to a parser (`ctest -L
// fuzz`).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/knowledge_db.hpp"
#include "core/profiler.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "lint.hpp"
#include "obs/alerts.hpp"
#include "obs/session.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "runtime/run_report.hpp"
#include "sim/executor.hpp"
#include "sim/rapl_controller.hpp"
#include "temp_path.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
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
  std::vector<runtime::QueueJob> jobs;
  for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});
  runtime::QueueEventLoop queue(ex, sched, opt, jobs);
  fault::FaultInjector injector(plan, ex.spec().nodes);
  queue.set_fault_injector(&injector);

  const auto report = queue.run();  // termination is the first property

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
    EXPECT_LE(a.attempts, fault::kMaxAttempts);
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
  (void)runtime::QueueEventLoop(ex, sched, opt, jobs).run();

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

// ---------------------------------------------- knowledge-DB loader fuzz ----
//
// The knowledge DB is a file that outlives the process: a hand edit, a torn
// copy or a bad disk can leave any bytes in it. Each load of a mutated file
// must either throw PreconditionError and leave the database as it was, or
// succeed with records whose save loads back to the same keys.

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

/// One seeded edit: a flipped bit, an inserted byte from `inserts` (by
/// default a separator, quote, newline or digit), a deleted byte, a
/// truncation, or a duplicated line.
void mutate(std::string& bytes, Rng& rng,
            std::string_view inserts = ",\"\n0123456789") {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::int64_t kind = bytes.empty() ? 1 : rng.uniform_int(0, 4);
  if (kind == 0) {
    bytes[pick(bytes.size())] ^=
        static_cast<char>(1 << rng.uniform_int(0, 7));
  } else if (kind == 1) {
    bytes.insert(pick(bytes.size() + 1), 1, inserts[pick(inserts.size())]);
  } else if (kind == 2) {
    bytes.erase(pick(bytes.size()), 1);
  } else if (kind == 3) {
    bytes.resize(pick(bytes.size()));
  } else {
    const std::size_t at = pick(bytes.size());
    const std::size_t nl =
        at == 0 ? std::string::npos : bytes.rfind('\n', at - 1);
    const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
    const std::size_t next = bytes.find('\n', begin);
    const std::size_t end =
        next == std::string::npos ? bytes.size() : next + 1;
    bytes.insert(end, bytes.substr(begin, end - begin));
  }
}

std::vector<std::pair<std::string, std::string>> saved_keys(
    const std::filesystem::path& path) {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& row : read_csv(path).rows) keys.emplace_back(row[0], row[1]);
  return keys;
}

class KnowledgeDbFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KnowledgeDbFuzz, ::testing::Range(0, 32));

TEST_P(KnowledgeDbFuzz, MutatedFileRejectsCleanlyOrRoundTrips) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::filesystem::path path = unique_temp_path("clip_kdb_fuzz", ".csv");

  core::KnowledgeDb original;
  for (const char* app : {"SP-MZ", "CoMD", "TeaLeaf"}) {
    core::KnowledgeRecord r;
    r.name = app;
    r.parameters = "class C, 24 ranks";
    r.cls = workloads::ScalabilityClass::kParabolic;
    r.inflection = 14;
    r.perf_ratio = 0.85;
    r.per_core_bw_gbps = 2.5;
    r.node_bw_gbps = 48.0;
    r.memory_intensity = 0.4;
    r.time_all_s = 12.5;
    r.time_half_s = 14.7;
    r.time_validation_s = 13.1;
    r.validation_threads = 12;
    r.cpu_power_all_w = 180.0;
    r.mem_power_all_w = 30.0;
    r.cycles_active_all = 2.4e9;
    r.machine = "haswell-8x24";
    original.insert(r);
  }
  original.save(path);
  const std::string saved = read_bytes(path);

  core::KnowledgeRecord marker;
  marker.name = "marker";
  Rng rng(0xDBF022u + seed);
  for (int trial = 0; trial < 8; ++trial) {
    std::string bytes = saved;
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) mutate(bytes, rng);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial));

    core::KnowledgeDb db;
    db.insert(marker);
    try {
      db.load(path);
    } catch (const PreconditionError&) {
      EXPECT_EQ(db.size(), 1u);
      EXPECT_TRUE(db.lookup("marker", "").has_value());
      continue;
    }
    db.save(path);
    const auto keys = saved_keys(path);
    core::KnowledgeDb again;
    ASSERT_NO_THROW(again.load(path));
    again.save(path);
    EXPECT_EQ(saved_keys(path), keys);
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------ timeline loader fuzz ----
//
// A run record's flight recorder (timeline.csv) is read back by
// `clipctl report` (runtime::load_record) and `clipctl alerts`. Each load of a mutated recording must either
// throw PreconditionError or give a timeline whose CSV loads back to the
// same CSV: whatever a load accepts, it reads as write_csv would write it.

/// A queue run under every fault kind, with its flight recorder, journal and
/// spans. Its own executor and scheduler: the recording does not depend on
/// which cases ran before it in the process.
struct FaultedRun {
  FaultedRun() {
    sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
    core::ClipScheduler sched{ex, workloads::training_benchmarks()};
    fault::FaultPlanShape shape;
    shape.crashes = 1;
    shape.degrades = 1;
    shape.meter_faults = 2;
    shape.cap_violations = 2;
    shape.meter_blackouts = 1;
    shape.budget_cuts = 1;
    // The fault-free stream ends after about 81 simulated seconds.
    const auto plan =
        fault::FaultPlan::random(0x71CE, ex.spec().nodes, 70.0, shape);
    runtime::QueueOptions opt;
    opt.cluster_budget = budget;
    opt.redist.enabled = true;
    std::vector<runtime::QueueJob> jobs;
    for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});
    obs::MemorySink sink;
    session.set_sink(&sink);
    runtime::QueueEventLoop queue(ex, sched, opt, jobs);
    fault::FaultInjector injector(plan, ex.spec().nodes);
    queue.set_fault_injector(&injector);
    queue.set_timeline(&timeline);
    queue.set_observer(&session);
    queue.set_journal(&journal);
    report = queue.run();
    spans = sink.spans();
    session.set_sink(nullptr);
    metrics = &session.metrics();
  }

  Watts budget{700.0};
  runtime::QueueReport report;
  obs::Timeline timeline;
  runtime::Journal journal;
  std::vector<obs::SpanRecord> spans;
  obs::ObsSession session;
  const obs::MetricsRegistry* metrics = nullptr;  ///< the session's
};

const FaultedRun& faulted_run() {
  static const FaultedRun run;
  return run;
}

class TimelineCsvFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineCsvFuzz, ::testing::Range(0, 32));

TEST_P(TimelineCsvFuzz, MutatedRecordingRejectsCleanlyOrRoundTrips) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::filesystem::path path = unique_temp_path("clip_tl_fuzz", ".csv");
  const std::string recorded = faulted_run().timeline.to_csv_string();
  ASSERT_NE(recorded.find("\nevent,fault,"), std::string::npos);

  Rng rng(0x71F022u + seed);
  for (int trial = 0; trial < 8; ++trial) {
    std::string bytes = recorded;
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e)
      mutate(bytes, rng, ",\"\n0123456789 +-.e");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial));

    obs::Timeline loaded;
    try {
      loaded.load_csv(path);
    } catch (const PreconditionError&) {
      continue;
    }
    const std::string csv = loaded.to_csv_string();
    std::ofstream(path, std::ios::binary | std::ios::trunc) << csv;
    obs::Timeline again;
    ASSERT_NO_THROW(again.load_csv(path));
    EXPECT_EQ(again.to_csv_string(), csv);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------- run-record loader fuzz ----
//
// `clipctl report` renders a recorded run from its directory. Each render
// of a record whose jobs.csv, summary.csv or spans.csv took seeded byte
// edits must either throw PreconditionError naming the edited file or
// render.

class RunRecordFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RunRecordFuzz, ::testing::Range(0, 32));

TEST_P(RunRecordFuzz, MutatedRecordRejectsNamingTheFileOrRenders) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::filesystem::path dir = unique_temp_path("clip_rr_fuzz", "");
  const FaultedRun& run = faulted_run();
  ASSERT_FALSE(run.spans.empty());
  runtime::write_run_record(dir, run.budget, run.report, run.timeline,
                            run.spans);
  const std::string files[] = {runtime::RunRecordFiles::kJobs,
                               runtime::RunRecordFiles::kSummary,
                               runtime::RunRecordFiles::kSpans};
  std::vector<std::string> saved;
  for (const auto& f : files) saved.push_back(read_bytes(dir / f));

  Rng rng(0x22F022u + seed);
  for (int trial = 0; trial < 8; ++trial) {
    const auto which = static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::string bytes = saved[which];
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e)
      mutate(bytes, rng, ",\"\n0123456789 +-.e");
    std::ofstream(dir / files[which], std::ios::binary | std::ios::trunc)
        << bytes;
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial) + " " + files[which]);

    try {
      (void)runtime::render_json_report(dir);
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(files[which]), std::string::npos)
          << e.what();
    }
    std::ofstream(dir / files[which], std::ios::binary | std::ios::trunc)
        << saved[which];
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------- alert-rule parser fuzz ----
//
// `clipctl alerts` reads its rules from a file a person wrote. Each parse of
// a mutated catalog must either throw PreconditionError naming the file, or
// give rules whose rendering (`name severity expression()`, one per line)
// parses back to the same rules.

std::string render_rules(const std::vector<obs::AlertRule>& rules) {
  std::string text;
  for (const obs::AlertRule& r : rules)
    text += r.name + " " + obs::to_string(r.severity) + " " +
            r.expression() + "\n";
  return text;
}

class AlertRulesFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, AlertRulesFuzz, ::testing::Range(0, 32));

TEST_P(AlertRulesFuzz, MutatedRulesRejectNamingTheFileOrRoundTrip) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::string catalog =
      render_rules(obs::AlertEngine::default_rules());

  Rng rng(0xA1F022u + seed);
  for (int trial = 0; trial < 8; ++trial) {
    std::string text = catalog;
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e)
      mutate(text, rng, " \n0123456789+-.e(),>#p");
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial) + "\n" + text);

    std::vector<obs::AlertRule> rules;
    try {
      rules = obs::AlertEngine::parse_rules(text, "fuzz.rules");
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("fuzz.rules:"), std::string::npos)
          << e.what();
      continue;
    }
    const std::string rendered = render_rules(rules);
    std::vector<obs::AlertRule> again;
    ASSERT_NO_THROW(again = obs::AlertEngine::parse_rules(rendered, "again"))
        << rendered;
    ASSERT_EQ(again.size(), rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      EXPECT_EQ(again[i].name, rules[i].name);
      EXPECT_EQ(again[i].kind, rules[i].kind);
      EXPECT_EQ(again[i].severity, rules[i].severity);
      EXPECT_EQ(again[i].series, rules[i].series);
      EXPECT_EQ(again[i].level, rules[i].level);
      EXPECT_EQ(again[i].prefix, rules[i].prefix);
      EXPECT_EQ(again[i].threshold, rules[i].threshold);
    }
  }
}

// ---------------------------------------------- telemetry request fuzz ----
//
// The live plane answers whoever connects to its port. Each mutated target
// through TelemetryServer::respond must come back as one response: an
// `HTTP/1.0` status line with code 200, 400, 404 or 503, headers ended by a
// blank line, and a body of exactly Content-Length bytes. Odd trials also
// send a mutated raw request line (method, target and version) over a
// loopback socket: the connection gets exactly one such response, or none
// when the request holds no newline, and /healthz still answers after the
// loop.

/// The status code of `response` when it is framed as above; -1 when not.
int framed_status(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  if (!response.starts_with("HTTP/1.0 ") || head_end == std::string::npos)
    return -1;
  const std::string_view head(response.data(), head_end);
  if (head.find("\nHTTP/") != std::string_view::npos) return -1;
  constexpr std::string_view kLength = "\r\nContent-Length: ";
  const std::size_t at = head.find(kLength);
  if (at == std::string_view::npos) return -1;
  const std::size_t from = at + kLength.size();
  const std::optional<std::size_t> length = parse_whole<std::size_t>(
      head.substr(from, head.find("\r\n", from) - from));
  const std::optional<int> code =
      parse_whole<int>(std::string_view(response).substr(9, 3));
  if (!length || *length != response.size() - head_end - 4 || !code ||
      response.size() < 13 || response[12] != ' ')
    return -1;
  return *code;
}

bool known_status(int code) {
  return code == 200 || code == 400 || code == 404 || code == 503;
}

/// `request` sent raw to 127.0.0.1:`port`, the write side then closed, and
/// everything the server sends until it closes; nullopt when the
/// connection fails.
std::optional<std::string> raw_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  timeval tv{};
  tv.tv_sec = 5;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    (void)::close(fd);
    return std::nullopt;
  }
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  (void)::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  (void)::close(fd);
  return response;
}

class TelemetryRequestFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TelemetryRequestFuzz, ::testing::Range(0, 32));

TEST_P(TelemetryRequestFuzz, EveryRequestGetsOneWellFramedAnswer) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const FaultedRun& run = faulted_run();
  obs::TelemetryServer server(obs::TelemetryServerOptions{
      .port = 0, .metrics = run.metrics, .timeline = &run.timeline});
  obs::StatusSnapshot snap;
  snap.mode = seed % 2 == 0 ? "NORMAL" : "METER_BLACKOUT";  // 200 or 503
  server.publish(snap);
  const std::vector<std::string> series = run.timeline.series_names();
  ASSERT_FALSE(series.empty());

  Rng rng(0x7E1E0u + seed);
  for (int trial = 0; trial < 8; ++trial) {
    const auto pick = rng.uniform_int(0, 3);
    std::string target =
        pick == 0   ? "/metrics"
        : pick == 1 ? "/healthz"
        : pick == 2 ? "/status"
                    : "/timeline?series=" +
                          series[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(series.size()) -
                                     1))] +
                          "&n=" + std::to_string(rng.uniform_int(1, 40));
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e)
      mutate(target, rng, "?&=/%# \r\n0123456789+-x");
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial) + " target '" + target + "'");

    std::string response;
    ASSERT_NO_THROW(response = server.respond(target));
    EXPECT_TRUE(known_status(framed_status(response))) << response;

    if (trial % 2 == 0) continue;
    std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    const auto raw_edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < raw_edits; ++e)
      mutate(request, rng, " \r\nGETHP/.0");
    SCOPED_TRACE("request '" + request + "'");
    const std::optional<std::string> answer =
        raw_exchange(server.port(), request);
    ASSERT_TRUE(answer.has_value());
    if (request.find('\n') == std::string::npos)
      EXPECT_EQ(*answer, "");
    else
      EXPECT_TRUE(known_status(framed_status(*answer))) << *answer;
  }
  const std::string health =
      obs::http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_EQ(framed_status(health), seed % 2 == 0 ? 200 : 503) << health;
}

// ------------------------------------------------- journal loader fuzz ----
//
// Recovery reads the journal back from disk, where a torn write or a bad
// disk can leave any bytes. Journal::load may throw only for a bad header.
// Otherwise it keeps records numbered 1, 2, ... whose lines carry valid
// CRCs, counts every other record line as dropped, and what it kept saves
// and loads back unsalvaged. Odd trials re-sign every edited line, so the
// edits reach the record parser instead of stopping at the checksum.

std::vector<std::string> lines_of(const std::string& bytes) {
  std::vector<std::string> lines;
  std::istringstream in(bytes);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `#` and the record's CRC-32 in lower-case hex, as Journal::save ends a
/// line.
std::string crc_suffix(std::string_view body) {
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint32_t crc = runtime::crc32(body);
  std::string out = "#";
  for (int shift = 28; shift >= 0; shift -= 4)
    out += kHex[(crc >> shift) & 0xFu];
  return out;
}

/// Every line after the header that has a checksum slot, re-signed.
std::string reseal(const std::string& bytes) {
  std::string out;
  const std::vector<std::string> lines = lines_of(bytes);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    if (i > 0 && line.size() >= 10 && line[line.size() - 9] == '#') {
      line.resize(line.size() - 9);
      line += crc_suffix(line);
    }
    out += line + "\n";
  }
  return out;
}

class JournalLoadFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, JournalLoadFuzz, ::testing::Range(0, 32));

TEST_P(JournalLoadFuzz, MutatedJournalKeepsAValidPrefixOrRejectsTheHeader) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::filesystem::path path =
      unique_temp_path("clip_journal_fuzz", ".clipj");
  const FaultedRun& run = faulted_run();
  ASSERT_GT(run.journal.size(), 10u);
  run.journal.save(path);
  const std::string saved = read_bytes(path);
  const std::string header = lines_of(saved).front();

  Rng rng(0x70F022u + seed);
  for (int trial = 0; trial < 8; ++trial) {
    std::string bytes = saved;
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e)
      mutate(bytes, rng, " \n0123456789+-#");
    if (trial % 2 == 1) bytes = reseal(bytes);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial));
    const std::vector<std::string> lines = lines_of(bytes);

    runtime::Journal loaded;
    runtime::JournalLoadResult res;
    try {
      res = loaded.load(path);
    } catch (const PreconditionError& e) {
      EXPECT_TRUE(lines.empty() || lines.front() != header) << e.what();
      continue;
    }
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.front(), header);
    EXPECT_EQ(res.records, loaded.size());
    EXPECT_EQ(res.records + res.dropped_lines, lines.size() - 1);
    EXPECT_EQ(res.salvaged, res.dropped_lines > 0);
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      const runtime::JournalRecord& r = loaded.records()[i];
      const std::string& line = lines[i + 1];
      EXPECT_EQ(r.seq, i + 1);
      ASSERT_GE(line.size(), 10u);
      const std::string body = line.substr(0, line.size() - 9);
      EXPECT_EQ(line.substr(body.size()), crc_suffix(body)) << line;
      EXPECT_TRUE(body.ends_with(" " + r.kind + " " + r.payload)) << line;
    }

    loaded.save(path);
    runtime::Journal again;
    EXPECT_FALSE(again.load(path).salvaged);
    ASSERT_EQ(again.size(), loaded.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again.records()[i].seq, loaded.records()[i].seq);
      EXPECT_EQ(again.records()[i].kind, loaded.records()[i].kind);
      EXPECT_EQ(again.records()[i].payload, loaded.records()[i].payload);
    }
  }
  std::filesystem::remove(path);
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

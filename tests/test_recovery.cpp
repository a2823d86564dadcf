// Crash-consistency suite (docs/robustness.md): the write-ahead journal,
// QueueEventLoop::recover, the degraded-mode state machine, and durable
// file persistence. The headline property test kills the event loop at
// *every* event boundary under every resilience scenario (plus the
// degraded-mode scenarios) and requires the recovered run to be
// byte-identical to one that never died.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/knowledge_db.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "resilience_scenarios.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "sim/executor.hpp"
#include "sim/power_meter.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"
#include "workloads/catalog.hpp"

namespace clip {
namespace {

namespace fs = std::filesystem;

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

std::vector<runtime::QueueJob> paper_jobs() {
  std::vector<runtime::QueueJob> jobs;
  for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});
  return jobs;
}

std::string journal_text(const runtime::Journal& j) {
  std::ostringstream os;
  for (const auto& r : j.records())
    os << r.seq << ' ' << r.kind << ' ' << r.payload << '\n';
  return os.str();
}

// ------------------------------------------------------- journal basics ----

TEST(Journal, AppendAssignsContiguousSequenceAndTruncates) {
  runtime::Journal j;
  j.append("begin", "a=1");
  j.append("launch", "job=0");
  j.append("snapshot", "now=0");
  j.append("complete", "job=0");
  ASSERT_EQ(j.size(), 4u);
  EXPECT_EQ(j.records()[0].seq, 1u);
  EXPECT_EQ(j.records()[3].seq, 4u);
  ASSERT_TRUE(j.last_snapshot().has_value());
  EXPECT_EQ(*j.last_snapshot(), 2u);
  j.truncate(2);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_FALSE(j.last_snapshot().has_value());
  j.truncate(99);  // beyond the end: no-op
  EXPECT_EQ(j.size(), 2u);
}

TEST(Journal, AppendValidatesKindAndPayload) {
  runtime::Journal j;
  EXPECT_THROW(j.append("", "x"), PreconditionError);
  EXPECT_THROW(j.append("two words", "x"), PreconditionError);
  EXPECT_THROW(j.append("k", "line\nbreak"), PreconditionError);
  EXPECT_NO_THROW(j.append("k", ""));
}

TEST(Journal, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(runtime::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(runtime::crc32(""), 0x00000000u);
}

TEST(Journal, EscapeMakesAnyNameOneSpaceFreeLine) {
  const std::string raw = "a b\nc\\d \\n e,f;g";
  const std::string esc = runtime::journal_escape(raw);
  EXPECT_EQ(esc.find(' '), std::string::npos);
  EXPECT_EQ(esc.find('\n'), std::string::npos);
  EXPECT_EQ(esc, "a\\sb\\nc\\\\d\\s\\\\n\\se,f;g");
  // A literal backslash-s must not collide with an escaped space.
  EXPECT_NE(runtime::journal_escape("\\s"), runtime::journal_escape(" "));
  EXPECT_EQ(runtime::journal_escape(""), "");
}

TEST(Journal, SaveLoadRoundTripsExactly) {
  const fs::path path = fs::path(::testing::TempDir()) / "roundtrip.clipj";
  runtime::Journal j;
  j.append("begin", "budget=700 nodes=8");
  j.append("snapshot", "now=0 tl=a\\sb");
  j.append("end", "makespan=42");
  j.save(path);

  runtime::Journal loaded;
  const runtime::JournalLoadResult res = loaded.load(path);
  EXPECT_FALSE(res.salvaged);
  EXPECT_EQ(res.records, 3u);
  EXPECT_EQ(res.dropped_lines, 0u);
  ASSERT_EQ(loaded.size(), j.size());
  for (std::size_t i = 0; i < j.size(); ++i) {
    EXPECT_EQ(loaded.records()[i].seq, j.records()[i].seq);
    EXPECT_EQ(loaded.records()[i].kind, j.records()[i].kind);
    EXPECT_EQ(loaded.records()[i].payload, j.records()[i].payload);
  }
  fs::remove(path);
}

TEST(Journal, LoadSalvagesACorruptTail) {
  const fs::path path = fs::path(::testing::TempDir()) / "corrupt.clipj";
  runtime::Journal j;
  j.append("begin", "a=1");
  j.append("launch", "job=0");
  j.append("complete", "job=0");
  j.save(path);

  // Flip one payload byte of the second record: its CRC no longer matches.
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();
  const std::size_t pos = text.find("job=0");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 4] = '7';
  std::ofstream(path, std::ios::trunc) << text;

  runtime::Journal loaded;
  const runtime::JournalLoadResult res = loaded.load(path);
  EXPECT_TRUE(res.salvaged);
  EXPECT_EQ(res.records, 1u);  // the valid prefix
  EXPECT_EQ(res.dropped_lines, 2u);
  EXPECT_NE(res.gap.find("checksum mismatch"), std::string::npos) << res.gap;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.records()[0].kind, "begin");
  fs::remove(path);
}

TEST(Journal, LoadSalvagesATornLastLine) {
  const fs::path path = fs::path(::testing::TempDir()) / "torn.clipj";
  runtime::Journal j;
  j.append("begin", "a=1");
  j.append("launch", "job=0 attempt=1");
  j.save(path);

  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();
  // Kill mid-write of the final record: its tail (CRC included) is lost.
  std::ofstream(path, std::ios::trunc) << text.substr(0, text.size() - 8);

  runtime::Journal loaded;
  const runtime::JournalLoadResult res = loaded.load(path);
  EXPECT_TRUE(res.salvaged);
  EXPECT_EQ(res.records, 1u);
  EXPECT_NE(res.gap.find("line 3"), std::string::npos) << res.gap;
  fs::remove(path);
}

TEST(Journal, LoadRejectsMissingFileAndForeignHeader) {
  runtime::Journal j;
  EXPECT_THROW((void)j.load(fs::path(::testing::TempDir()) / "no-such.clipj"),
               PreconditionError);
  const fs::path path = fs::path(::testing::TempDir()) / "foreign.txt";
  std::ofstream(path) << "name,parameters\nfoo,bar\n";
  EXPECT_THROW((void)j.load(path), PreconditionError);
  fs::remove(path);
}

TEST(Journal, DescribeCountsRecordsByKind) {
  runtime::Journal j;
  j.append("begin", "");
  j.append("launch", "");
  j.append("launch", "");
  j.append("snapshot", "");
  const std::string d = j.describe();
  EXPECT_NE(d.find("4 records"), std::string::npos) << d;
  EXPECT_NE(d.find("(1 snapshots)"), std::string::npos) << d;
  EXPECT_NE(d.find("launch: 2"), std::string::npos) << d;
}

// ------------------------------------------------- durable persistence ----

TEST(DurableWrites, AtomicWriteReplacesContentsAndLeavesNoTemp) {
  const fs::path path =
      fs::path(::testing::TempDir()) / "fsio" / "nested" / "file.txt";
  atomic_write_file(path, "first");
  atomic_write_file(path, "second contents");
  std::ifstream is(path);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "second contents");
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  fs::remove_all(fs::path(::testing::TempDir()) / "fsio");
}

core::KnowledgeRecord sample_record(const std::string& name) {
  core::KnowledgeRecord r;
  r.name = name;
  r.parameters = "C";
  r.perf_ratio = 1.4;
  r.time_all_s = 10.0;
  r.time_half_s = 14.0;
  r.cpu_power_all_w = 80.0;
  r.mem_power_all_w = 12.0;
  r.node_bw_gbps = 30.0;
  r.per_core_bw_gbps = 2.0;
  r.cycles_active_all = 1e9;
  return r;
}

TEST(DurableWrites, KnowledgeDbSurvivesAMidSaveKill) {
  const fs::path dir = fs::path(::testing::TempDir()) / "kdb";
  fs::create_directories(dir);
  const fs::path path = dir / "knowledge.csv";

  core::KnowledgeDb db;
  db.insert(sample_record("BT-MZ"));
  db.insert(sample_record("SP-MZ"));
  db.save(path);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));  // rename consumed it

  // A coordinator killed mid-save dies after writing part of the temp file
  // and before the rename: the published DB must be untouched.
  std::ofstream(path.string() + ".tmp") << "name,parameters\nBT-MZ";
  core::KnowledgeDb reread;
  reread.load(path);
  EXPECT_EQ(reread.size(), 2u);
  EXPECT_TRUE(reread.lookup("BT-MZ", "C").has_value());

  // The next save simply overwrites the stale temp and publishes atomically.
  db.insert(sample_record("LU-MZ"));
  db.save(path);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  reread.load(path);
  EXPECT_EQ(reread.size(), 3u);
  fs::remove_all(dir);
}

TEST(DurableWrites, KnowledgeDbRejectsATornFileWithoutPoisoningItself) {
  const fs::path dir = fs::path(::testing::TempDir()) / "kdb-torn";
  fs::create_directories(dir);
  const fs::path good = dir / "good.csv";
  const fs::path torn = dir / "torn.csv";

  core::KnowledgeDb db;
  db.insert(sample_record("BT-MZ"));
  db.save(good);

  // A prefix cut mid-row models pre-atomic-rename torn output.
  std::ifstream is(good);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  is.close();
  std::ofstream(torn) << text.substr(0, text.size() - text.size() / 3);

  core::KnowledgeDb loaded;
  loaded.load(good);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_THROW(loaded.load(torn), PreconditionError);
  // The staged load left the in-memory DB exactly as it was.
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.lookup("BT-MZ", "C").has_value());
  fs::remove_all(dir);
}

// --------------------------------------------------- journaled running ----

/// Shared substrate for queue runs: one executor and one scheduler whose
/// knowledge DB is warmed by a fault-free run, so the reference run and
/// every recovery schedule from identical cached profiles.
struct Cluster {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueOptions opt;
  std::vector<runtime::QueueJob> jobs = paper_jobs();
  double horizon_s = 0.0;

  Cluster() {
    opt.cluster_budget = Watts(700.0);
    runtime::PowerAwareJobQueue warm(ex, sched, opt);
    horizon_s = warm.run(jobs).makespan_s;
  }

  struct Run {
    runtime::QueueReport report;
    std::string fp;
    std::string timeline_csv;
  };

  Run run(const fault::FaultPlan& plan, runtime::Journal* journal,
          obs::ObsSession* session = nullptr) {
    runtime::QueueEventLoop loop(ex, sched, opt, jobs);
    obs::Timeline timeline;
    loop.set_timeline(&timeline);
    std::optional<fault::FaultInjector> injector;
    if (!plan.empty()) {
      injector.emplace(plan, ex.spec().nodes);
      loop.set_fault_injector(&*injector);
    }
    if (journal != nullptr) loop.set_journal(journal);
    if (session != nullptr) loop.set_observer(session);
    Run out;
    out.report = loop.run();
    out.fp = fingerprint(out.report);
    out.timeline_csv = timeline.to_csv_string();
    return out;
  }

  Run recover(const fault::FaultPlan& plan, runtime::Journal& journal,
              obs::ObsSession* session = nullptr) {
    runtime::QueueEventLoop loop(ex, sched, opt, jobs);
    obs::Timeline timeline;
    loop.set_timeline(&timeline);
    std::optional<fault::FaultInjector> injector;
    if (!plan.empty()) {
      injector.emplace(plan, ex.spec().nodes);
      loop.set_fault_injector(&*injector);
    }
    if (session != nullptr) loop.set_observer(session);
    Run out;
    out.report = loop.recover(journal);
    out.fp = fingerprint(out.report);
    out.timeline_csv = timeline.to_csv_string();
    return out;
  }
};

Cluster& cluster() {
  static Cluster c;
  return c;
}

/// The shared catalog: 7 resilience scenarios + 3 degraded-mode ones.
std::vector<bench::Scenario> recovery_scenarios(double horizon_s) {
  return bench::make_recovery_scenarios(horizon_s);
}
constexpr int kRecoveryScenarios = 10;  // 7 catalog + 3 degraded-mode

TEST(JournaledRun, AttachingAJournalDoesNotChangeTheRun) {
  Cluster& c = cluster();
  const auto scenarios = recovery_scenarios(c.horizon_s);
  const fault::FaultPlan& plan = scenarios.back().plan;  // modes-combined
  const Cluster::Run plain = c.run(plan, nullptr);
  runtime::Journal journal;
  const Cluster::Run journaled = c.run(plan, &journal);
  EXPECT_EQ(journaled.fp, plain.fp);
  EXPECT_EQ(journaled.timeline_csv, plain.timeline_csv);
}

TEST(JournaledRun, JournalRecordsTheWholeRun) {
  Cluster& c = cluster();
  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;  // dense: the snapshot counter must tick
  runtime::Journal journal(jopt);
  obs::ObsSession session;
  const Cluster::Run run = c.run({}, &journal, &session);
  ASSERT_FALSE(journal.empty());
  const auto& records = journal.records();
  EXPECT_EQ(records.front().kind, "begin");
  EXPECT_EQ(records[1].kind, "admit");  // one record, the whole job stream
  EXPECT_EQ(records.back().kind, "end");
  int launches = 0;
  int completes = 0;
  for (const auto& r : records) {
    launches += r.kind == "launch" ? 1 : 0;
    completes += r.kind == "complete" ? 1 : 0;
  }
  EXPECT_EQ(launches, static_cast<int>(c.jobs.size()));
  EXPECT_EQ(completes, static_cast<int>(run.report.jobs_completed()));
  const auto* n = session.metrics().find_counter("journal.records");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->value(), journal.size());
  const auto* snaps = session.metrics().find_counter("journal.snapshots");
  ASSERT_NE(snaps, nullptr);
  EXPECT_GE(snaps->value(), 1u);
}

// The tentpole property: kill the coordinator at every event boundary of
// every scenario; recovery must finish the run with byte-identical report
// and timeline, and leave the journal byte-identical to the uninterrupted
// run's.
class KillPoint : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Scenarios, KillPoint,
                         ::testing::Range(0, kRecoveryScenarios));

TEST_P(KillPoint, EveryEventBoundaryRecoversByteIdentically) {
  Cluster& c = cluster();
  const auto scenarios = recovery_scenarios(c.horizon_s);
  const bench::Scenario& s =
      scenarios[static_cast<std::size_t>(GetParam())];

  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;  // dense snapshots: more distinct restore points
  runtime::Journal reference(jopt);
  const Cluster::Run ref = c.run(s.plan, &reference);
  ASSERT_EQ(ref.report.jobs_completed(), c.jobs.size()) << s.name;
  const std::string ref_journal = journal_text(reference);

  for (std::size_t kill = 0; kill <= reference.size(); ++kill) {
    runtime::Journal j = reference;
    j.truncate(kill);
    const Cluster::Run rec = c.recover(s.plan, j);
    ASSERT_EQ(rec.fp, ref.fp) << s.name << " kill@" << kill;
    ASSERT_EQ(rec.timeline_csv, ref.timeline_csv)
        << s.name << " kill@" << kill;
    ASSERT_EQ(journal_text(j), ref_journal) << s.name << " kill@" << kill;
  }
}

// A ring-buffered flight recorder evicts points between snapshots, some
// before any snapshot wrote them; recovery must still rebuild the same
// window, and the deltas it writes next must match the dying run's.
TEST(Recovery, RingBufferedTimelineRecoversByteIdentically) {
  Cluster& c = cluster();
  const auto scenarios = recovery_scenarios(c.horizon_s);
  const fault::FaultPlan& plan = scenarios[1].plan;  // crash-1
  obs::TimelineOptions ring;
  ring.ring_capacity = 3;
  std::uint64_t dropped = 0;
  const auto drive = [&](runtime::Journal* journal,
                         runtime::Journal* resume) {
    runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, c.jobs);
    obs::Timeline timeline(ring);
    fault::FaultInjector injector(plan, c.ex.spec().nodes);
    loop.set_timeline(&timeline);
    loop.set_fault_injector(&injector);
    if (journal != nullptr) loop.set_journal(journal);
    const runtime::QueueReport r =
        resume != nullptr ? loop.recover(*resume) : loop.run();
    dropped = timeline.dropped();
    return fingerprint(r) + '\n' + timeline.to_csv_string();
  };

  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;
  runtime::Journal reference(jopt);
  const std::string ref = drive(&reference, nullptr);
  ASSERT_GT(dropped, 0u) << "the ring never evicted; test covers nothing";
  const std::string ref_journal = journal_text(reference);
  for (std::size_t kill = 0; kill <= reference.size(); ++kill) {
    runtime::Journal j = reference;
    j.truncate(kill);
    ASSERT_EQ(drive(nullptr, &j), ref) << "kill@" << kill;
    ASSERT_EQ(journal_text(j), ref_journal) << "kill@" << kill;
  }
}

TEST(Recovery, CountersAccountReplayAndRecovery) {
  Cluster& c = cluster();
  const auto scenarios = recovery_scenarios(c.horizon_s);
  const fault::FaultPlan& plan = scenarios[1].plan;  // crash-1
  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;  // dense: recovery must replay, not restart
  runtime::Journal journal(jopt);
  const Cluster::Run ref = c.run(plan, &journal);
  ASSERT_TRUE(journal.last_snapshot().has_value());

  runtime::Journal j = journal;
  // Die one record past the last snapshot: recovery must restore it and
  // replay (at least) that one surviving record before resuming.
  const std::size_t snap = *journal.last_snapshot();
  ASSERT_LE(snap + 2, journal.size());
  j.truncate(snap + 2);
  obs::ObsSession session;
  const Cluster::Run rec = c.recover(plan, j, &session);
  EXPECT_EQ(rec.fp, ref.fp);
  const auto* recoveries = session.metrics().find_counter("journal.recoveries");
  ASSERT_NE(recoveries, nullptr);
  EXPECT_EQ(recoveries->value(), 1u);
  const auto* replayed = session.metrics().find_counter("journal.replayed");
  ASSERT_NE(replayed, nullptr);
  EXPECT_GE(replayed->value(), 1u);
  EXPECT_EQ(session.metrics().find_counter("journal.gaps"), nullptr);
}

TEST(Recovery, DivergentSuffixIsTruncatedAsALoggedGap) {
  Cluster& c = cluster();
  const auto scenarios = recovery_scenarios(c.horizon_s);
  const fault::FaultPlan& plan = scenarios[1].plan;  // crash-1
  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;  // dense: the divergent record must follow a snapshot
  runtime::Journal journal(jopt);
  const Cluster::Run ref = c.run(plan, &journal);
  ASSERT_TRUE(journal.last_snapshot().has_value());

  // Corrupt the journal *after* the last snapshot in a way the CRC cannot
  // catch (the record is well-formed, just wrong): replay must detect the
  // divergence, salvage the prefix, and still finish byte-identically.
  runtime::Journal j = journal;
  j.truncate(*journal.last_snapshot() + 1);
  j.append("launch", "job=0 attempt=9 nodes=0 slice=1 end=2 crashed=0");

  obs::ObsSession session;
  const Cluster::Run rec = c.recover(plan, j, &session);
  EXPECT_EQ(rec.fp, ref.fp);
  const auto* gaps = session.metrics().find_counter("journal.gaps");
  ASSERT_NE(gaps, nullptr);
  EXPECT_EQ(gaps->value(), 1u);
  EXPECT_EQ(journal_text(j), journal_text(journal));
}

TEST(Recovery, RejectsAJournalFromADifferentConfiguration) {
  Cluster& c = cluster();
  runtime::Journal journal;
  (void)c.run({}, &journal);

  // Different budget: the begin record no longer matches.
  runtime::QueueOptions other = c.opt;
  other.cluster_budget = Watts(800.0);
  runtime::QueueEventLoop wrong_budget(c.ex, c.sched, other, c.jobs);
  obs::Timeline tl1;
  wrong_budget.set_timeline(&tl1);
  runtime::Journal j1 = journal;
  EXPECT_THROW((void)wrong_budget.recover(j1), PreconditionError);

  // Different job stream: the admit records no longer match.
  std::vector<runtime::QueueJob> fewer(c.jobs.begin(), c.jobs.end() - 1);
  runtime::QueueEventLoop wrong_jobs(c.ex, c.sched, c.opt, fewer);
  obs::Timeline tl2;
  wrong_jobs.set_timeline(&tl2);
  runtime::Journal j2 = journal;
  EXPECT_THROW((void)wrong_jobs.recover(j2), PreconditionError);
}

TEST(Recovery, RejectsAJournalWithoutTheSnapshotFormatByName) {
  Cluster& c = cluster();
  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;
  runtime::Journal journal(jopt);
  (void)c.run({}, &journal);
  const std::string& begin = journal.records().front().payload;
  ASSERT_EQ(begin.rfind("snapfmt=2 ", 0), 0u) << begin;

  // The same run as an older build wrote it: no format token in `begin`.
  runtime::Journal old(jopt);
  old.append("begin", begin.substr(std::string("snapfmt=2 ").size()));
  for (std::size_t i = 1; i < journal.size(); ++i)
    old.append(journal.records()[i].kind, journal.records()[i].payload);
  runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, c.jobs);
  obs::Timeline timeline;
  loop.set_timeline(&timeline);
  try {
    (void)loop.recover(old);
    ADD_FAILURE() << "a journal without snapfmt=2 was recovered";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("snapshot format"), std::string::npos) << what;
    EXPECT_NE(what.find("snapfmt=2"), std::string::npos) << what;
  }
}

TEST(Recovery, EmptyJournalRecoversByRestartingFromScratch) {
  Cluster& c = cluster();
  const Cluster::Run plain = c.run({}, nullptr);
  runtime::Journal j;
  const Cluster::Run rec = c.recover({}, j);
  EXPECT_EQ(rec.fp, plain.fp);
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.records().front().kind, "begin");
  EXPECT_EQ(j.records().back().kind, "end");
}

// ---------------------------------------------------- snapshot bounds ----
// restore_state feeds indices and enum values from a snapshot back into the
// loop's tables. A CRC-valid record holding one out of range must be
// refused by name, never index past a table.

using Edit = std::function<std::string(const std::string&)>;

/// `payload` with the value of token `key` passed through `edit`.
std::string edit_token(const std::string& payload, const std::string& key,
                       const Edit& edit) {
  const std::string needle = " " + key + "=";
  const std::size_t at = payload.find(needle);
  if (at == std::string::npos) {
    ADD_FAILURE() << "snapshot has no token " << key;
    return payload;
  }
  const std::size_t from = at + needle.size();
  const std::size_t to = std::min(payload.find(' ', from), payload.size());
  return payload.substr(0, from) + edit(payload.substr(from, to - from)) +
         payload.substr(to);
}

/// `value` with its `field`-th `sep`-separated field replaced by `with`.
Edit set_field(char sep, std::size_t field, std::string with) {
  return [=](const std::string& value) {
    std::size_t from = 0;
    for (std::size_t i = 0; i < field; ++i) from = value.find(sep, from) + 1;
    const std::size_t to = std::min(value.find(sep, from), value.size());
    return value.substr(0, from) + with + value.substr(to);
  };
}

/// What recover() says when the first crash-1 snapshot holding a running
/// job and changed job rows has its token `key` passed through `edit`, with
/// the journal cut right after it ("" when it recovered).
std::string refusal(const std::string& key, const Edit& edit) {
  Cluster& c = cluster();
  const fault::FaultPlan plan = recovery_scenarios(c.horizon_s)[1].plan;
  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;
  runtime::Journal reference(jopt);
  (void)c.run(plan, &reference);
  const auto& records = reference.records();
  std::size_t snap = 0;
  while (snap < records.size() &&
         (records[snap].kind != "snapshot" ||
          records[snap].payload.find(" run.n=0 ") != std::string::npos ||
          records[snap].payload.find(" rows=- ") != std::string::npos))
    ++snap;
  if (snap == records.size()) {
    ADD_FAILURE() << "no snapshot holds a running job";
    return "";
  }
  runtime::Journal cut(jopt);
  for (std::size_t i = 0; i < snap; ++i)
    cut.append(records[i].kind, records[i].payload);
  cut.append("snapshot", edit_token(records[snap].payload, key, edit));
  try {
    (void)c.recover(plan, cut);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

bool names(const std::string& what, const std::string& field) {
  return what.find("snapshot " + field + " out of range") != std::string::npos;
}

/// One past the last valid job index and node id.
std::string job_count() { return std::to_string(cluster().jobs.size()); }
std::string node_count() { return std::to_string(cluster().ex.spec().nodes); }

TEST(SnapshotBounds, JobRowIndexIsChecked) {
  const std::string what = refusal("rows", set_field(':', 0, job_count()));
  EXPECT_TRUE(names(what, "job row index")) << what;
}

TEST(SnapshotBounds, RunningJobIndexIsChecked) {
  const std::string what = refusal("run.0", set_field(':', 0, job_count()));
  EXPECT_TRUE(names(what, "running job index")) << what;
}

TEST(SnapshotBounds, NodeIdsAreChecked) {
  for (const std::string& id : {node_count(), std::string("-1")}) {
    const std::string what = refusal("ids.0", set_field('/', 0, id));
    EXPECT_TRUE(names(what, "node id")) << id << ": " << what;
  }
}

TEST(SnapshotBounds, EnforcementNodeIsChecked) {
  const std::string what = refusal(
      "enf", [](const std::string&) { return "1.5:" + node_count(); });
  EXPECT_TRUE(names(what, "enforcement node")) << what;
}

TEST(SnapshotBounds, EnumFieldsAreChecked) {
  std::string what = refusal("mode", set_field(':', 0, "3"));
  EXPECT_TRUE(names(what, "mode")) << what;
  what = refusal("cfg.0", set_field(':', 2, "2"));
  EXPECT_TRUE(names(what, "config affinity")) << what;
  what = refusal("cfg.0", set_field(':', 3, "4"));
  EXPECT_TRUE(names(what, "config mem level")) << what;
}

// Redistribution emits its own journal record kinds (tick/shift/grant/claw)
// and snapshot tokens (det=/claw-scheduled); a redist-enabled run with
// crashes must recover byte-identically from every snapshot boundary too.
TEST(Recovery, RedistributionEnabledRunsRecoverByteIdentically) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(700.0);
  opt.redist.enabled = true;
  const std::vector<runtime::QueueJob> jobs = paper_jobs();
  double horizon_s = 0.0;
  {
    runtime::PowerAwareJobQueue warm(ex, sched, opt);
    horizon_s = warm.run(jobs).makespan_s;
  }
  fault::FaultPlan plan;
  plan.crashes.push_back({2, 0.25 * horizon_s});
  plan.crashes.push_back({6, 0.55 * horizon_s});

  const auto drive = [&](runtime::Journal* journal,
                         runtime::Journal* resume) {
    runtime::QueueEventLoop loop(ex, sched, opt, jobs);
    obs::Timeline timeline;
    fault::FaultInjector injector(plan, ex.spec().nodes);
    loop.set_timeline(&timeline);
    loop.set_fault_injector(&injector);
    if (journal != nullptr) loop.set_journal(journal);
    const runtime::QueueReport r =
        resume != nullptr ? loop.recover(*resume) : loop.run();
    return fingerprint(r) + '\n' + timeline.to_csv_string();
  };

  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;  // dense: the kill sweep must cross snapshots
  runtime::Journal reference(jopt);
  const std::string ref = drive(&reference, nullptr);
  const std::string ref_journal = journal_text(reference);
  bool saw_redist_kind = false;
  for (const auto& r : reference.records())
    saw_redist_kind |= r.kind == "tick" || r.kind == "grant" ||
                       r.kind == "claw-scheduled" || r.kind == "shift";
  EXPECT_TRUE(saw_redist_kind)
      << "plan produced no redistribution records; test covers nothing";

  // Every 7th boundary plus the very end: cheap but still crosses several
  // snapshots and the redistribution record kinds.
  for (std::size_t kill = 0; kill <= reference.size(); kill += 7) {
    runtime::Journal j = reference;
    j.truncate(kill);
    ASSERT_EQ(drive(nullptr, &j), ref) << "kill@" << kill;
    ASSERT_EQ(journal_text(j), ref_journal) << "kill@" << kill;
  }
  runtime::Journal j = reference;
  j.truncate(reference.size());
  EXPECT_EQ(drive(nullptr, &j), ref);
}

// ----------------------------------------------------- degraded modes ----

TEST(DegradedModes, PlansWithoutModeEventsNeverLeaveNormal) {
  Cluster& c = cluster();
  fault::FaultPlan plan;
  plan.crashes.push_back({3, 0.3 * c.horizon_s});
  runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, c.jobs);
  obs::Timeline timeline;
  obs::ObsSession session;
  fault::FaultInjector injector(plan, c.ex.spec().nodes);
  loop.set_timeline(&timeline);
  loop.set_observer(&session);
  loop.set_fault_injector(&injector);
  (void)loop.run();
  EXPECT_EQ(loop.mode(), runtime::DegradedMode::kNormal);
  EXPECT_TRUE(timeline.events("mode").empty());
  EXPECT_TRUE(timeline.samples("mode.current").empty());
  EXPECT_EQ(session.metrics().find_counter("mode.transitions"), nullptr);
}

TEST(DegradedModes, MeterBlackoutFreezesTheGuardAndLogsTheMode) {
  Cluster& c = cluster();
  // A cap violation the guard normally claws back within its reaction
  // latency...
  fault::FaultPlan lit;
  lit.cap_violations.push_back(
      {0, 0.1 * c.horizon_s, 0.5 * c.horizon_s, 90.0});
  const Cluster::Run with_guard = c.run(lit, nullptr);
  EXPECT_GE(with_guard.report.caps_reprogrammed, 1);

  // ...goes unanswered while every meter is dark: nothing trustworthy to
  // read, so no overshoot detection, no claw-back, more violation seconds.
  fault::FaultPlan dark = lit;
  dark.meter_blackouts.push_back({0.05 * c.horizon_s, 0.9 * c.horizon_s});
  obs::ObsSession session;
  runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, c.jobs);
  obs::Timeline timeline;
  fault::FaultInjector injector(dark, c.ex.spec().nodes);
  loop.set_timeline(&timeline);
  loop.set_observer(&session);
  loop.set_fault_injector(&injector);
  const runtime::QueueReport r = loop.run();
  EXPECT_EQ(r.caps_reprogrammed, 0);
  EXPECT_GT(r.violation_s, with_guard.report.violation_s);
  ASSERT_FALSE(timeline.events("mode").empty());
  EXPECT_EQ(timeline.events("mode").front().label, "METER_BLACKOUT");
  const auto* transitions = session.metrics().find_counter("mode.transitions");
  ASSERT_NE(transitions, nullptr);
  EXPECT_GE(transitions->value(), 1u);
  const auto* blackouts = session.metrics().find_counter("fault.blackouts");
  ASSERT_NE(blackouts, nullptr);
  EXPECT_EQ(blackouts->value(), 1u);
}

TEST(DegradedModes, BudgetCutClawsBackProportionallyAndPausesAdmission) {
  Cluster& c = cluster();
  fault::FaultPlan plan;
  const fault::BudgetCut cut{0.2 * c.horizon_s, 0.5 * c.horizon_s, 0.5};
  plan.budget_cuts.push_back(cut);

  obs::ObsSession session;
  runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, c.jobs);
  obs::Timeline timeline;
  fault::FaultInjector injector(plan, c.ex.spec().nodes);
  loop.set_timeline(&timeline);
  loop.set_observer(&session);
  loop.set_fault_injector(&injector);
  const runtime::QueueReport r = loop.run();

  // Every job still completes: a brownout slows the cluster, it does not
  // lose work.
  EXPECT_EQ(r.jobs_completed(), c.jobs.size());
  bool entered = false;
  for (const auto& e : timeline.events("mode"))
    entered = entered || e.label == "BUDGET_BROWNOUT";
  EXPECT_TRUE(entered);
  const auto* claws = session.metrics().find_counter("mode.brownout_claws");
  ASSERT_NE(claws, nullptr);
  EXPECT_GE(claws->value(), 1u);
  const auto* cuts = session.metrics().find_counter("fault.budget_cuts");
  ASSERT_NE(cuts, nullptr);
  EXPECT_EQ(cuts->value(), 1u);
  // Admission pause: no job starts inside the cut window.
  for (const auto& job : r.jobs) {
    const bool inside = job.start_s >= cut.at_s &&
                        job.start_s < cut.at_s + cut.duration_s;
    EXPECT_FALSE(inside && job.attempts == 1)
        << job.app << " started at " << job.start_s
        << " inside the brownout window";
  }
}

TEST(DegradedModes, BrownoutTakesDisplayPrecedenceOverBlackout) {
  Cluster& c = cluster();
  fault::FaultPlan plan;
  plan.meter_blackouts.push_back({0.1 * c.horizon_s, 0.6 * c.horizon_s});
  plan.budget_cuts.push_back({0.2 * c.horizon_s, 0.2 * c.horizon_s, 0.7});

  runtime::QueueEventLoop loop(c.ex, c.sched, c.opt, c.jobs);
  obs::Timeline timeline;
  fault::FaultInjector injector(plan, c.ex.spec().nodes);
  loop.set_timeline(&timeline);
  loop.set_fault_injector(&injector);
  (void)loop.run();

  // The "mode" stream carries transition labels and brownout-claw events;
  // keep only the transitions (claws precede the BUDGET_BROWNOUT label,
  // which update_mode emits after applying the new budget).
  std::vector<std::string> labels;
  for (const auto& e : timeline.events("mode"))
    if (e.label.rfind("brownout-claw", 0) != 0) labels.push_back(e.label);
  ASSERT_GE(labels.size(), 3u);
  EXPECT_EQ(labels[0], "METER_BLACKOUT");
  EXPECT_EQ(labels[1], "BUDGET_BROWNOUT");
  // The cut ends inside the blackout: the machine falls back to blackout,
  // not straight to normal.
  EXPECT_EQ(labels[2], "METER_BLACKOUT");
}

// ------------------------------------------------------- facade wiring ----

TEST(Facade, PowerAwareJobQueueForwardsTheJournal) {
  Cluster& c = cluster();
  runtime::PowerAwareJobQueue queue(c.ex, c.sched, c.opt);
  runtime::Journal journal;
  queue.set_journal(&journal);
  const runtime::QueueReport direct = queue.run(c.jobs);
  ASSERT_FALSE(journal.empty());
  EXPECT_EQ(journal.records().back().kind, "end");
  const Cluster::Run plain = c.run({}, nullptr);
  EXPECT_EQ(fingerprint(direct), plain.fp);
}

}  // namespace
}  // namespace clip

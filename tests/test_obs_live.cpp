// Tests for the live observability plane: the embeddable telemetry server
// (socketless routing and real-socket integration over every endpoint), the
// causal trace context threaded queue → journal → run report, the
// replay-suppression contract during crash recovery, and the declarative
// SLO/alert engine. Byte-identity assertions pin the determinism contract:
// a run with the whole plane attached reports exactly what a detached run
// reports.
#include <gtest/gtest.h>

#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "runtime/journal.hpp"
#include "runtime/launcher.hpp"
#include "runtime/queue.hpp"
#include "runtime/run_report.hpp"
#include "sim/executor.hpp"
#include "sim/power_meter.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"

namespace clip {
namespace {

namespace fs = std::filesystem;

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

/// Unique per test case *and* process (ctest -j runs cases concurrently).
fs::path temp_dir(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return fs::temp_directory_path() /
         (stem + "." + info->name() + "." + std::to_string(::getpid()));
}

/// Bit-exact textual fingerprint of a QueueReport's *scheduling* outcome
/// (hexfloat doubles; trace ids deliberately excluded — they are metadata
/// the byte-identity contract says must not move the schedule).
std::string fingerprint(const runtime::QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.node_seconds_used << '|'
     << r.violation_s << '|' << r.violation_ws << '|' << r.retries << '|'
     << r.jobs_failed;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes
       << ',' << j.budget_w << ',' << j.power_w << ',' << j.attempts << ','
       << j.completed;
  return os.str();
}

std::vector<runtime::QueueJob> paper_jobs() {
  std::vector<runtime::QueueJob> jobs;
  for (const auto& a : workloads::paper_benchmarks()) jobs.push_back({a, 0});
  return jobs;
}

/// Shared substrate: one executor/scheduler pair with a warmed knowledge
/// DB, so every run in this suite schedules from identical cached profiles.
struct Cluster {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueOptions opt;
  std::vector<runtime::QueueJob> jobs = paper_jobs();

  Cluster() {
    opt.cluster_budget = Watts(700.0);
    runtime::PowerAwareJobQueue warm(ex, sched, opt);
    (void)warm.run(jobs);
  }

  struct Run {
    runtime::QueueReport report;
    std::string fp;
    std::string timeline_csv;
  };

  Run run(const runtime::QueueOptions& options,
          obs::ObsSession* session = nullptr,
          runtime::Journal* journal = nullptr,
          obs::Timeline* timeline = nullptr) {
    runtime::QueueEventLoop loop(ex, sched, options, jobs);
    obs::Timeline local;
    obs::Timeline* tl = timeline != nullptr ? timeline : &local;
    loop.set_timeline(tl);
    if (session != nullptr) loop.set_observer(session);
    if (journal != nullptr) loop.set_journal(journal);
    Run out;
    out.report = loop.run();
    out.fp = fingerprint(out.report);
    out.timeline_csv = tl->to_csv_string();
    return out;
  }

  Run recover(const runtime::QueueOptions& options, runtime::Journal& journal,
              obs::ObsSession* session = nullptr) {
    runtime::QueueEventLoop loop(ex, sched, options, jobs);
    obs::Timeline timeline;
    loop.set_timeline(&timeline);
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

// ------------------------------------------------- telemetry server ----

TEST(TelemetryServer, HealthzFollowsTheDegradedModeMachine) {
  obs::TelemetryServer server(obs::TelemetryServerOptions{});
  // Before any publish: default snapshot is NORMAL.
  EXPECT_NE(server.respond("/healthz").find("200 OK"), std::string::npos);

  obs::StatusSnapshot snap;
  snap.mode = "METER_BLACKOUT";
  server.publish(snap);
  const std::string degraded = server.respond("/healthz");
  EXPECT_NE(degraded.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(degraded.find("degraded mode=METER_BLACKOUT"),
            std::string::npos);

  snap.mode = "NORMAL";
  server.publish(snap);
  EXPECT_NE(server.respond("/healthz").find("ok mode=NORMAL"),
            std::string::npos);
}

TEST(TelemetryServer, StatusReflectsTheLatestPublishedSnapshot) {
  obs::TelemetryServer server(obs::TelemetryServerOptions{});
  obs::StatusSnapshot snap;
  snap.now_s = 12.5;
  snap.queue_depth = 3;
  snap.running_jobs = 2;
  snap.free_watts = 140.0;
  snap.mode = "BUDGET_BROWNOUT";
  snap.journal_seq = 42;
  snap.jobs_completed = 5;
  snap.jobs_failed = 1;
  snap.run_active = true;
  server.publish(snap);

  const std::string body = obs::http_body(server.respond("/status"));
  EXPECT_NE(body.find("\"now_s\":12.5"), std::string::npos);
  EXPECT_NE(body.find("\"queue_depth\":3"), std::string::npos);
  EXPECT_NE(body.find("\"running_jobs\":2"), std::string::npos);
  // format_exact renders 140 in shortest-exact form ("1.4e+02").
  EXPECT_NE(body.find("\"free_watts\":1.4e+02"), std::string::npos);
  EXPECT_NE(body.find("\"mode\":\"BUDGET_BROWNOUT\""), std::string::npos);
  EXPECT_NE(body.find("\"journal_seq\":42"), std::string::npos);
  EXPECT_NE(body.find("\"jobs_completed\":5"), std::string::npos);
  EXPECT_NE(body.find("\"jobs_failed\":1"), std::string::npos);
  EXPECT_NE(body.find("\"run_active\":true"), std::string::npos);
}

TEST(TelemetryServer, MetricsEndpointSnapshotsTheRegistry) {
  obs::MetricsRegistry reg;
  reg.counter("queue.jobs_started").add(7);
  obs::TelemetryServerOptions opt;
  opt.metrics = &reg;
  obs::TelemetryServer server(opt);
  const std::string resp = server.respond("/metrics");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("queue_jobs_started 7"), std::string::npos);
  EXPECT_NE(resp.find("# HELP queue_jobs_started"), std::string::npos);

  obs::TelemetryServer bare(obs::TelemetryServerOptions{});
  EXPECT_NE(bare.respond("/metrics").find("200 OK"), std::string::npos);
  EXPECT_EQ(obs::http_body(bare.respond("/metrics")), "");
}

TEST(TelemetryServer, TimelineEndpointTailsOneSeries) {
  obs::Timeline tl;
  for (int i = 0; i < 10; ++i)
    tl.record("queue.depth", static_cast<double>(i), static_cast<double>(i));
  tl.event("job", 1.0, "start A");
  obs::TelemetryServerOptions opt;
  opt.timeline = &tl;
  obs::TelemetryServer server(opt);

  const std::string tail =
      obs::http_body(server.respond("/timeline?series=queue.depth&n=3"));
  // Newest three samples survive the tail cap.
  EXPECT_EQ(tail.find("\"t_s\":6"), std::string::npos);
  EXPECT_NE(tail.find("\"t_s\":7"), std::string::npos);
  EXPECT_NE(tail.find("\"t_s\":9"), std::string::npos);

  const std::string events =
      obs::http_body(server.respond("/timeline?series=job"));
  EXPECT_NE(events.find("\"kind\":\"event\""), std::string::npos);
  EXPECT_NE(events.find("\"label\":\"start A\""), std::string::npos);

  EXPECT_EQ(obs::http_body(server.respond("/timeline?series=nope")), "");
  EXPECT_NE(server.respond("/timeline").find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(server.respond("/nothing").find("404 Not Found"),
            std::string::npos);
}

TEST(TelemetryServer, ServesAllFourEndpointsOverRealSockets) {
  obs::MetricsRegistry reg;
  reg.counter("sim.runs").add(3);
  obs::Timeline tl;
  tl.record("node0.power_w", 1.0, 95.0);
  obs::TelemetryServerOptions opt;
  opt.metrics = &reg;
  opt.timeline = &tl;
  obs::TelemetryServer server(opt);
  ASSERT_GT(server.port(), 0);  // ephemeral bind succeeded

  const std::string metrics =
      obs::http_get("127.0.0.1", server.port(), "/metrics");
  EXPECT_NE(metrics.find("sim_runs 3"), std::string::npos);

  const std::string health =
      obs::http_get("127.0.0.1", server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);

  const std::string status =
      obs::http_get("127.0.0.1", server.port(), "/status");
  EXPECT_NE(status.find("\"mode\":\"NORMAL\""), std::string::npos);

  const std::string timeline = obs::http_get(
      "127.0.0.1", server.port(), "/timeline?series=node0.power_w");
  EXPECT_NE(timeline.find("\"value\":95"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 4u);
  server.stop();  // idempotent with the destructor
}

TEST(TelemetryServer, ServersShareOneAcceptThreadAndLeaveItCleanly) {
  // Two live servers at once: each answers from its own snapshot.
  auto a = std::make_unique<obs::TelemetryServer>(
      obs::TelemetryServerOptions{});
  obs::TelemetryServer b(obs::TelemetryServerOptions{});
  obs::StatusSnapshot snap;
  snap.mode = "METER_BLACKOUT";
  b.publish(snap);
  EXPECT_NE(obs::http_get("127.0.0.1", a->port(), "/healthz").find("200 OK"),
            std::string::npos);
  EXPECT_NE(obs::http_get("127.0.0.1", b.port(), "/healthz").find("503"),
            std::string::npos);

  // One leaves; the other keeps serving.
  a->stop();
  a.reset();
  EXPECT_NE(obs::http_get("127.0.0.1", b.port(), "/status")
                .find("\"mode\":\"METER_BLACKOUT\""),
            std::string::npos);
  EXPECT_EQ(b.requests_served(), 2u);

  // Servers come and go many times; each serves while it lives.
  for (int i = 0; i < 50; ++i) {
    obs::TelemetryServer s(obs::TelemetryServerOptions{});
    ASSERT_NE(obs::http_get("127.0.0.1", s.port(), "/healthz").find("200 OK"),
              std::string::npos)
        << "server " << i;
    EXPECT_EQ(s.requests_served(), 1u);
  }
  EXPECT_NE(obs::http_get("127.0.0.1", b.port(), "/healthz").find("503"),
            std::string::npos);
}

TEST(TelemetryServer, QueueRunOwnsAServerAndPublishesFinalStatus) {
  Cluster& c = cluster();
  runtime::QueueOptions opt = c.opt;
  opt.telemetry_port = 0;  // ephemeral
  runtime::QueueEventLoop loop(c.ex, c.sched, opt, c.jobs);
  obs::ObsSession session;
  loop.set_observer(&session);
  const auto report = loop.run();

  const obs::TelemetryServer* server = loop.telemetry_server();
  ASSERT_NE(server, nullptr);
  ASSERT_GT(server->port(), 0);
  const std::string body = obs::http_body(
      obs::http_get("127.0.0.1", server->port(), "/status"));
  EXPECT_NE(body.find("\"run_active\":false"), std::string::npos);
  EXPECT_NE(body.find("\"jobs_completed\":" +
                      std::to_string(report.jobs_completed())),
            std::string::npos);
  EXPECT_NE(body.find("\"queue_depth\":0"), std::string::npos);
  // /metrics serves the live session registry.
  const std::string metrics = obs::http_body(
      obs::http_get("127.0.0.1", server->port(), "/metrics"));
  EXPECT_NE(metrics.find("queue_jobs_started"), std::string::npos);
}

TEST(TelemetryServer, AttachmentKeepsTheRunByteIdentical) {
  Cluster& c = cluster();
  const Cluster::Run plain = c.run(c.opt);

  runtime::QueueOptions live = c.opt;
  live.telemetry_port = 0;
  obs::ObsSession session;
  const Cluster::Run served = c.run(live, &session);
  EXPECT_EQ(plain.fp, served.fp);
  EXPECT_EQ(plain.timeline_csv, served.timeline_csv);

  // The host-time decision-latency histogram exists only on the live
  // plane; queue metrics stay deterministic without it.
  const auto* h = session.metrics().find_histogram("queue.decision_latency_us");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);

  obs::ObsSession detached_session;
  (void)c.run(c.opt, &detached_session);
  EXPECT_EQ(
      detached_session.metrics().find_histogram("queue.decision_latency_us"),
      nullptr);
}

// ------------------------------------------------------ causal traces ----

TEST(TraceContext, MintsDeterministicIdsAndParsesThemBack) {
  Rng a(0x7C11u);
  Rng b(0x7C11u);
  const auto t1 = obs::TraceContext::make(a);
  const auto t2 = obs::TraceContext::make(b);
  EXPECT_TRUE(t1.valid());
  EXPECT_EQ(t1.trace_id, t2.trace_id);  // same seed, same id
  EXPECT_EQ(t1.hex().size(), 16u);

  const auto parsed = obs::TraceContext::parse_hex(t1.hex());
  EXPECT_EQ(parsed.trace_id, t1.trace_id);
  EXPECT_FALSE(obs::TraceContext::parse_hex("xyz").valid());
  EXPECT_FALSE(obs::TraceContext::parse_hex("0123456789abcde").valid());

  // Span ids: stable per subsystem, distinct across subsystems.
  EXPECT_EQ(t1.span_id("queue"), t2.span_id("queue"));
  EXPECT_NE(t1.span_id("queue"), t1.span_id("launcher"));
  EXPECT_FALSE(obs::TraceContext{}.valid());
}

TEST(Tracing, QueueMintsDistinctReproducibleIdsPerJob) {
  Cluster& c = cluster();
  runtime::QueueOptions traced = c.opt;
  traced.trace.enabled = true;
  const Cluster::Run r1 = c.run(traced);
  const Cluster::Run r2 = c.run(traced);

  std::set<std::string> ids;
  for (std::size_t j = 0; j < r1.report.jobs.size(); ++j) {
    const std::string& id = r1.report.jobs[j].trace_id;
    ASSERT_EQ(id.size(), 16u);
    EXPECT_TRUE(obs::TraceContext::parse_hex(id).valid());
    ids.insert(id);
    EXPECT_EQ(id, r2.report.jobs[j].trace_id);  // seeded: reproducible
  }
  EXPECT_EQ(ids.size(), r1.report.jobs.size());  // and distinct

  // Tracing is metadata only: the schedule is byte-identical to untraced.
  const Cluster::Run plain = c.run(c.opt);
  EXPECT_EQ(plain.fp, r1.fp);
  for (const auto& j : plain.report.jobs) EXPECT_TRUE(j.trace_id.empty());
}

TEST(Tracing, TraceTokensReachTimelineJournalAndSpans) {
  Cluster& c = cluster();
  runtime::QueueOptions traced = c.opt;
  traced.trace.enabled = true;
  obs::ObsSession session;
  obs::MemorySink sink;
  session.set_sink(&sink);
  runtime::Journal journal;
  obs::Timeline timeline;
  const Cluster::Run r = c.run(traced, &session, &journal, &timeline);
  const std::string id0 = r.report.jobs[0].trace_id;
  ASSERT_FALSE(id0.empty());

  // Flight-recorder job events carry the trace token.
  bool event_tagged = false;
  for (const auto& e : timeline.events("job"))
    event_tagged = event_tagged ||
                   e.label.find("trace=" + id0) != std::string::npos;
  EXPECT_TRUE(event_tagged);

  // Journal launch records carry it too (recovery correlates by id).
  bool journal_tagged = false;
  for (const auto& rec : journal.records())
    if (rec.kind == "launch")
      journal_tagged = journal_tagged ||
                       rec.payload.find("trace=" + id0) != std::string::npos;
  EXPECT_TRUE(journal_tagged);
  // The begin record pins the trace seed so a mismatched recovery fails.
  ASSERT_FALSE(journal.records().empty());
  EXPECT_NE(journal.records().front().payload.find("traceseed="),
            std::string::npos);

  // queue.try_start spans carry trace_id/span_id args.
  bool span_tagged = false;
  for (const auto& s : sink.spans())
    for (const auto& a : s.args)
      span_tagged = span_tagged || (a.key == "trace_id" && a.value == id0);
  EXPECT_TRUE(span_tagged);
}

TEST(Tracing, UntracedJournalBytesAreUnchanged) {
  // With tracing off the begin payload must not grow a traceseed token:
  // journals written before tracing existed stay replayable byte-for-byte.
  Cluster& c = cluster();
  runtime::Journal journal;
  (void)c.run(c.opt, nullptr, &journal);
  ASSERT_FALSE(journal.records().empty());
  EXPECT_EQ(journal.records().front().payload.find("traceseed="),
            std::string::npos);
  for (const auto& rec : journal.records())
    EXPECT_EQ(rec.payload.find("trace="), std::string::npos) << rec.kind;
}

TEST(Tracing, RecoveryRemintsIdenticalTraceIds) {
  Cluster& c = cluster();
  runtime::QueueOptions traced = c.opt;
  traced.trace.enabled = true;
  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;  // dense: guarantee a mid-run restore point
  runtime::Journal journal(jopt);
  const Cluster::Run ref = c.run(traced, nullptr, &journal);

  // Kill two records past the last snapshot: recovery restores + replays.
  runtime::Journal cut = journal;
  ASSERT_TRUE(cut.last_snapshot().has_value());
  ASSERT_LE(*cut.last_snapshot() + 2, cut.size());
  cut.truncate(*cut.last_snapshot() + 2);

  const Cluster::Run rec = c.recover(traced, cut);
  EXPECT_EQ(ref.fp, rec.fp);
  for (std::size_t j = 0; j < ref.report.jobs.size(); ++j)
    EXPECT_EQ(ref.report.jobs[j].trace_id, rec.report.jobs[j].trace_id);
}

TEST(Tracing, RecoveryRejectsAMismatchedTraceConfiguration) {
  Cluster& c = cluster();
  runtime::QueueOptions traced = c.opt;
  traced.trace.enabled = true;
  runtime::Journal journal;
  (void)c.run(traced, nullptr, &journal);
  journal.truncate(journal.size() - 1);  // leave the run "unfinished"
  // An untraced loop must refuse the traced journal loudly (begin-record
  // config check), not silently re-mint different ids.
  EXPECT_THROW((void)c.recover(c.opt, journal), PreconditionError);
}

TEST(Tracing, GroupSpansByTraceAssignsOneTrackPerTrace) {
  auto span = [](std::string name, int tid,
                 std::optional<std::string> trace) {
    obs::SpanRecord s;
    s.name = std::move(name);
    s.tid = tid;
    if (trace) s.args.push_back({"trace_id", *trace, false});
    return s;
  };
  const std::vector<obs::SpanRecord> grouped = obs::group_spans_by_trace({
      span("queue.try_start", 1, "aaaa"),
      span("profiler.run", 7, std::nullopt),
      span("queue.try_start", 2, "bbbb"),
      span("queue.requeue", 3, "aaaa"),
  });
  ASSERT_EQ(grouped.size(), 4u);
  EXPECT_EQ(grouped[0].tid, 8);  // first trace: max untraced tid + 1
  EXPECT_EQ(grouped[1].tid, 7);  // untraced span keeps its thread track
  EXPECT_EQ(grouped[2].tid, 9);  // second trace, first-appearance order
  EXPECT_EQ(grouped[3].tid, 8);  // same trace as span 0 → same track

  // The grouped spans still serialize to loadable Chrome-trace JSON.
  const std::string json = obs::chrome_trace_json(grouped);
  EXPECT_NE(json.find("\"tid\":8"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"aaaa\""), std::string::npos);
}

TEST(Tracing, LauncherPropagatesTheTraceIntoItsSpan) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  runtime::Launcher launcher(ex, workloads::training_benchmarks());
  obs::ObsSession session;
  obs::MemorySink sink;
  session.set_sink(&sink);
  launcher.set_observer(&session);
  ex.set_observer(&session);

  Rng rng(0x7C11u);
  const auto trace = obs::TraceContext::make(rng);
  runtime::JobSpec spec;
  spec.app = workloads::paper_benchmarks().front();
  spec.cluster_budget = Watts(500.0);
  (void)launcher.run(spec, trace);

  bool tagged = false;
  for (const auto& s : sink.spans()) {
    if (s.name != "runtime.job") continue;
    for (const auto& a : s.args)
      tagged = tagged || (a.key == "trace_id" && a.value == trace.hex());
  }
  EXPECT_TRUE(tagged);
}

TEST(Tracing, JobStoryReconstructsOneJobsRun) {
  Cluster& c = cluster();
  runtime::QueueOptions traced = c.opt;
  traced.trace.enabled = true;
  obs::ObsSession session;
  runtime::Journal journal;
  obs::Timeline timeline;
  const Cluster::Run r = c.run(traced, &session, &journal, &timeline);

  const fs::path dir = temp_dir("obs_live_story");
  runtime::write_run_record(dir, c.opt.cluster_budget, r.report, timeline,
                            {}, &session.metrics());
  journal.save(dir / runtime::RunRecordFiles::kJournal);

  const std::string story = runtime::render_job_story(dir, 0);
  const auto& job = r.report.jobs[0];
  EXPECT_NE(story.find("# Job story: " + job.app), std::string::npos);
  EXPECT_NE(story.find(job.trace_id), std::string::npos);
  EXPECT_NE(story.find("## Flight-recorder events"), std::string::npos);
  EXPECT_NE(story.find("start " + job.app), std::string::npos);
  EXPECT_NE(story.find("## Journal records"), std::string::npos);
  EXPECT_NE(story.find("**launch**"), std::string::npos);
  // Rendering is a pure function of the record directory.
  EXPECT_EQ(story, runtime::render_job_story(dir, 0));
  EXPECT_THROW((void)runtime::render_job_story(dir, 999), PreconditionError);
  fs::remove_all(dir);
}

// --------------------------------------------------- replay suppression ----

TEST(ReplaySuppression, ReplayedJournalSuffixDoesNotDoubleCountActions) {
  Cluster& c = cluster();
  obs::ObsSession uninterrupted;
  runtime::JournalOptions jopt;
  jopt.snapshot_every = 5;
  runtime::Journal journal(jopt);
  (void)c.run(c.opt, &uninterrupted, &journal);
  const auto* ref = uninterrupted.metrics().find_counter("queue.jobs_started");
  ASSERT_NE(ref, nullptr);

  // Kill a few records past the last snapshot, so recovery replays a
  // suffix that contains launch records.
  runtime::Journal cut = journal;
  ASSERT_TRUE(cut.last_snapshot().has_value());
  cut.truncate(*cut.last_snapshot() + 3);

  std::uint64_t launches_already_counted = 0;
  for (const auto& rec : cut.records())
    if (rec.kind == "launch") ++launches_already_counted;

  obs::ObsSession recovery;
  (void)c.recover(c.opt, cut, &recovery);
  const auto* rec_started =
      recovery.metrics().find_counter("queue.jobs_started");

  // The dead coordinator counted one start per journaled launch; the
  // recovery session may only count starts it performed *live* — replayed
  // launches are suppressed. Together the two sessions account every
  // start exactly once.
  const std::uint64_t recovered =
      rec_started != nullptr ? rec_started->value() : 0;
  EXPECT_EQ(launches_already_counted + recovered, ref->value());
  // And the replay did happen (this kill point leaves a non-empty suffix).
  const auto* replayed = recovery.metrics().find_counter("journal.replayed");
  ASSERT_NE(replayed, nullptr);
  EXPECT_GT(replayed->value(), 0u);
}

// -------------------------------------------------------- alert engine ----

TEST(Alerts, DefaultCatalogIsValidAndCoversTheSlos) {
  const auto rules = obs::AlertEngine::default_rules();
  EXPECT_GE(rules.size(), 6u);
  std::set<std::string> names;
  for (const auto& r : rules) {
    r.validate();
    names.insert(r.name);
  }
  EXPECT_EQ(names.size(), rules.size());  // names are unique
  EXPECT_TRUE(names.count("budget-violation") != 0);
  EXPECT_TRUE(names.count("slow-decisions") != 0);
}

/// A synthetic flight record that trips every rule kind at a known instant.
void fill_noisy_timeline(obs::Timeline& tl) {
  tl.record("budget.violation_s", 10.0, 0.0);
  tl.record("budget.violation_s", 20.0, 2.5);  // violation appears at t=20
  tl.record("node0.power_w", 0.0, 100.0);
  tl.record("node0.power_w", 30.0, 130.0);  // above 120 from t=30
  tl.record("node0.power_w", 45.0, 100.0);  // ...until t=45
  tl.event("job", 5.0, "fail SP-MZ attempts=3");
  tl.event("mode", 12.0, "METER_BLACKOUT enter");
  tl.event("mode", 14.0, "NORMAL restore");
  tl.record("queue.wait", 1.0, 10.0);
  tl.record("queue.wait", 2.0, 900.0);
  tl.record("queue.wait", 50.0, 950.0);
}

TEST(Alerts, EveryRuleKindFiresDeterministicallyAtTheRightInstant) {
  obs::Timeline tl;
  fill_noisy_timeline(tl);
  std::vector<obs::AlertRule> rules = obs::AlertEngine::parse_rules(
      "violated   critical value(budget.violation_s) > 0\n"
      "hot-node   warning  time_above(node0.power_w, 120) > 5\n"
      "slow-waits warning  p50(queue.wait) > 100\n"
      "job-fail   critical events(job, fail ) > 0\n"
      "blackout   info     mode(METER_BLACKOUT) > 0\n",
      "test-rules");
  ASSERT_EQ(rules.size(), 5u);
  const obs::AlertEngine engine(std::move(rules));

  const auto outcomes = engine.evaluate(tl);
  ASSERT_EQ(outcomes.size(), 5u);
  for (const auto& o : outcomes) EXPECT_TRUE(o.fired) << o.rule.name;

  // Firing instants: the first moment each predicate became true.
  EXPECT_DOUBLE_EQ(outcomes[0].at_s, 20.0);  // first sample above 0
  EXPECT_DOUBLE_EQ(outcomes[0].observed, 2.5);
  EXPECT_DOUBLE_EQ(outcomes[1].at_s, 35.0);  // 5 s into the hot stretch
  EXPECT_DOUBLE_EQ(outcomes[1].observed, 15.0);
  EXPECT_DOUBLE_EQ(outcomes[2].observed, 900.0);  // nearest-rank p50
  EXPECT_DOUBLE_EQ(outcomes[3].at_s, 5.0);
  EXPECT_DOUBLE_EQ(outcomes[4].at_s, 12.0);

  // Determinism: same timeline, same outcomes, byte for byte.
  const auto again = engine.evaluate(tl);
  EXPECT_EQ(obs::AlertEngine::render_table(outcomes),
            obs::AlertEngine::render_table(again));
  EXPECT_EQ(obs::AlertEngine::render_json(outcomes),
            obs::AlertEngine::render_json(again));
  EXPECT_EQ(obs::AlertEngine::exit_code(outcomes), 1);
}

TEST(Alerts, QuietTimelineFiresNothing) {
  obs::Timeline tl;
  tl.record("budget.violation_s", 100.0, 0.0);
  tl.record("queue.depth", 100.0, 0.0);
  tl.event("job", 50.0, "finish SP-MZ");
  const obs::AlertEngine engine(obs::AlertEngine::default_rules());
  const auto outcomes = engine.evaluate(tl);
  for (const auto& o : outcomes) EXPECT_FALSE(o.fired) << o.rule.name;
  EXPECT_EQ(obs::AlertEngine::exit_code(outcomes), 0);
  // The table's only "FIRED" is the column header; every row reads "ok".
  const std::string table = obs::AlertEngine::render_table(outcomes);
  std::size_t fired_tokens = 0;
  for (std::size_t p = table.find("FIRED"); p != std::string::npos;
       p = table.find("FIRED", p + 1))
    ++fired_tokens;
  EXPECT_EQ(fired_tokens, 1u);
  EXPECT_NE(obs::AlertEngine::render_json(outcomes).find("\"fired\": 0"),
            std::string::npos);
}

TEST(Alerts, QuantileRuleFallsBackToAMetricsHistogram) {
  obs::Timeline tl;  // no such sample series on simulated time
  tl.record("queue.depth", 1.0, 0.0);
  obs::MetricsRegistry reg;
  auto& h = reg.histogram("queue.decision_latency_us",
                          obs::HistogramSpec{{100.0, 1000.0, 100000.0}});
  for (int i = 0; i < 5; ++i) h.record(50.0);
  for (int i = 0; i < 5; ++i) h.record(2e6);  // p99 lands in the overflow bucket

  obs::AlertRule rule;
  rule.name = "slow";
  rule.kind = obs::AlertKind::kQuantileAbove;
  rule.series = "queue.decision_latency_us";
  rule.level = 0.99;
  rule.threshold = 100000.0;
  obs::AlertEngine engine;
  engine.add_rule(rule);

  // Without metrics: no data, no fire.
  EXPECT_FALSE(engine.evaluate(tl)[0].fired);
  EXPECT_EQ(engine.evaluate(tl)[0].detail, "no samples");
  // With the registry attached the p99 resolves from the histogram.
  const auto out = engine.evaluate(tl, &reg);
  EXPECT_TRUE(out[0].fired);
  EXPECT_GT(out[0].observed, 100000.0);
}

TEST(Alerts, ParseRejectsMalformedRulesWithContext) {
  EXPECT_THROW(
      (void)obs::AlertEngine::parse_rules("bad", "f"), PreconditionError);
  EXPECT_THROW((void)obs::AlertEngine::parse_rules(
                   "r shouting value(x) > 1", "f"),
               PreconditionError);
  EXPECT_THROW((void)obs::AlertEngine::parse_rules(
                   "r critical frobnicate(x) > 1", "f"),
               PreconditionError);
  EXPECT_THROW((void)obs::AlertEngine::parse_rules(
                   "r critical value(x) 1", "f"),
               PreconditionError);
  EXPECT_THROW((void)obs::AlertEngine::parse_rules(
                   "r critical p0(x) > 1", "f"),
               PreconditionError);
  // Comments and blank lines are fine; expressions round-trip.
  const auto rules = obs::AlertEngine::parse_rules(
      "# catalog\n\nhot warning time_above(node0.power_w, 120) > 5\n", "f");
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].expression(),
            "time_above(node0.power_w, 1.2e+02) > 5");  // shortest-exact 120
}

TEST(Alerts, EvaluateAndRecordAppendsAlertsToTheFlightRecorder) {
  obs::Timeline tl;
  fill_noisy_timeline(tl);
  const obs::AlertEngine engine(obs::AlertEngine::parse_rules(
      "violated critical value(budget.violation_s) > 0\n"
      "job-fail critical events(job, fail ) > 0\n",
      "test-rules"));
  const auto outcomes = engine.evaluate_and_record(tl);
  ASSERT_EQ(outcomes.size(), 2u);

  // One alert event per fired rule, ordered by firing instant.
  const auto evs = tl.events("alert");
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_DOUBLE_EQ(evs[0].t_s, 5.0);
  EXPECT_NE(evs[0].label.find("critical job-fail"), std::string::npos);
  EXPECT_DOUBLE_EQ(evs[1].t_s, 20.0);
  EXPECT_NE(evs[1].label.find("critical violated"), std::string::npos);
  // Plus the firing-count sample at the end of the run.
  const auto firing = tl.samples("alert.firing");
  ASSERT_EQ(firing.size(), 1u);
  EXPECT_DOUBLE_EQ(firing[0].value, 2.0);
}

}  // namespace
}  // namespace clip

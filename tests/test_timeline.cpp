// Tests for the cluster flight recorder (obs::Timeline), its producers
// (power meter, RAPL controller sim, telemetry bridge, power-aware queue),
// the run-record/run-report pipeline (runtime/run_report.hpp), and the
// Prometheus text exporter. Everything here runs on the simulated-seconds
// axis, so the determinism assertions are exact byte comparisons.
#include <gtest/gtest.h>

#include <unistd.h>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "runtime/queue.hpp"
#include "runtime/run_report.hpp"
#include "runtime/telemetry.hpp"
#include "sim/executor.hpp"
#include "sim/power_meter.hpp"
#include "sim/rapl_controller.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads/catalog.hpp"

namespace clip {
namespace {

/// Unique per test case *and* process (ctest -j runs cases concurrently).
std::filesystem::path temp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::temp_directory_path() /
         (stem + "." + info->name() + "." + std::to_string(::getpid()));
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

/// Bit-exact textual fingerprint of a QueueReport, for the detached-timeline
/// byte-identity assertion.
std::string fingerprint(const runtime::QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.node_seconds_used << '|'
     << r.violation_s << '|' << r.violation_ws;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes
       << ',' << j.budget_w << ',' << j.power_w;
  return os.str();
}

// ---------------------------------------------------------- Timeline core ----

TEST(Timeline, RecordsAndSummarizes) {
  obs::Timeline tl;
  tl.record("node0.power_w", 0.0, 100.0);
  tl.record("node0.power_w", 1.0, 120.0);
  tl.record("node0.power_w", 3.0, 80.0);
  tl.event("job", 0.5, "start A");

  const auto names = tl.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "job");
  EXPECT_EQ(names[1], "node0.power_w");
  EXPECT_EQ(tl.total_samples(), 3u);
  EXPECT_EQ(tl.dropped(), 0u);

  const auto s = tl.summary("node0.power_w");
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 80.0);
  EXPECT_DOUBLE_EQ(s.max, 120.0);
  EXPECT_DOUBLE_EQ(s.mean, 100.0);
  EXPECT_DOUBLE_EQ(s.first_t_s, 0.0);
  EXPECT_DOUBLE_EQ(s.last_t_s, 3.0);

  const auto events = tl.events("job");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].label, "start A");
}

TEST(Timeline, StepFunctionQueries) {
  obs::Timeline tl;
  tl.record("p", 1.0, 100.0);
  tl.record("p", 3.0, 50.0);

  EXPECT_TRUE(std::isnan(tl.value_at("p", 0.5)));  // before first sample
  EXPECT_TRUE(std::isnan(tl.value_at("missing", 1.0)));
  EXPECT_DOUBLE_EQ(tl.value_at("p", 1.0), 100.0);
  EXPECT_DOUBLE_EQ(tl.value_at("p", 2.999), 100.0);
  EXPECT_DOUBLE_EQ(tl.value_at("p", 3.0), 50.0);
  EXPECT_DOUBLE_EQ(tl.value_at("p", 99.0), 50.0);  // holds last value

  // ∫ over [0, 4]: zero before t=1, then 100·2 + 50·1.
  EXPECT_DOUBLE_EQ(tl.integral("p", 0.0, 4.0), 250.0);
  // Time above 75 W within [0, 10]: exactly the [1, 3) stretch... except the
  // final segment extends to the query end, so 50 W < 75 contributes nothing.
  EXPECT_DOUBLE_EQ(tl.time_above("p", 75.0, 0.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(tl.time_above("p", 25.0, 0.0, 10.0), 9.0);

  const auto pts = tl.resample("p", 0.0, 4.0, 5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts[0].t_s, 0.0);
  EXPECT_TRUE(std::isnan(pts[0].value));
  EXPECT_DOUBLE_EQ(pts[1].value, 100.0);  // t=1
  EXPECT_DOUBLE_EQ(pts[3].value, 50.0);   // t=3
  EXPECT_DOUBLE_EQ(pts[4].t_s, 4.0);
}

TEST(Timeline, RejectsTimeGoingBackwards) {
  obs::Timeline tl;
  tl.record("p", 2.0, 1.0);
  tl.record("p", 2.0, 2.0);  // equal timestamps are fine
  EXPECT_THROW(tl.record("p", 1.9, 3.0), PreconditionError);
  // Other series are independent axes.
  tl.record("q", 0.0, 0.0);
  tl.event("e", 5.0, "x");
  EXPECT_THROW(tl.event("e", 4.0, "y"), PreconditionError);
}

TEST(Timeline, RingBufferKeepsNewestAndCountsDropped) {
  obs::TimelineOptions opt;
  opt.ring_capacity = 4;
  obs::Timeline tl(opt);
  for (int i = 0; i < 10; ++i)
    tl.record("p", static_cast<double>(i), static_cast<double>(i * 10));
  const auto pts = tl.samples("p");
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts.front().t_s, 6.0);
  EXPECT_DOUBLE_EQ(pts.back().t_s, 9.0);
  EXPECT_EQ(tl.dropped(), 6u);
  EXPECT_EQ(tl.total_samples(), 4u);
}

TEST(Timeline, RingWraparoundExportIsDeterministic) {
  // Two identical bounded recorders that wrapped several times must export
  // byte-identical CSV — the ring must not leak insertion-order artifacts.
  obs::TimelineOptions opt;
  opt.ring_capacity = 8;
  obs::Timeline a(opt);
  obs::Timeline b(opt);
  for (obs::Timeline* tl : {&a, &b}) {
    for (int i = 0; i < 100; ++i) {
      const double t = 0.25 * i;
      tl->record("node0.power_w", t, 90.0 + (i % 7));
      tl->record("queue.depth", t, static_cast<double>(i % 5));
      if (i % 10 == 0) tl->event("fault", t, "crash node=" + std::to_string(i));
    }
  }
  const auto pa = temp_path("tl_ring_a");
  const auto pb = temp_path("tl_ring_b");
  a.write_csv(pa);
  b.write_csv(pb);
  EXPECT_EQ(slurp(pa), slurp(pb));
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.samples("node0.power_w").size(), 8u);
  std::filesystem::remove(pa);
  std::filesystem::remove(pb);
}

TEST(Timeline, CsvRoundTripsByteIdentically) {
  obs::Timeline tl;
  // Values chosen to stress shortest-exact formatting.
  tl.record("p", 0.1, 1.0 / 3.0);
  tl.record("p", 0.2, 1e-300);
  tl.record("p", 1e6, -0.0);
  tl.event("ev", 0.15, "label, with \"quotes\" and\nnewline");
  const auto p1 = temp_path("tl_rt1");
  const auto p2 = temp_path("tl_rt2");
  tl.write_csv(p1);

  obs::Timeline loaded;
  loaded.load_csv(p1);
  loaded.write_csv(p2);
  EXPECT_EQ(slurp(p1), slurp(p2));
  EXPECT_EQ(loaded.samples("p").size(), 3u);
  EXPECT_EQ(loaded.samples("p")[0].value, 1.0 / 3.0);  // exact, not approx
  ASSERT_EQ(loaded.events("ev").size(), 1u);
  EXPECT_EQ(loaded.events("ev")[0].label,
            "label, with \"quotes\" and\nnewline");
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

TEST(Timeline, EventStreamCsvRoundTripAcrossStreams) {
  // Event streams alone (no sample series at all) must round-trip through
  // the CSV export byte-identically, including empty labels, duplicate
  // timestamps, and a stream name shared with a sample series.
  obs::Timeline tl;
  tl.event("job", 0.0, "admit A");
  tl.event("job", 0.0, "admit B");  // same instant, insertion order kept
  tl.event("job", 2.5, "");         // empty label survives
  tl.event("mode", 1.0, "enter METER_BLACKOUT");
  tl.event("mode", 4.0, "exit METER_BLACKOUT");
  tl.record("mode", 1.0, 1.0);  // samples and events may share a name

  const auto p1 = temp_path("tl_ev1");
  const auto p2 = temp_path("tl_ev2");
  tl.write_csv(p1);
  obs::Timeline loaded;
  loaded.load_csv(p1);
  loaded.write_csv(p2);
  EXPECT_EQ(slurp(p1), slurp(p2));

  const auto job = loaded.events("job");
  ASSERT_EQ(job.size(), 3u);
  EXPECT_EQ(job[0].label, "admit A");
  EXPECT_EQ(job[1].label, "admit B");
  EXPECT_EQ(job[2].label, "");
  EXPECT_EQ(loaded.events("mode").size(), 2u);
  EXPECT_EQ(loaded.samples("mode").size(), 1u);
  // The string form matches the file form exactly (tests and benches
  // compare flight records via to_csv_string, so the two paths must agree).
  EXPECT_EQ(tl.to_csv_string(), slurp(p1));
  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

TEST(Timeline, IntegralWindowBoundaryEdgeCases) {
  obs::Timeline tl;
  tl.record("p", 1.0, 100.0);
  tl.record("p", 3.0, 50.0);

  // Window edges exactly on sample instants: [1,3] is the 100 W stretch.
  EXPECT_DOUBLE_EQ(tl.integral("p", 1.0, 3.0), 200.0);
  // Entirely before the first sample: contributes zero.
  EXPECT_DOUBLE_EQ(tl.integral("p", 0.0, 1.0), 0.0);
  // Entirely after the last sample: the final value holds.
  EXPECT_DOUBLE_EQ(tl.integral("p", 5.0, 7.0), 100.0);
  // Zero-width windows integrate to zero, wherever they sit.
  EXPECT_DOUBLE_EQ(tl.integral("p", 2.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(tl.integral("p", 3.0, 3.0), 0.0);
  // Window splitting a segment takes only its share.
  EXPECT_DOUBLE_EQ(tl.integral("p", 2.0, 3.5), 100.0 + 25.0);
  // Inverted windows are caller bugs.
  EXPECT_THROW((void)tl.integral("p", 3.0, 1.0), PreconditionError);
  // Unknown series: zero, not a throw (summaries over sparse runs).
  EXPECT_DOUBLE_EQ(tl.integral("nope", 0.0, 10.0), 0.0);
}

TEST(Timeline, TimeAboveWindowBoundaryEdgeCases) {
  obs::Timeline tl;
  tl.record("p", 1.0, 100.0);
  tl.record("p", 3.0, 50.0);

  // Strictly-above: a threshold equal to the plateau counts nothing.
  EXPECT_DOUBLE_EQ(tl.time_above("p", 100.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(tl.time_above("p", 99.999, 0.0, 10.0), 2.0);
  // Window edge exactly on the downward step excludes the later segment.
  EXPECT_DOUBLE_EQ(tl.time_above("p", 75.0, 1.0, 3.0), 2.0);
  // Window clipped inside one segment.
  EXPECT_DOUBLE_EQ(tl.time_above("p", 75.0, 2.0, 3.5), 1.0);
  // Before the first sample nothing is above anything.
  EXPECT_DOUBLE_EQ(tl.time_above("p", 0.0, 0.0, 1.0), 0.0);
  // The last value holds to the window end.
  EXPECT_DOUBLE_EQ(tl.time_above("p", 25.0, 5.0, 8.0), 3.0);
  // Zero-width window.
  EXPECT_DOUBLE_EQ(tl.time_above("p", 25.0, 2.0, 2.0), 0.0);
  EXPECT_THROW((void)tl.time_above("p", 0.0, 2.0, 1.0), PreconditionError);
}

TEST(Timeline, LoadCsvRejectsMalformedInput) {
  const auto p = temp_path("tl_bad");
  {
    std::ofstream out(p);
    out << "kind,series,t_s,value,label\nwibble,p,0,1,\n";
  }
  obs::Timeline tl;
  EXPECT_THROW(tl.load_csv(p), PreconditionError);
  {
    std::ofstream out(p);
    out << "not,the,right,header,at-all\n";
  }
  EXPECT_THROW(tl.load_csv(p), PreconditionError);
  std::filesystem::remove(p);
}

// -------------------------------------------------------- Timeline deltas ----
// The journal's snapshots carry the flight record as write_delta() blocks;
// recovery folds them back with apply_delta(). The fold must reproduce the
// export byte for byte, whatever the names and labels hold.

/// Text built from what a delta must escape or pass through untouched: its
/// own separators, the journal's, quoting, '=', escape look-alikes and
/// non-ASCII bytes.
std::string hostile_text(Rng& rng, std::int64_t min_pieces) {
  static const std::vector<std::string> kPieces = {
      " ", ",", ";", "\"", "\\", "\n", "=", "\\s", "\\c", "\\e",
      "#", ":", "node1", ".pw", "\xc3\xa9", "\xff", "\x01", "\t",
      "\xe2\x82\xac"};
  std::string out;
  const std::int64_t n = rng.uniform_int(min_pieces, 5);
  for (std::int64_t i = 0; i < n; ++i)
    out += kPieces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kPieces.size()) - 1))];
  return out;
}

TEST(TimelineDelta, FoldedDeltasReproduceTheCsvByteForByte) {
  static const double kValues[] = {0.0,    -0.0,   1.0 / 3.0, 1e-300,
                                   5e-324, -1e300, 42.0,      0.1};
  Rng rng(0xDE17A);
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) names.push_back(hostile_text(rng, 1));
  obs::Timeline live;
  obs::Timeline folded;
  obs::TimelineMark mark;
  double t = 0.0;
  for (int round = 0; round < 6; ++round) {
    const std::int64_t points = rng.uniform_int(0, 40);
    for (std::int64_t k = 0; k < points; ++k) {
      t += 0.125 * static_cast<double>(rng.uniform_int(0, 2));  // ties too
      const std::string& name = names[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
      if (rng.uniform() < 0.5)
        live.record(name, t,
                    kValues[static_cast<std::size_t>(rng.uniform_int(0, 7))]);
      else
        live.event(name, t, hostile_text(rng, 0));
    }
    std::string delta;
    live.write_delta(delta, mark);
    EXPECT_EQ(delta.find(' '), std::string::npos) << "round " << round;
    EXPECT_EQ(delta.find('\n'), std::string::npos) << "round " << round;
    folded.apply_delta(delta);
    ASSERT_EQ(folded.to_csv_string(), live.to_csv_string())
        << "round " << round;
  }
  EXPECT_GT(live.total_samples(), 0u);
}

TEST(TimelineDelta, NothingNewWritesAnEmptyDelta) {
  obs::Timeline live;
  obs::TimelineMark mark;
  std::string delta;
  live.write_delta(delta, mark);
  EXPECT_EQ(delta, "");  // an empty timeline
  live.record("p", 1.0, 2.0);
  live.event("e", 1.0, "x");
  live.write_delta(delta, mark);
  EXPECT_EQ(delta, "sp,1,2;ee,1,x;");
  std::string again;
  live.write_delta(again, mark);
  EXPECT_EQ(again, "");  // nothing since the previous delta

  obs::Timeline folded;
  folded.apply_delta("");
  folded.apply_delta(delta);
  folded.apply_delta(again);
  EXPECT_EQ(folded.to_csv_string(), live.to_csv_string());
}

TEST(TimelineDelta, RingEvictionsBetweenDeltasFoldToTheSameWindow) {
  obs::TimelineOptions opt;
  opt.ring_capacity = 4;
  obs::Timeline live(opt);
  obs::Timeline folded(opt);
  obs::TimelineMark mark;
  double t = 0.0;
  const auto append = [&t](obs::Timeline& tl, int n) {
    for (int i = 0; i < n; ++i) {
      t += 0.5;
      tl.record("a", t, t * 3.0);
      tl.event("b", t, "step " + std::to_string(i));
    }
  };
  for (int round = 0; round < 5; ++round) {
    // Later rounds append more than the ring holds: points are evicted
    // before any delta writes them, and the fold must keep the same window.
    append(live, 1 + 3 * round);
    std::string delta;
    live.write_delta(delta, mark);
    folded.apply_delta(delta);
    ASSERT_EQ(folded.to_csv_string(), live.to_csv_string())
        << "round " << round;
  }
  EXPECT_GT(live.dropped(), 0u);

  // A fold resumes from its own mark exactly as the live timeline does
  // from the one it wrote with: recovery's next snapshot matches the
  // dying run's byte for byte.
  obs::TimelineMark resumed = folded.mark();
  const double t_before = t;
  append(live, 6);
  t = t_before;
  append(folded, 6);
  std::string from_live;
  std::string from_fold;
  live.write_delta(from_live, mark);
  folded.write_delta(from_fold, resumed);
  EXPECT_EQ(from_fold, from_live);
}

TEST(TimelineDelta, MalformedDeltasAreRejected) {
  for (const char* bad :
       {"x", "sp", "sp,1", "sp,1,2", "sp,1;", "sp,abc,2;", "sp,1,2x;",
        "s,1,2;", "ep,1,\\q;", "ep,1,a\\", "sp,nan,1;", "sp,2,1,1,1;"}) {
    obs::Timeline tl;
    EXPECT_THROW(tl.apply_delta(bad), PreconditionError) << bad;
  }
}

TEST(FormatExact, RoundTripsThroughStrtod) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, 0.1, 1e-300, 6.02214076e23,
                         71.29142574904435, -123.456}) {
    const std::string s = obs::format_exact(v);
    char* end = nullptr;
    const double back = std::strtod(s.c_str(), &end);
    EXPECT_EQ(*end, '\0') << s;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << s;
  }
}

namespace {

/// The historical format_exact: try every precision until strtod round-trips.
/// The production version now finds the precision in one std::to_chars pass;
/// this reference pins its output byte-identical (journal payloads and
/// persisted timeline CSVs depend on the exact rendering).
std::string format_exact_reference(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);  // clip-lint: allow(D3) reference reimplementation of format_exact itself; pins the production rendering
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

TEST(FormatExact, MatchesThePrecisionSearchByteForByte) {
  std::vector<double> values = {0.0,    -0.0,   1.0,    -1.0,  100.0, 120.0,
                                1000.0, 0.001,  10.5,   0.25,  1e22,  1e-22,
                                1e-300, 1e300,  0.1,    1.0 / 3.0,
                                0.1 + 0.2,      100.0 / 7.0,   42.328};
  Rng rng(0xF0F0);
  for (int i = 0; i < 5000; ++i) {
    const double mag = std::pow(10.0, rng.uniform(-12.0, 12.0));
    values.push_back(rng.uniform(-1.0, 1.0) * mag);
    values.push_back(std::floor(rng.uniform(0.0, 1e6)));      // integers
    values.push_back(std::floor(rng.uniform(0.0, 1e4)) * 10); // trailing zeros
  }
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::min());
  for (const double v : values)
    EXPECT_EQ(obs::format_exact(v), format_exact_reference(v)) << v;
}

TEST(FormatExact, RepeatsAndAppendsRenderTheSameBytes) {
  // The second pass renders recently seen values again (the per-thread
  // memo); the interleaving makes values evict each other. -0.0 and 0.0
  // must not share an entry.
  std::vector<double> values = {0.0, -0.0, 700.0, 42.328};
  Rng rng(0x5EED);
  for (int i = 0; i < 2000; ++i)
    values.push_back(rng.uniform(0.0, 100.0));
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double v = values[pass == 0 ? i : values.size() - 1 - i];
      ASSERT_EQ(obs::format_exact(v), format_exact_reference(v)) << v;
      ASSERT_EQ(obs::format_exact(v), format_exact_reference(v)) << v;
    }
  std::string out = "t=";
  obs::append_exact(out, 42.328);
  out += " w=";
  obs::append_exact(out, -0.0);
  obs::append_exact(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "t=42.328 w=-0inf");
}

// ------------------------------------------------------------- producers ----

TEST(TimelineProducers, RaplSimulateEmitsMonotoneSeries) {
  sim::MachineSpec spec;
  sim::RaplControllerSim rapl(spec);
  obs::Timeline tl;
  rapl.set_timeline(&tl);
  sim::RaplControllerOptions opt;
  opt.steps = 50;
  const auto w = *workloads::find_benchmark("CoMD");
  (void)rapl.simulate(w, 24, parallel::AffinityPolicy::kScatter, 68.0,
                      Watts(80.0), opt);
  // The time axis must keep advancing across simulate() calls.
  (void)rapl.simulate(w, 24, parallel::AffinityPolicy::kScatter, 68.0,
                      Watts(60.0), opt);

  const auto caps = tl.samples("rapl.cap_w");
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_DOUBLE_EQ(caps[0].value, 80.0);
  EXPECT_DOUBLE_EQ(caps[1].value, 60.0);
  EXPECT_GT(caps[1].t_s, caps[0].t_s);

  const auto power = tl.samples("rapl.power_w");
  ASSERT_EQ(power.size(), 100u);
  for (std::size_t i = 1; i < power.size(); ++i)
    EXPECT_GE(power[i].t_s, power[i - 1].t_s);
  const auto rel = tl.summary("rapl.freq_rel");
  EXPECT_GT(rel.min, 0.0);
  EXPECT_LE(rel.max, 1.0);
}

TEST(TimelineProducers, TelemetryBridgeRecordsPerNodeSeries) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  const auto app = *workloads::find_benchmark("CoMD");
  sim::ClusterConfig cfg;
  cfg.nodes = 2;
  const auto m = ex.run_exact(app, cfg);

  runtime::TelemetryOptions topt;
  topt.noise_sigma = 0.0;
  const runtime::Telemetry telemetry(topt);
  obs::Timeline tl;
  runtime::Telemetry::to_timeline(tl, telemetry.record(m, cfg.node.threads),
                                  10.0);
  const auto cpu = tl.samples("node0.cpu_w");
  ASSERT_FALSE(cpu.empty());
  EXPECT_GE(cpu.front().t_s, 10.0);  // honors the t0 offset
  EXPECT_GT(cpu.front().value, 0.0);
  EXPECT_FALSE(tl.samples("node1.freq_ghz").empty());
}

TEST(TimelineProducers, MeterRecordsTruthEvenWhenNoiseDisabled) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  obs::Timeline tl;
  ex.meter().set_timeline(&tl);
  ex.meter().set_sample_time(42.0);
  const auto app = *workloads::find_benchmark("EP");
  const auto m = ex.run(app, sim::ClusterConfig{});
  const auto pts = tl.samples("meter.power_w");
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].t_s, 42.0);
  EXPECT_DOUBLE_EQ(pts[0].value, m.avg_power.value());
}

// ------------------------------------------------- queue + flight recorder ----

struct RecordedRun {
  runtime::QueueReport report;
  obs::Timeline timeline;
};

void run_recorded(Watts budget, RecordedRun& out,
                  obs::ObsSession* session = nullptr,
                  obs::MemorySink* sink = nullptr) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched{ex, workloads::training_benchmarks()};
  runtime::QueueOptions opt;
  opt.cluster_budget = budget;
  runtime::PowerAwareJobQueue queue(ex, sched, opt);
  if (session != nullptr) {
    if (sink != nullptr) session->set_sink(sink);
    queue.set_observer(session);
  }
  queue.set_timeline(&out.timeline);
  out.report = queue.run(workloads::paper_benchmarks());
}

TEST(QueueTimeline, DetachedRunIsByteIdentical) {
  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(900.0);
  const auto jobs = workloads::paper_benchmarks();

  sim::SimExecutor ex1{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched1{ex1, workloads::training_benchmarks()};
  runtime::PowerAwareJobQueue plain(ex1, sched1, opt);
  const auto without = plain.run(jobs);

  sim::SimExecutor ex2{sim::MachineSpec{}, no_noise()};
  core::ClipScheduler sched2{ex2, workloads::training_benchmarks()};
  runtime::PowerAwareJobQueue recorded(ex2, sched2, opt);
  obs::Timeline tl;
  recorded.set_timeline(&tl);
  const auto with = recorded.run(jobs);

  // The flight recorder observes; it must never perturb the decisions.
  EXPECT_EQ(fingerprint(without), fingerprint(with));
  EXPECT_GT(tl.total_samples(), 0u);
}

TEST(QueueTimeline, RecordsQueueAndPerNodeSeries) {
  RecordedRun run;
  run_recorded(Watts(900.0), run);
  const auto& tl = run.timeline;

  // Scheduling passes leave depth/free-watts traces.
  EXPECT_FALSE(tl.samples("queue.depth").empty());
  EXPECT_FALSE(tl.samples("queue.running").empty());
  EXPECT_FALSE(tl.samples("budget.free_w").empty());
  const auto depth = tl.summary("queue.depth");
  EXPECT_DOUBLE_EQ(depth.min, 0.0);  // the queue drains

  // Every job leaves start/finish events.
  const auto events = tl.events("job");
  std::size_t starts = 0;
  std::size_t finishes = 0;
  for (const auto& e : events) {
    if (e.label.rfind("start ", 0) == 0) ++starts;
    if (e.label.rfind("finish ", 0) == 0) ++finishes;
  }
  EXPECT_EQ(starts, run.report.jobs.size());
  EXPECT_EQ(finishes, run.report.jobs_completed());

  // Per-node power steps exist and end at zero (nodes freed at the end).
  const auto p0 = tl.samples("node0.power_w");
  ASSERT_FALSE(p0.empty());
  EXPECT_DOUBLE_EQ(p0.back().value, 0.0);
  EXPECT_FALSE(tl.samples("node0.cap_w").empty());

  // The per-node caps never exceed the budget (step-function check).
  EXPECT_DOUBLE_EQ(
      tl.time_above("node0.cap_w", 900.0, 0.0, run.report.makespan_s), 0.0);

  // The final violation accounting lands on the timeline too.
  const auto viol = tl.samples("budget.violation_s");
  ASSERT_EQ(viol.size(), 1u);
  EXPECT_EQ(viol[0].value, run.report.violation_s);
}

// ------------------------------------------------------ run record/report ----

TEST(RunReport, RecordAndReportAreByteStable) {
  RecordedRun run;
  obs::ObsSession session;
  obs::MemorySink sink;
  run_recorded(Watts(900.0), run, &session, &sink);

  const auto d1 = temp_path("runrec1");
  const auto d2 = temp_path("runrec2");
  runtime::write_run_record(d1, Watts(900.0), run.report, run.timeline,
                            sink.spans(), &session.metrics());
  runtime::write_run_record(d2, Watts(900.0), run.report, run.timeline,
                            sink.spans(), &session.metrics());
  for (const char* f :
       {runtime::RunRecordFiles::kTimeline, runtime::RunRecordFiles::kJobs,
        runtime::RunRecordFiles::kSummary, runtime::RunRecordFiles::kSpans})
    EXPECT_EQ(slurp(d1 / f), slurp(d2 / f)) << f;

  // Rendering is a pure function of the record directory.
  const std::string md1 = runtime::render_markdown_report(d1);
  const std::string md2 = runtime::render_markdown_report(d1);
  EXPECT_EQ(md1, md2);
  EXPECT_NE(md1.find("# CLIP run report"), std::string::npos);
  EXPECT_NE(md1.find("| jobs completed | 10/10 |"), std::string::npos);

  const std::string js = runtime::render_json_report(d1);
  EXPECT_EQ(js, runtime::render_json_report(d1));
  // violation_s round-trips bit-for-bit through the record.
  EXPECT_NE(js.find("\"violation_s\": " +
                    obs::format_exact(run.report.violation_s)),
            std::string::npos);
  EXPECT_NE(js.find("\"jobs_completed\": 10"), std::string::npos);

  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d2);
}

TEST(RunReport, RejectsMissingDirectory) {
  EXPECT_THROW(
      (void)runtime::render_markdown_report(temp_path("does_not_exist")),
      PreconditionError);
}

// ------------------------------------------------------ prometheus export ----

TEST(Prometheus, RendersAllThreeKindsDeterministically) {
  obs::MetricsRegistry reg;
  reg.counter("sim.runs").add(42);
  reg.gauge("queue.free_w").set(123.5);
  auto& h = reg.histogram("queue.job_wait_s",
                          obs::HistogramSpec{{1.0, 2.0, 4.0}});
  h.record(0.5);
  h.record(2.0);   // exactly on a bucket edge -> le="2" bucket
  h.record(100.0); // overflow

  const std::string text = reg.render_prometheus();
  EXPECT_EQ(text, reg.render_prometheus());

  EXPECT_NE(text.find("# TYPE sim_runs counter\nsim_runs 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_free_w gauge\nqueue_free_w 123.5\n"),
            std::string::npos);
  // Cumulative buckets; +Inf equals _count.
  EXPECT_NE(text.find("queue_job_wait_s_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("queue_job_wait_s_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("queue_job_wait_s_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("queue_job_wait_s_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("queue_job_wait_s_sum 102.5\n"), std::string::npos);
  EXPECT_NE(text.find("queue_job_wait_s_count 3\n"), std::string::npos);
}

TEST(Prometheus, SanitizesHostileMetricNames) {
  obs::MetricsRegistry reg;
  reg.counter("9lives.of-a.cat").add(1);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE _9lives_of_a_cat counter\n_9lives_of_a_cat 1\n"),
            std::string::npos);
}

TEST(Prometheus, EmitsHelpBeforeTypeForEveryFamily) {
  obs::MetricsRegistry reg;
  reg.counter("sim.runs").add(1);
  reg.gauge("queue.free_w").set(2.0);
  reg.histogram("queue.job_wait_s", obs::HistogramSpec{{1.0}}).record(0.5);
  const std::string text = reg.render_prometheus();

  // Each family opens with a HELP line naming the dotted registry source,
  // immediately followed by its TYPE line.
  EXPECT_NE(text.find("# HELP sim_runs clip counter sim.runs\n"
                      "# TYPE sim_runs counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP queue_free_w clip gauge queue.free_w\n"
                      "# TYPE queue_free_w gauge\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# HELP queue_job_wait_s clip histogram queue.job_wait_s\n"
                "# TYPE queue_job_wait_s histogram\n"),
      std::string::npos);

  // Exactly one HELP per TYPE: three families, three pairs.
  std::size_t help = 0, type = 0;
  for (std::size_t p = text.find("# HELP"); p != std::string::npos;
       p = text.find("# HELP", p + 1))
    ++help;
  for (std::size_t p = text.find("# TYPE"); p != std::string::npos;
       p = text.find("# TYPE", p + 1))
    ++type;
  EXPECT_EQ(help, 3u);
  EXPECT_EQ(type, 3u);
}

TEST(Prometheus, DeduplicatesCollidingSanitizedNames) {
  // Sanitizing is lossy: all three registry names map to `queue_depth`.
  // Duplicate families are an invalid exposition, so later families take
  // deterministic _2/_3 suffixes (counters render before gauges; within a
  // kind, sorted registry-name order: '.' < '_').
  obs::MetricsRegistry reg;
  reg.counter("queue.depth").add(1);
  reg.counter("queue_depth").add(2);
  reg.gauge("queue-depth").set(3.0);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE queue_depth counter\nqueue_depth 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth_2 counter\nqueue_depth_2 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth_3 gauge\nqueue_depth_3 3\n"),
            std::string::npos);
  // HELP preserves the original dotted names, so each scraped family can
  // be traced back to its registry series.
  EXPECT_NE(text.find("# HELP queue_depth_2 clip counter queue_depth\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP queue_depth_3 clip gauge queue-depth\n"),
            std::string::npos);
}

TEST(Prometheus, DedupSuffixNeverStealsALaterFamilyName) {
  // `a.b` collides with `a_b`; the de-dup suffix for `a_b` must skip
  // `a_b_2` because a real family of that name renders later.
  obs::MetricsRegistry reg;
  reg.counter("a.b").add(1);
  reg.counter("a_b").add(2);
  reg.counter("a_b_2").add(3);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE a_b counter\na_b 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE a_b_3 counter\na_b_3 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE a_b_2 counter\na_b_2 3\n"), std::string::npos);
}

TEST(Histogram, BucketCountsIncludeOverflow) {
  obs::Histogram h(obs::HistogramSpec{{10.0, 20.0}});
  h.record(5.0);
  h.record(10.0);   // inclusive upper bound -> first bucket
  h.record(15.0);
  h.record(1000.0); // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
}

}  // namespace
}  // namespace clip

// Tests for the observability layer: metric semantics, histogram quantile
// invariants, span nesting/pairing, Chrome-trace JSON well-formedness
// (validated by parsing the output back with a small strict JSON parser),
// multi-threaded recording, fake-clock determinism, and the end-to-end
// pipeline spans the scheduler emits (the `clipctl trace` contract: one span
// per decision stage).
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <variant>

#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "sim/executor.hpp"
#include "sim/rapl_controller.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"

namespace clip {
namespace {

using obs::FakeClock;
using obs::HistogramSpec;
using obs::MemorySink;
using obs::ObsSession;
using obs::ScopedSpan;
using obs::SpanRecord;

// ------------------------------------------------- minimal JSON parser ----
// Strict recursive-descent parser, just enough to validate trace output and
// navigate it. Throws std::runtime_error on any malformed input.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v;

  [[nodiscard]] const JsonObject& object() const {
    return std::get<JsonObject>(v);
  }
  [[nodiscard]] const JsonArray& array() const {
    return std::get<JsonArray>(v);
  }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    return object().at(key);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return std::holds_alternative<JsonObject>(v) && object().count(key) > 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t'))
      ++pos_;
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': literal("true"); return JsonValue{true};
      case 'f': literal("false"); return JsonValue{false};
      case 'n': literal("null"); return JsonValue{nullptr};
      default: return JsonValue{number()};
    }
  }

  void literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("bad literal");
    pos_ += lit.size();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            out += '?';  // code point fidelity is not under test
            pos_ += 4;
            break;
          }
          default: fail("bad escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out += c;
      }
    }
    ++pos_;
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("bad number");
    return std::stod(std::string(text_.substr(start, pos_ - start)));
  }

  JsonValue array() {
    expect('[');
    JsonArray items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue{std::move(items)};
    }
    while (true) {
      items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue{std::move(items)};
    }
  }

  JsonValue object() {
    expect('{');
    JsonObject members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue{std::move(members)};
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      members.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue{std::move(members)};
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------- counter / gauge ----

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, LastWriteWinsAndAdds) {
  obs::Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(RegistryTest, GetOrCreateReturnsStableMetrics) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.find_counter("x")->value(), 3u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);  // kinds are separate namespaces
}

// ------------------------------------------------------------- histogram ----

TEST(HistogramSpecTest, Validation) {
  EXPECT_THROW(HistogramSpec::linear(10.0, 10.0, 4), PreconditionError);
  EXPECT_THROW(HistogramSpec::linear(0.0, 1.0, 0), PreconditionError);
  EXPECT_THROW(HistogramSpec::exponential(0.0, 2.0, 4), PreconditionError);
  EXPECT_THROW(HistogramSpec::exponential(1.0, 1.0, 4), PreconditionError);
  HistogramSpec descending;
  descending.bounds = {2.0, 1.0};
  EXPECT_THROW(obs::Histogram{descending}, PreconditionError);

  const HistogramSpec lin = HistogramSpec::linear(0.0, 100.0, 10);
  ASSERT_EQ(lin.bounds.size(), 10u);
  EXPECT_DOUBLE_EQ(lin.bounds.front(), 10.0);
  EXPECT_DOUBLE_EQ(lin.bounds.back(), 100.0);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  obs::Histogram h(HistogramSpec::linear(0.0, 10.0, 10));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  for (double v : {1.0, 3.0, 5.0, 7.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
}

TEST(HistogramTest, QuantileInvariants) {
  // 1000 uniform values in [0, 100) across a matching linear spec.
  obs::Histogram h(HistogramSpec::linear(0.0, 100.0, 20));
  for (int i = 0; i < 1000; ++i) h.record(i % 100 + 0.5);

  double prev = -1.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "quantile must be monotone in q at " << q;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  // The interpolated median of a uniform distribution sits near the true
  // median; bucket resolution is 5, so allow one bucket of slack.
  EXPECT_NEAR(h.quantile(0.5), 50.0, 5.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 5.0);
}

TEST(HistogramTest, OverflowBucketClampsToObservedMax) {
  obs::Histogram h(HistogramSpec::linear(0.0, 10.0, 5));
  h.record(5.0);
  h.record(1e6);  // overflow bucket
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e6);
  EXPECT_LE(h.quantile(0.99), 1e6);
  EXPECT_GE(h.quantile(0.0), 5.0);
}

TEST(HistogramTest, QuantileAtExactBucketEdges) {
  // Bucket upper bounds are inclusive: a value recorded exactly on an edge
  // counts in that edge's bucket, and quantiles stay within the observed
  // [min, max] even when every observation sits on an edge.
  obs::Histogram h(HistogramSpec{{10.0, 20.0, 30.0}});
  for (double v : {10.0, 20.0, 30.0}) h.record(v);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);  // nothing overflowed

  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
  double prev = h.min();
  for (double q : {0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
}

TEST(HistogramTest, UnderflowLandsInFirstBucket) {
  // Values below the first bound have no underflow bucket of their own —
  // they count in the first bucket, and the quantile floor is the observed
  // minimum, not the bucket's notional lower edge.
  obs::Histogram h(HistogramSpec{{100.0, 200.0}});
  h.record(3.0);
  h.record(5.0);
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  EXPECT_GE(h.quantile(0.5), 3.0);
  EXPECT_LE(h.quantile(0.5), 5.0);
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::json_escape("a\nb\rc\td"), "a\\nb\\rc\\td");
  // Control characters without shorthand escape to \u00XX (lowercase hex).
  EXPECT_EQ(obs::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json_escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(obs::json_escape(std::string(1, '\0') + "x"), "\\u0000x");
}

TEST(JsonEscapeTest, PassesMultiByteUtf8Through) {
  // Multi-byte UTF-8 sequences have all bytes >= 0x80; none may be mangled
  // by the < 0x20 control check (a signed-char comparison bug would trip it).
  const std::string utf8 = "n\xc3\xb8" "de \xe2\x82\xac \xf0\x9f\x94\x8b";
  EXPECT_EQ(obs::json_escape(utf8), utf8);
}

TEST(JsonEscapeTest, EscapedStringsParseBack) {
  // The embedded test JsonParser maps \uXXXX to '?', so parse-back is
  // asserted for the shorthand escapes and structural validity only.
  const std::string hostile = "a\"b\\c\nd\te";
  const std::string json = "{\"s\": \"" + obs::json_escape(hostile) + "\"}";
  EXPECT_NO_THROW(JsonParser(json).parse());
}

// ------------------------------------------------------ spans + pairing ----

TEST(TracerTest, DetachedSpanIsInert) {
  ScopedSpan null_session(nullptr, "x");
  EXPECT_FALSE(null_session.active());

  ObsSession session;  // no sink attached
  ScopedSpan no_sink(&session, "x");
  EXPECT_FALSE(no_sink.active());
}

TEST(TracerTest, NestedSpansPairAndNestCorrectly) {
  FakeClock clock;
  ObsSession session(obs::ObsOptions{.clock = &clock});
  MemorySink sink;
  session.set_sink(&sink);
  {
    ScopedSpan outer(&session, "outer");
    clock.advance_us(10.0);
    {
      ScopedSpan inner(&session, "inner");
      clock.advance_us(5.0);
    }
    clock.advance_us(10.0);
  }
  const std::vector<SpanRecord> spans = sink.spans();
  ASSERT_EQ(spans.size(), 2u);
  // LIFO completion: the child closes (and is emitted) before the parent.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[1].depth, 0);
  // Temporal containment on the same track.
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_GE(spans[0].start_us, spans[1].start_us);
  EXPECT_LE(spans[0].start_us + spans[0].duration_us,
            spans[1].start_us + spans[1].duration_us);
  EXPECT_DOUBLE_EQ(spans[0].duration_us, 5.0);
  EXPECT_DOUBLE_EQ(spans[1].duration_us, 25.0);
}

TEST(TracerTest, ScopedTimerRecordsFakeClockDuration) {
  FakeClock clock;
  ObsSession session(obs::ObsOptions{.clock = &clock});
  {
    const obs::ScopedTimer t(&session, "lat_us");
    clock.advance_us(33.0);
  }
  const obs::Histogram* h = session.metrics().find_histogram("lat_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 33.0);
}

// ------------------------------------------------- chrome trace export ----

TEST(ChromeTraceTest, EscapesAndParsesBack) {
  FakeClock clock;
  ObsSession session(obs::ObsOptions{.clock = &clock});
  MemorySink sink;
  session.set_sink(&sink);
  {
    ScopedSpan span(&session, "na\"me\\with\nspice", "cat");
    span.arg("app", "SP-MZ");
    span.arg("budget_w", 900.0);
    span.arg("nodes", 8);
    clock.advance_us(1.5);
  }

  const std::string json = obs::chrome_trace_json(sink.spans());
  const JsonValue doc = JsonParser(json).parse();
  ASSERT_TRUE(doc.has("traceEvents"));
  const JsonArray& events = doc.at("traceEvents").array();
  ASSERT_EQ(events.size(), 1u);
  const JsonValue& e = events[0];
  EXPECT_EQ(e.at("name").str(), "na\"me\\with\nspice");
  EXPECT_EQ(e.at("ph").str(), "X");
  EXPECT_EQ(e.at("cat").str(), "cat");
  EXPECT_DOUBLE_EQ(e.at("dur").num(), 1.5);
  EXPECT_EQ(e.at("args").at("app").str(), "SP-MZ");
  EXPECT_DOUBLE_EQ(e.at("args").at("budget_w").num(), 900.0);
  EXPECT_DOUBLE_EQ(e.at("args").at("nodes").num(), 8.0);
}

TEST(ChromeTraceTest, CounterEventsParseBack) {
  obs::CounterSample c;
  c.name = "power.node0";
  c.time_us = 1000.0;
  c.series = {{"cpu_w", 85.25}, {"mem_w", 21.0}};
  const JsonValue doc = JsonParser(obs::chrome_trace_json({}, {c})).parse();
  const JsonValue& e = doc.at("traceEvents").array().at(0);
  EXPECT_EQ(e.at("ph").str(), "C");
  EXPECT_DOUBLE_EQ(e.at("args").at("cpu_w").num(), 85.25);
}

TEST(ChromeTraceTest, DeterministicWithFakeClock) {
  const auto make_trace = [] {
    FakeClock clock;
    ObsSession session(obs::ObsOptions{.clock = &clock});
    MemorySink sink;
    session.set_sink(&sink);
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(&session, "step", "test");
      span.arg("i", i);
      clock.advance_us(7.0);
    }
    return obs::chrome_trace_json(sink.spans());
  };
  const std::string a = make_trace();
  const std::string b = make_trace();
  EXPECT_EQ(a, b) << "fake-clock traces must be byte-identical";
  EXPECT_NE(a.find("\"ts\":0.000"), std::string::npos);
}

// ------------------------------------------------------- thread safety ----

TEST(ObsThreadingTest, ConcurrentRecordingLosesNothing) {
  ObsSession session;
  MemorySink sink;
  session.set_sink(&sink);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&session] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&session, "work", "mt");
        session.metrics().counter("mt.ops").add();
        session.metrics()
            .histogram("mt.vals", obs::HistogramSpec::linear(0.0, 1000.0, 10))
            .record(static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(session.metrics().find_counter("mt.ops")->value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(session.metrics().find_histogram("mt.vals")->count(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(sink.span_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Every span got a stable small thread index.
  for (const auto& s : sink.spans()) {
    EXPECT_GE(s.tid, 0);
    EXPECT_LT(s.tid, kThreads + 1);  // +1: main thread may hold index 0
  }
  // The whole trace still serializes to valid JSON.
  EXPECT_NO_THROW(JsonParser(obs::chrome_trace_json(sink.spans())).parse());
}

// ------------------------------------------- pipeline integration spans ----

class PipelineObsTest : public ::testing::Test {
 protected:
  static sim::MeterOptions no_noise() {
    sim::MeterOptions m;
    m.enabled = false;
    return m;
  }
  sim::SimExecutor executor_{sim::MachineSpec{}, no_noise()};
};

TEST_F(PipelineObsTest, SchedulerEmitsOneSpanPerPipelineStage) {
  core::ClipScheduler scheduler(executor_,
                                workloads::training_benchmarks());
  ObsSession session;
  MemorySink sink;
  session.set_sink(&sink);
  scheduler.set_observer(&session);
  executor_.set_observer(&session);

  const auto app = *workloads::find_benchmark("SP-MZ");
  const core::ScheduleDecision d = scheduler.schedule(app, Watts(900.0));
  EXPECT_GE(d.cluster.nodes, 1);

  std::map<std::string, int> by_name;
  for (const auto& s : sink.spans()) ++by_name[s.name];

  // The clipctl-trace contract: every decision stage shows up.
  const char* stages[] = {"pipeline.profile",     "pipeline.classify",
                          "pipeline.inflect",     "pipeline.node_select",
                          "pipeline.allocate",    "pipeline.coordinate"};
  for (const char* stage : stages)
    EXPECT_GE(by_name[stage], 1) << "missing stage span: " << stage;
  EXPECT_EQ(by_name["clip.schedule"], 1);
  // SP-MZ is parabolic: two profile samples plus one validation sample.
  EXPECT_EQ(by_name["profiler.sample"], 3);

  // Metrics moved in lockstep.
  const auto& metrics = session.metrics();
  EXPECT_EQ(metrics.find_counter("scheduler.schedules")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("scheduler.db_misses")->value(), 1u);
  EXPECT_EQ(metrics.find_counter("profiler.samples")->value(), 3u);
  EXPECT_GE(metrics.find_counter("sim.runs")->value(), 3u);
  EXPECT_EQ(metrics.find_histogram("scheduler.plan_us")->count(), 1u);

  // A second schedule of the same app hits the knowledge DB: no profiling.
  sink.clear();
  (void)scheduler.schedule(app, Watts(900.0));
  std::map<std::string, int> cached;
  for (const auto& s : sink.spans()) ++cached[s.name];
  EXPECT_EQ(cached["pipeline.profile"], 0);
  EXPECT_EQ(cached["pipeline.allocate"], 1);
  EXPECT_EQ(metrics.find_counter("scheduler.db_hits")->value(), 1u);

  // The full export parses back (the Perfetto-loadability proxy).
  const std::string json = obs::chrome_trace_json(sink.spans());
  EXPECT_NO_THROW(JsonParser(json).parse());
}

TEST_F(PipelineObsTest, RaplControllerFeedsStepHistograms) {
  ObsSession session;
  sim::RaplControllerSim controller(executor_.spec());
  controller.set_observer(&session);
  const auto w = *workloads::find_benchmark("CoMD");
  (void)controller.simulate(w, 24, parallel::AffinityPolicy::kScatter, 68.0,
                            Watts(80.0));
  EXPECT_EQ(session.metrics().find_counter("sim.rapl_controller.runs")
                ->value(),
            1u);
  const obs::Histogram* steps =
      session.metrics().find_histogram("sim.rapl_controller.steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_EQ(steps->count(), 1u);
  EXPECT_DOUBLE_EQ(steps->max(), 4000.0);  // default option steps
}

TEST(MetricsSummaryTest, TableListsEveryMetricDeterministically) {
  ObsSession session;
  session.metrics().counter("b.counter").add(2);
  session.metrics().gauge("a.gauge").set(1.5);
  session.metrics()
      .histogram("c.hist", obs::HistogramSpec::linear(0.0, 10.0, 5))
      .record(4.0);
  const Table t = session.metrics().summary_table();
  EXPECT_EQ(t.row_count(), 3u);
  std::ostringstream a, b;
  t.print(a);
  session.metrics().summary_table().print(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace clip

#include "obs/timeline.hpp"

// The flight recorder is fed by the simulator thread and tailed by the
// telemetry server thread; sample/event storage and the ring-drop counter
// mutate only under mu_ (clip-analyze L1 enforces the write side).
// clip-lint: guards(mu_: samples_, events_, dropped_)

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "obs/chrome_trace.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace clip::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double parse_double(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  CLIP_REQUIRE(end != s.c_str() && *end == '\0',
               std::string("timeline CSV: bad ") + what + " '" + s + "'");
  return v;
}

/// Step-function value of a sorted point deque at `t_s` (NaN before the
/// first sample). std::upper_bound over the deque keeps queries O(log n).
double value_at_points(const std::deque<TimelinePoint>& pts, double t_s) {
  auto it = std::upper_bound(
      pts.begin(), pts.end(), t_s,
      [](double t, const TimelinePoint& p) { return t < p.t_s; });
  if (it == pts.begin()) return kNaN;
  return std::prev(it)->value;
}

/// Append `p` to a series (sample or event) and count it; returns true when
/// the ring buffer evicted the oldest point to make room. The caller holds
/// the timeline's lock and bumps dropped_.
template <typename Series, typename Point>
bool push_point(Series& s, Point p, std::size_t ring_capacity,
                const char* what, std::string_view name) {
  CLIP_REQUIRE(std::isfinite(p.t_s), "timeline timestamp must be finite");
  CLIP_REQUIRE(s.points.empty() || p.t_s >= s.points.back().t_s,
               std::string("timeline ") + what + " '" + std::string(name) +
                   "' timestamps must be non-decreasing");
  bool evicted = false;
  if (ring_capacity > 0 && s.points.size() >= ring_capacity) {
    s.points.pop_front();
    evicted = true;
  }
  s.points.push_back(std::move(p));
  ++s.appended;
  return evicted;
}

template <typename Map>
typename Map::mapped_type& series_of(Map& all, std::string_view name) {
  auto it = all.find(name);
  if (it == all.end())
    it = all.emplace(std::string(name), typename Map::mapped_type{}).first;
  return it->second;
}

// --- delta text ------------------------------------------------------------
// Names and labels inside a delta: the delta's separators (',' between
// fields, ';' after a series) and the journal's (space between tokens,
// newline between records) never appear raw.

constexpr std::string_view kDeltaSpecial = "\\ \n,;";

void append_delta_text(std::string& out, std::string_view s) {
  for (;;) {
    const std::size_t hit = s.find_first_of(kDeltaSpecial);
    out.append(s.substr(0, hit));
    if (hit == std::string_view::npos) return;
    out += '\\';
    switch (s[hit]) {
      case ' ':
        out += 's';
        break;
      case '\n':
        out += 'n';
        break;
      case ',':
        out += 'c';
        break;
      case ';':
        out += 'e';
        break;
      default:
        out += '\\';
    }
    s.remove_prefix(hit + 1);
  }
}

/// Decode the text at the front of `in` up to the next ',' or ';' into
/// `out`, consuming it.
void read_delta_text(std::string_view& in, std::string& out) {
  out.clear();
  for (;;) {
    const std::size_t hit = in.find_first_of(",;\\");
    out.append(in.substr(0, hit));
    if (hit == std::string_view::npos) {
      in = {};
      return;
    }
    in.remove_prefix(hit);
    if (in.front() != '\\') return;
    CLIP_REQUIRE(in.size() >= 2, "timeline delta: dangling escape");
    switch (in[1]) {
      case 's':
        out += ' ';
        break;
      case 'n':
        out += '\n';
        break;
      case 'c':
        out += ',';
        break;
      case 'e':
        out += ';';
        break;
      case '\\':
        out += '\\';
        break;
      default:
        CLIP_REQUIRE(false, std::string("timeline delta: unknown escape \\") +
                                in[1]);
    }
    in.remove_prefix(2);
  }
}

double read_delta_double(std::string_view& in, const char* what) {
  double v = 0.0;
  const auto r = std::from_chars(in.data(), in.data() + in.size(), v);
  CLIP_REQUIRE(r.ec == std::errc() && r.ptr != in.data(),
               std::string("timeline delta: bad ") + what + " '" +
                   std::string(in.substr(0, in.find_first_of(",;"))) + "'");
  in.remove_prefix(static_cast<std::size_t>(r.ptr - in.data()));
  return v;
}

bool consume(std::string_view& in, char c) {
  if (in.empty() || in.front() != c) return false;
  in.remove_prefix(1);
  return true;
}

}  // namespace

namespace {

/// The historical format_exact: %.*g at every precision until strtod
/// round-trips. Kept as the correctness fallback (and for non-finite
/// values); the fast path below must render byte-identically.
void append_exact_slow(std::string& out, double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

/// The last values each thread rendered, direct-mapped on their bits. A
/// run renders the same numbers again and again: a job's end time in its
/// launch record and again in its completion record, the one instant every
/// series was sampled at in a timeline export, the same watts per node. A
/// hit skips both conversions below.
struct ExactMemo {
  /// Never a key: non-finite values bypass the memo.
  static constexpr std::uint64_t kEmpty = 0x7ff8'0000'0000'0001;
  struct Slot {
    std::uint64_t bits = kEmpty;
    std::uint8_t size = 0;
    char text[31] = {};
  };
  std::array<Slot, 32> slots{};
};
thread_local ExactMemo exact_memo;

}  // namespace

std::string format_exact(double v) {
  std::string out;
  append_exact(out, v);
  return out;
}

void append_exact(std::string& out, double v) {
  // One std::to_chars pass (scientific = shortest round-trip mantissa D and
  // decimal exponent E), then a hand-rendered %g at the minimal precision -
  // what the historical try-every-precision loop produced, without its up to
  // 17 snprintf+strtod round-trips. This is the journal/timeline hot path:
  // every snapshot serializes dozens of doubles through here. The
  // from_chars check at the end guards byte-compatibility (tests pin it
  // across a randomized sweep); any miss falls back to the loop.
  if (!std::isfinite(v)) {
    append_exact_slow(out, v);
    return;
  }
  const auto bits = std::bit_cast<std::uint64_t>(v);
  ExactMemo::Slot& slot =
      exact_memo.slots[(bits * 0x9E37'79B9'7F4A'7C15ull) >> 59];
  if (slot.bits == bits) {
    out.append(slot.text, slot.size);
    return;
  }
  char sci[40];
  const auto r =
      std::to_chars(sci, sci + sizeof sci, v, std::chars_format::scientific);
  char digits[20] = {'0'};
  int precision = 0;
  int exponent = 0;
  const char* p = sci;
  const bool negative = *p == '-';
  if (negative) ++p;
  for (; p != r.ptr && *p != 'e'; ++p)
    if (*p != '.') digits[precision++] = *p;
  if (p != r.ptr) std::from_chars(p + (p[1] == '+' ? 2 : 1), r.ptr, exponent);

  char buf[40];
  char* o = buf;
  if (negative) *o++ = '-';
  if (exponent < -4 || exponent >= precision) {
    *o++ = digits[0];
    if (precision > 1) {
      *o++ = '.';
      for (int i = 1; i < precision; ++i) *o++ = digits[i];
    }
    *o++ = 'e';
    *o++ = exponent < 0 ? '-' : '+';
    const int e = exponent < 0 ? -exponent : exponent;
    if (e >= 100) *o++ = static_cast<char>('0' + e / 100);
    *o++ = static_cast<char>('0' + e / 10 % 10);
    *o++ = static_cast<char>('0' + e % 10);
  } else if (exponent >= precision - 1) {
    for (int i = 0; i < precision; ++i) *o++ = digits[i];
    for (int i = precision - 1; i < exponent; ++i) *o++ = '0';
  } else if (exponent >= 0) {
    for (int i = 0; i <= exponent; ++i) *o++ = digits[i];
    *o++ = '.';
    for (int i = exponent + 1; i < precision; ++i) *o++ = digits[i];
  } else {
    *o++ = '0';
    *o++ = '.';
    for (int i = -1; i > exponent; --i) *o++ = '0';
    for (int i = 0; i < precision; ++i) *o++ = digits[i];
  }
  *o = '\0';
  // Verify with from_chars, not strtod: both parse correctly rounded, but
  // from_chars skips the locale machinery (this check runs per double).
  double back = 0.0;
  const auto pr = std::from_chars(buf, o, back);
  if (pr.ec == std::errc() && pr.ptr == o && back == v) {
    slot.bits = bits;
    slot.size = static_cast<std::uint8_t>(o - buf);
    std::copy(buf, o, slot.text);
    out.append(buf, o);
    return;
  }
  append_exact_slow(out, v);
}

Timeline::Timeline(TimelineOptions options) : options_(options) {}

void Timeline::record(std::string_view series, double t_s, double value) {
  CLIP_REQUIRE(!series.empty(), "timeline series name must not be empty");
  std::lock_guard lock(mu_);
  if (push_point(series_of(samples_, series), TimelinePoint{t_s, value},
                 options_.ring_capacity, "series", series))
    ++dropped_;
}

void Timeline::event(std::string_view series, double t_s,
                     std::string_view label) {
  CLIP_REQUIRE(!series.empty(), "timeline series name must not be empty");
  std::lock_guard lock(mu_);
  if (push_point(series_of(events_, series),
                 TimelineEvent{t_s, std::string(label)},
                 options_.ring_capacity, "event series", series))
    ++dropped_;
}

std::vector<std::string> Timeline::series_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(samples_.size() + events_.size());
  for (const auto& [name, _] : samples_) names.push_back(name);
  for (const auto& [name, _] : events_)
    if (samples_.find(name) == samples_.end()) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<TimelinePoint> Timeline::samples(std::string_view series) const {
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return {};
  return {it->second.points.begin(), it->second.points.end()};
}

std::vector<TimelineEvent> Timeline::events(std::string_view series) const {
  std::lock_guard lock(mu_);
  const auto it = events_.find(series);
  if (it == events_.end()) return {};
  return {it->second.points.begin(), it->second.points.end()};
}

std::size_t Timeline::total_samples() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [_, s] : samples_) n += s.points.size();
  return n;
}

std::uint64_t Timeline::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

SeriesSummary Timeline::summary(std::string_view series) const {
  std::lock_guard lock(mu_);
  SeriesSummary s;
  const auto it = samples_.find(series);
  if (it == samples_.end() || it->second.points.empty()) return s;
  const auto& pts = it->second.points;
  s.count = pts.size();
  s.min = s.max = pts.front().value;
  double sum = 0.0;
  for (const auto& p : pts) {
    s.min = std::min(s.min, p.value);
    s.max = std::max(s.max, p.value);
    sum += p.value;
  }
  s.mean = sum / static_cast<double>(pts.size());
  s.first_t_s = pts.front().t_s;
  s.last_t_s = pts.back().t_s;
  return s;
}

double Timeline::value_at(std::string_view series, double t_s) const {
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return kNaN;
  return value_at_points(it->second.points, t_s);
}

std::vector<TimelinePoint> Timeline::resample(std::string_view series,
                                              double t0, double t1,
                                              std::size_t points) const {
  CLIP_REQUIRE(t1 >= t0, "resample needs t1 >= t0");
  CLIP_REQUIRE(points >= 1, "resample needs at least one point");
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  std::vector<TimelinePoint> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t =
        points == 1 ? t0
                    : t0 + (t1 - t0) * static_cast<double>(i) /
                               static_cast<double>(points - 1);
    const double v = it == samples_.end()
                         ? kNaN
                         : value_at_points(it->second.points, t);
    out.push_back(TimelinePoint{t, v});
  }
  return out;
}

double Timeline::integral(std::string_view series, double t0,
                          double t1) const {
  CLIP_REQUIRE(t1 >= t0, "integral needs t1 >= t0");
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return 0.0;
  const auto& pts = it->second.points;
  double acc = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double lo = std::max(pts[i].t_s, t0);
    const double hi =
        std::min(i + 1 < pts.size() ? pts[i + 1].t_s : t1, t1);
    if (hi > lo) acc += pts[i].value * (hi - lo);
  }
  return acc;
}

double Timeline::time_above(std::string_view series, double threshold,
                            double t0, double t1) const {
  CLIP_REQUIRE(t1 >= t0, "time_above needs t1 >= t0");
  std::lock_guard lock(mu_);
  const auto it = samples_.find(series);
  if (it == samples_.end()) return 0.0;
  const auto& pts = it->second.points;
  double acc = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (!(pts[i].value > threshold)) continue;
    const double lo = std::max(pts[i].t_s, t0);
    const double hi =
        std::min(i + 1 < pts.size() ? pts[i + 1].t_s : t1, t1);
    if (hi > lo) acc += hi - lo;
  }
  return acc;
}

void Timeline::write_csv(const std::filesystem::path& path) const {
  clip::write_csv(path, to_csv_document());
}

std::string Timeline::to_csv_string() const {
  return render_csv(to_csv_document());
}

CsvDocument Timeline::to_csv_document() const {
  std::lock_guard lock(mu_);
  CsvDocument doc;
  doc.header = {"kind", "series", "t_s", "value", "label"};
  for (const auto& [name, s] : samples_)
    for (const auto& p : s.points)
      doc.rows.push_back(
          {"sample", name, format_exact(p.t_s), format_exact(p.value), ""});
  for (const auto& [name, e] : events_)
    for (const auto& ev : e.points)
      doc.rows.push_back(
          {"event", name, format_exact(ev.t_s), "", ev.label});
  return doc;
}

void Timeline::write_jsonl(const std::filesystem::path& path) const {
  std::lock_guard lock(mu_);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  CLIP_REQUIRE(out.good(), "cannot open " + path.string());
  for (const auto& [name, s] : samples_)
    for (const auto& p : s.points)
      out << "{\"kind\":\"sample\",\"series\":\"" << json_escape(name)
          << "\",\"t_s\":" << format_exact(p.t_s)
          << ",\"value\":" << format_exact(p.value) << "}\n";
  for (const auto& [name, e] : events_)
    for (const auto& ev : e.points)
      out << "{\"kind\":\"event\",\"series\":\"" << json_escape(name)
          << "\",\"t_s\":" << format_exact(ev.t_s) << ",\"label\":\""
          << json_escape(ev.label) << "\"}\n";
  CLIP_REQUIRE(out.good(), "write failed: " + path.string());
}

void Timeline::load_csv(const std::filesystem::path& path) {
  load_csv_document(read_csv(path), path.string());
}

void Timeline::load_csv_document(const CsvDocument& doc,
                                 const std::string& context) {
  CLIP_REQUIRE(doc.header ==
                   std::vector<std::string>(
                       {"kind", "series", "t_s", "value", "label"}),
               "not a timeline CSV: " + context);
  for (const auto& row : doc.rows) {
    const std::string& kind = row[0];
    const double t_s = parse_double(row[2], "t_s");
    if (kind == "sample") {
      record(row[1], t_s, parse_double(row[3], "value"));
    } else if (kind == "event") {
      event(row[1], t_s, row[4]);
    } else {
      CLIP_REQUIRE(false, "timeline CSV: unknown kind '" + kind + "'");
    }
  }
}

void Timeline::write_delta(std::string& out, TimelineMark& mark) const {
  std::lock_guard lock(mu_);
  // Both maps are in name order: walk each series beside its mark.
  const auto write = [&out](char kind, const auto& all, auto& marks,
                            const auto& field) {
    auto m = marks.begin();
    for (const auto& [name, s] : all) {
      while (m != marks.end() && m->first < name) ++m;
      if (m == marks.end() || m->first != name)
        m = marks.emplace_hint(m, name, 0);
      const std::uint64_t fresh = s.appended - m->second;
      m->second = s.appended;
      if (fresh == 0) continue;
      out += kind;
      append_delta_text(out, name);
      // Points the ring evicted since the mark are gone: write what is held.
      const auto n = static_cast<std::ptrdiff_t>(
          std::min<std::uint64_t>(fresh, s.points.size()));
      for (auto p = s.points.end() - n; p != s.points.end(); ++p) {
        out += ',';
        append_exact(out, p->t_s);
        out += ',';
        field(*p);
      }
      out += ';';
    }
  };
  write('s', samples_, mark.samples,
        [&out](const TimelinePoint& p) { append_exact(out, p.value); });
  write('e', events_, mark.events,
        [&out](const TimelineEvent& e) { append_delta_text(out, e.label); });
}

void Timeline::apply_delta(std::string_view delta) {
  std::lock_guard lock(mu_);
  std::string name;
  std::string label;
  while (!delta.empty()) {
    const char kind = delta.front();
    CLIP_REQUIRE(kind == 's' || kind == 'e',
                 std::string("timeline delta: unknown series kind '") + kind +
                     "'");
    delta.remove_prefix(1);
    read_delta_text(delta, name);
    CLIP_REQUIRE(!name.empty(), "timeline delta: empty series name");
    if (kind == 's') {
      auto& s = series_of(samples_, name);
      while (consume(delta, ',')) {
        const double t_s = read_delta_double(delta, "t_s");
        CLIP_REQUIRE(consume(delta, ','),
                     "timeline delta: sample of '" + name + "' has no value");
        const double value = read_delta_double(delta, "value");
        if (push_point(s, TimelinePoint{t_s, value}, options_.ring_capacity,
                       "series", name))
          ++dropped_;
      }
    } else {
      auto& s = series_of(events_, name);
      while (consume(delta, ',')) {
        const double t_s = read_delta_double(delta, "t_s");
        CLIP_REQUIRE(consume(delta, ','),
                     "timeline delta: event of '" + name + "' has no label");
        read_delta_text(delta, label);
        if (push_point(s, TimelineEvent{t_s, label}, options_.ring_capacity,
                       "event series", name))
          ++dropped_;
      }
    }
    CLIP_REQUIRE(consume(delta, ';'),
                 "timeline delta: series '" + name + "' is not terminated");
  }
}

TimelineMark Timeline::mark() const {
  std::lock_guard lock(mu_);
  TimelineMark m;
  for (const auto& [name, s] : samples_)
    m.samples.emplace_hint(m.samples.end(), name, s.appended);
  for (const auto& [name, s] : events_)
    m.events.emplace_hint(m.events.end(), name, s.appended);
  return m;
}

void Timeline::clear() {
  std::lock_guard lock(mu_);
  samples_.clear();
  events_.clear();
  dropped_ = 0;
}

}  // namespace clip::obs

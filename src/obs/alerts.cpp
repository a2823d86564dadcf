#include "obs/alerts.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace clip::obs {

namespace {

/// End of the recorded run: the latest timestamp on any sample series or
/// event stream. Rule windows run [0, end].
double timeline_end(const Timeline& tl) {
  double end = 0.0;
  for (const auto& name : tl.series_names()) {
    const auto s = tl.summary(name);
    if (s.count > 0) end = std::max(end, s.last_t_s);
    const auto evs = tl.events(name);
    if (!evs.empty()) end = std::max(end, evs.back().t_s);
  }
  return end;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

double parse_number(const std::string& s, const std::string& context) {
  const std::optional<double> v = parse_whole<double>(s);
  CLIP_REQUIRE(v.has_value() && std::isfinite(*v),
               context + ": bad number '" + s + "'");
  return *v;
}

bool mode_label_matches(const std::string& label, const std::string& prefix) {
  if (!prefix.empty()) return starts_with(label, prefix);
  return starts_with(label, "METER_BLACKOUT") ||
         starts_with(label, "BUDGET_BROWNOUT");
}

/// Nearest-rank quantile of the series' recorded values.
double nearest_rank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  return values[rank - 1];
}

}  // namespace

const char* to_string(AlertSeverity severity) {
  switch (severity) {
    case AlertSeverity::kInfo:
      return "info";
    case AlertSeverity::kWarning:
      return "warning";
    case AlertSeverity::kCritical:
      return "critical";
  }
  return "?";
}

void AlertRule::validate() const {
  CLIP_REQUIRE(!name.empty(), "alert rule needs a name");
  CLIP_REQUIRE(name.find_first_of(" \t\n\"") == std::string::npos,
               "alert rule name '" + name +
                   "' must not contain whitespace or a quote");
  CLIP_REQUIRE(std::isfinite(threshold),
               "alert rule '" + name + "': threshold must be finite");
  if (kind == AlertKind::kModeTransition) {
    CLIP_REQUIRE(!series.empty(),
                 "alert rule '" + name + "': mode rules need a stream");
  } else {
    CLIP_REQUIRE(!series.empty(),
                 "alert rule '" + name + "' needs a series");
  }
  if (kind == AlertKind::kQuantileAbove)
    CLIP_REQUIRE(level > 0.0 && level <= 1.0,
                 "alert rule '" + name + "': quantile must be in (0, 1]");
  if (kind == AlertKind::kTimeAbove)
    CLIP_REQUIRE(std::isfinite(level),
                 "alert rule '" + name + "': level must be finite");
}

std::string AlertRule::expression() const {
  std::string expr;
  switch (kind) {
    case AlertKind::kValueAbove:
      expr = "value(" + series + ")";
      break;
    case AlertKind::kTimeAbove:
      expr = "time_above(" + series + ", " + format_exact(level) + ")";
      break;
    case AlertKind::kQuantileAbove: {
      // A whole percent renders as the digits parse_rules reads back.
      const double q = std::round(level * 100.0);
      expr = "p" +
             (q >= 1.0 && q <= 100.0 && q / 100.0 == level
                  ? std::to_string(static_cast<int>(q))
                  : format_exact(level * 100.0)) +
             "(" + series + ")";
      break;
    }
    case AlertKind::kEventCount:
      expr = "events(" + series + (prefix.empty() ? "" : ", " + prefix) + ")";
      break;
    case AlertKind::kModeTransition:
      expr = "mode(" + prefix + ")";
      break;
  }
  return expr + " > " + format_exact(threshold);
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules)) {
  for (const auto& r : rules_) r.validate();
}

void AlertEngine::add_rule(AlertRule rule) {
  rule.validate();
  rules_.push_back(std::move(rule));
}

std::vector<AlertOutcome> AlertEngine::evaluate(
    const Timeline& timeline, const MetricsRegistry* metrics) const {
  const double end_s = timeline_end(timeline);
  std::vector<AlertOutcome> outcomes;
  outcomes.reserve(rules_.size());
  for (const auto& rule : rules_) {
    AlertOutcome out;
    out.rule = rule;
    out.at_s = end_s;
    switch (rule.kind) {
      case AlertKind::kValueAbove: {
        const auto pts = timeline.samples(rule.series);
        if (pts.empty()) {
          out.detail = "no samples";
          break;
        }
        out.observed = pts.back().value;
        out.fired = out.observed > rule.threshold;
        for (const auto& p : pts) {
          if (p.value > rule.threshold) {
            out.at_s = p.t_s;
            break;
          }
        }
        out.detail = "value=" + format_exact(out.observed);
        break;
      }
      case AlertKind::kTimeAbove: {
        out.observed =
            timeline.time_above(rule.series, rule.level, 0.0, end_s);
        out.fired = out.observed > rule.threshold;
        if (out.fired) {
          // The instant the cumulative time above `level` crossed the
          // threshold, found by replaying the step function's segments.
          const auto pts = timeline.samples(rule.series);
          double acc = 0.0;
          for (std::size_t i = 0; i < pts.size(); ++i) {
            if (!(pts[i].value > rule.level)) continue;
            const double lo = std::max(pts[i].t_s, 0.0);
            const double hi = std::min(
                i + 1 < pts.size() ? pts[i + 1].t_s : end_s, end_s);
            if (hi <= lo) continue;
            if (acc + (hi - lo) > rule.threshold) {
              out.at_s = lo + std::max(rule.threshold - acc, 0.0);
              break;
            }
            acc += hi - lo;
          }
        }
        out.detail = "time_above_s=" + format_exact(out.observed);
        break;
      }
      case AlertKind::kQuantileAbove: {
        const auto pts = timeline.samples(rule.series);
        if (!pts.empty()) {
          std::vector<double> values;
          values.reserve(pts.size());
          for (const auto& p : pts) values.push_back(p.value);
          out.observed = nearest_rank(std::move(values), rule.level);
          out.at_s = pts.back().t_s;
        } else if (metrics != nullptr) {
          const Histogram* h = metrics->find_histogram(rule.series);
          if (h == nullptr || h->count() == 0) {
            out.detail = "no samples";
            break;
          }
          out.observed = h->quantile(rule.level);
        } else {
          out.detail = "no samples";
          break;
        }
        out.fired = out.observed > rule.threshold;
        out.detail = "p" + format_exact(rule.level * 100.0) + "=" +
                     format_exact(out.observed);
        break;
      }
      case AlertKind::kEventCount:
      case AlertKind::kModeTransition: {
        const auto evs = timeline.events(rule.series);
        std::uint64_t n = 0;
        for (const auto& e : evs) {
          const bool match =
              rule.kind == AlertKind::kModeTransition
                  ? mode_label_matches(e.label, rule.prefix)
                  : (rule.prefix.empty() ||
                     starts_with(e.label, rule.prefix));
          if (!match) continue;
          ++n;
          if (static_cast<double>(n) > rule.threshold && !out.fired) {
            out.fired = true;
            out.at_s = e.t_s;
          }
        }
        out.observed = static_cast<double>(n);
        out.detail = (rule.kind == AlertKind::kModeTransition
                          ? "transitions="
                          : "events=") +
                     format_exact(out.observed);
        break;
      }
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

std::vector<AlertOutcome> AlertEngine::evaluate_and_record(
    Timeline& timeline, const MetricsRegistry* metrics) const {
  auto outcomes = evaluate(timeline, metrics);
  std::vector<const AlertOutcome*> fired;
  for (const auto& o : outcomes)
    if (o.fired) fired.push_back(&o);
  std::sort(fired.begin(), fired.end(),
            [](const AlertOutcome* a, const AlertOutcome* b) {
              if (a->at_s != b->at_s) return a->at_s < b->at_s;
              return a->rule.name < b->rule.name;
            });
  double last_t = timeline_end(timeline);
  for (const AlertOutcome* o : fired) {
    timeline.event("alert", o->at_s,
                   std::string(to_string(o->rule.severity)) + " " +
                       o->rule.name + " " + o->detail);
    last_t = std::max(last_t, o->at_s);
  }
  timeline.record("alert.firing", last_t,
                  static_cast<double>(fired.size()));
  return outcomes;
}

std::vector<AlertRule> AlertEngine::default_rules() {
  // The built-in SLO catalog for power-aware queue runs. Series and event
  // labels match what QueueEventLoop records (docs/observability.md).
  std::vector<AlertRule> rules;
  auto add = [&rules](std::string name, AlertKind kind, AlertSeverity sev,
                      std::string series, double level, std::string prefix,
                      double threshold) {
    AlertRule r;
    r.name = std::move(name);
    r.kind = kind;
    r.severity = sev;
    r.series = std::move(series);
    r.level = level;
    r.prefix = std::move(prefix);
    r.threshold = threshold;
    rules.push_back(std::move(r));
  };
  add("budget-violation", AlertKind::kValueAbove, AlertSeverity::kCritical,
      "budget.violation_s", 0.0, "", 0.0);
  add("queue-stranded", AlertKind::kValueAbove, AlertSeverity::kCritical,
      "queue.depth", 0.0, "", 0.0);
  add("jobs-failed", AlertKind::kEventCount, AlertSeverity::kCritical,
      "job", 0.0, "fail ", 0.0);
  add("journal-gap", AlertKind::kEventCount, AlertSeverity::kCritical,
      "journal", 0.0, "gap", 0.0);
  add("node-crash", AlertKind::kEventCount, AlertSeverity::kWarning,
      "fault", 0.0, "crash", 0.0);
  add("meter-blackout", AlertKind::kModeTransition, AlertSeverity::kWarning,
      "mode", 0.0, "METER_BLACKOUT", 0.0);
  add("budget-brownout", AlertKind::kModeTransition, AlertSeverity::kWarning,
      "mode", 0.0, "BUDGET_BROWNOUT", 0.0);
  add("slow-decisions", AlertKind::kQuantileAbove, AlertSeverity::kWarning,
      "queue.decision_latency_us", 0.99, "", 100000.0);
  for (const auto& r : rules) r.validate();
  return rules;
}

std::vector<AlertRule> AlertEngine::parse_rules(const std::string& text,
                                                const std::string& context) {
  std::vector<AlertRule> rules;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string where = context + ":" + std::to_string(line_no);
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    // <name> <severity> <expr> > <threshold>
    std::istringstream fields(line);
    AlertRule rule;
    std::string severity;
    fields >> rule.name >> severity;
    CLIP_REQUIRE(fields.good(), where + ": expected 'name severity expr'");
    if (severity == "info") {
      rule.severity = AlertSeverity::kInfo;
    } else if (severity == "warning" || severity == "warn") {
      rule.severity = AlertSeverity::kWarning;
    } else if (severity == "critical") {
      rule.severity = AlertSeverity::kCritical;
    } else {
      CLIP_REQUIRE(false, where + ": unknown severity '" + severity +
                              "' (info|warning|critical)");
    }
    std::string rest;
    std::getline(fields, rest);
    const auto gt = rest.find('>');
    CLIP_REQUIRE(gt != std::string::npos,
                 where + ": expected '<expr> > <threshold>'");
    const std::string expr = trim(rest.substr(0, gt));
    rule.threshold = parse_number(trim(rest.substr(gt + 1)), where);

    const auto open = expr.find('(');
    CLIP_REQUIRE(open != std::string::npos && expr.back() == ')',
                 where + ": expected a function expression, got '" + expr +
                     "'");
    const std::string fn = trim(expr.substr(0, open));
    std::vector<std::string> args;
    const std::string inner =
        expr.substr(open + 1, expr.size() - open - 2);
    if (!trim(inner).empty())
      for (const auto& a : split(inner, ',')) args.push_back(trim(a));

    if (fn == "value") {
      CLIP_REQUIRE(args.size() == 1, where + ": value(<series>)");
      rule.kind = AlertKind::kValueAbove;
      rule.series = args[0];
    } else if (fn == "time_above") {
      CLIP_REQUIRE(args.size() == 2,
                   where + ": time_above(<series>, <level>)");
      rule.kind = AlertKind::kTimeAbove;
      rule.series = args[0];
      rule.level = parse_number(args[1], where);
    } else if (fn.size() > 1 && fn[0] == 'p' &&
               fn.find_first_not_of("0123456789", 1) == std::string::npos) {
      CLIP_REQUIRE(args.size() == 1, where + ": p<Q>(<series>)");
      rule.kind = AlertKind::kQuantileAbove;
      rule.series = args[0];
      rule.level = parse_number(fn.substr(1), where) / 100.0;
    } else if (fn == "events") {
      CLIP_REQUIRE(args.size() == 1 || args.size() == 2,
                   where + ": events(<stream>[, <prefix>])");
      rule.kind = AlertKind::kEventCount;
      rule.series = args[0];
      if (args.size() == 2) rule.prefix = args[1];
    } else if (fn == "mode") {
      CLIP_REQUIRE(args.size() <= 1, where + ": mode([<state-prefix>])");
      rule.kind = AlertKind::kModeTransition;
      rule.series = "mode";
      if (!args.empty()) rule.prefix = args[0];
    } else {
      CLIP_REQUIRE(false, where + ": unknown rule function '" + fn + "'");
    }
    try {
      rule.validate();
    } catch (const PreconditionError& e) {
      throw PreconditionError(where + ": " + e.what());
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::string AlertEngine::render_table(
    const std::vector<AlertOutcome>& outcomes) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"ALERT", "SEVERITY", "FIRED", "OBSERVED", "AT(s)", "RULE"});
  for (const auto& o : outcomes)
    rows.push_back({o.rule.name, to_string(o.rule.severity),
                    o.fired ? "FIRED" : "ok", format_exact(o.observed),
                    format_exact(o.at_s), o.rule.expression()});
  std::vector<std::size_t> width(rows[0].size(), 0);
  for (const auto& row : rows)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << row[c];
      if (c + 1 < row.size())
        out << std::string(width[c] - row[c].size() + 2, ' ');
    }
    out << '\n';
  }
  return out.str();
}

std::string AlertEngine::render_json(
    const std::vector<AlertOutcome>& outcomes) {
  std::ostringstream out;
  int fired = 0;
  out << "{\n  \"alerts\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    if (o.fired) ++fired;
    out << "    {\"name\":\"" << json_escape(o.rule.name)
        << "\",\"severity\":\"" << to_string(o.rule.severity)
        << "\",\"rule\":\"" << json_escape(o.rule.expression())
        << "\",\"fired\":" << (o.fired ? "true" : "false")
        << ",\"observed\":" << format_exact(o.observed)
        << ",\"at_s\":" << format_exact(o.at_s) << ",\"detail\":\""
        << json_escape(o.detail) << "\"}"
        << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fired\": " << fired << "\n}\n";
  return out.str();
}

int AlertEngine::exit_code(const std::vector<AlertOutcome>& outcomes) {
  for (const auto& o : outcomes)
    if (o.fired) return 1;
  return 0;
}

}  // namespace clip::obs

#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/power_meter.hpp"
#include "util/check.hpp"

namespace clip::fault {

namespace {

/// The rate model resolve() and work_done_s() share: a job on `nodes` paces
/// at its slowest node, and a node's rate is the product of every degrade
/// already in effect on it.
double rate_at(const FaultPlan& plan, const std::vector<int>& nodes,
               double t) {
  double slowest = 1.0;
  for (int n : nodes) {
    double node_rate = 1.0;
    for (const auto& d : plan.degrades)
      if (d.node == n && d.at_s <= t) node_rate *= d.speed_factor;
    slowest = std::min(slowest, node_rate);
  }
  return slowest;
}

/// The instants after `start_s` where the rate of a job on `nodes` can
/// change: degrade arrivals on its nodes, sorted and deduplicated.
std::vector<double> degrade_breaks(const FaultPlan& plan,
                                   const std::vector<int>& nodes,
                                   double start_s) {
  std::vector<double> breaks;
  for (const auto& d : plan.degrades)
    if (d.at_s > start_s &&
        std::find(nodes.begin(), nodes.end(), d.node) != nodes.end())
      breaks.push_back(d.at_s);
  std::sort(breaks.begin(), breaks.end());
  breaks.erase(std::unique(breaks.begin(), breaks.end()), breaks.end());
  return breaks;
}

}  // namespace

double backoff_s(int attempt) {
  CLIP_REQUIRE(attempt >= 1, "backoff attempt is 1-based");
  return kBackoffBaseS * std::pow(kBackoffFactor, attempt - 1);
}

FaultInjector::FaultInjector(FaultPlan plan, int cluster_nodes)
    : plan_(std::move(plan)), cluster_nodes_(cluster_nodes) {
  plan_.validate(cluster_nodes);
  violation_ends_.reserve(plan_.cap_violations.size());
  for (const auto& v : plan_.cap_violations)
    violation_ends_.push_back(v.at_s + v.duration_s);
}

std::vector<double> FaultInjector::wakeups() const {
  std::vector<double> times;
  for (const auto& c : plan_.crashes) times.push_back(c.at_s);
  for (const auto& d : plan_.degrades) times.push_back(d.at_s);
  for (const auto& m : plan_.meter_faults) {
    times.push_back(m.at_s);
    times.push_back(m.at_s + m.duration_s);
  }
  for (std::size_t i = 0; i < plan_.cap_violations.size(); ++i) {
    times.push_back(plan_.cap_violations[i].at_s);
    times.push_back(violation_ends_[i]);
  }
  for (const auto& b : plan_.meter_blackouts) {
    times.push_back(b.at_s);
    times.push_back(b.at_s + b.duration_s);
  }
  for (const auto& c : plan_.budget_cuts) {
    times.push_back(c.at_s);
    times.push_back(c.at_s + c.duration_s);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

bool FaultInjector::node_crashed(int node, double t) const {
  for (const auto& c : plan_.crashes)
    if (c.node == node && c.at_s <= t) return true;
  return false;
}

RunResolution FaultInjector::resolve(double start_s, double duration_s,
                                     const std::vector<int>& nodes) const {
  CLIP_REQUIRE(duration_s >= 0.0, "run duration must be non-negative");
  RunResolution r;

  // Earliest crash among the held nodes (a crash at or before start aborts
  // immediately — the queue should never place on a dead node, but resolve
  // stays total).
  double crash_at = std::numeric_limits<double>::infinity();
  int crash_node = -1;
  for (const auto& c : plan_.crashes) {
    if (std::find(nodes.begin(), nodes.end(), c.node) == nodes.end())
      continue;
    const double at = std::max(c.at_s, start_s);
    if (at < crash_at) {
      crash_at = at;
      crash_node = c.node;
    }
  }

  // Piecewise integration of the job's progress between rate changes.
  const std::vector<double> breaks = degrade_breaks(plan_, nodes, start_s);
  double t = start_s;
  double work_left = duration_s;
  std::size_t next_break = 0;
  double end = start_s;
  for (;;) {
    const double rate = rate_at(plan_, nodes, t);
    const double seg_end = next_break < breaks.size()
                               ? breaks[next_break]
                               : std::numeric_limits<double>::infinity();
    const double need_s = work_left / rate;
    if (t + need_s <= seg_end) {
      end = t + need_s;
      break;
    }
    work_left -= (seg_end - t) * rate;
    t = seg_end;
    ++next_break;
  }

  if (crash_at < end) {
    r.crashed = true;
    r.crashed_node = crash_node;
    r.end_s = crash_at;
  } else {
    r.end_s = end;
  }
  r.slowdown = duration_s > 0.0 ? (end - start_s) / duration_s : 1.0;
  return r;
}

double FaultInjector::work_done_s(double start_s, double t_s,
                                  const std::vector<int>& nodes) const {
  CLIP_REQUIRE(t_s >= start_s, "work_done_s needs t_s >= start_s");
  // Same piecewise rate model as resolve(), integrated up to t_s.
  double done = 0.0;
  double t = start_s;
  for (const double b : degrade_breaks(plan_, nodes, start_s)) {
    if (b >= t_s) break;
    done += (b - t) * rate_at(plan_, nodes, t);
    t = b;
  }
  done += (t_s - t) * rate_at(plan_, nodes, t);
  return done;
}

double FaultInjector::observed_node_power(int node, double t,
                                          double truth_w) const {
  for (const auto& m : plan_.meter_faults) {
    if (m.node != node || t < m.at_s || t >= m.at_s + m.duration_s) continue;
    // Same corruption the sim's meter layer applies (sim/power_meter.hpp),
    // windowed by the plan.
    sim::MeterFaultState state;
    state.value = m.value;
    switch (m.kind) {
      case MeterFaultKind::kStuckAt:
        state.kind = sim::MeterFaultState::Kind::kStuckAt;
        break;
      case MeterFaultKind::kDropout:
        state.kind = sim::MeterFaultState::Kind::kDropout;
        break;
      case MeterFaultKind::kSpike:
        state.kind = sim::MeterFaultState::Kind::kSpike;
        break;
    }
    return sim::corrupt_reading(state, truth_w);
  }
  return truth_w;
}

double FaultInjector::cap_excess_w(const std::vector<int>& nodes,
                                   double t) const {
  double excess = 0.0;
  for (std::size_t i = 0; i < plan_.cap_violations.size(); ++i) {
    const auto& v = plan_.cap_violations[i];
    if (t < v.at_s || t >= violation_ends_[i]) continue;
    if (std::find(nodes.begin(), nodes.end(), v.node) == nodes.end())
      continue;
    excess += v.excess_w;
  }
  return excess;
}

int FaultInjector::truncate_cap_violations(int node, double t) {
  int truncated = 0;
  for (std::size_t i = 0; i < plan_.cap_violations.size(); ++i) {
    const auto& v = plan_.cap_violations[i];
    if (v.node != node || t < v.at_s || t >= violation_ends_[i]) continue;
    violation_ends_[i] = t;
    ++truncated;
  }
  return truncated;
}

bool FaultInjector::meters_blacked_out(double t) const {
  for (const auto& b : plan_.meter_blackouts)
    if (b.at_s <= t && t < b.at_s + b.duration_s) return true;
  return false;
}

double FaultInjector::budget_cut_factor(double t) const {
  double factor = 1.0;
  for (const auto& c : plan_.budget_cuts)
    if (c.at_s <= t && t < c.at_s + c.duration_s)
      factor = std::min(factor, c.factor);
  return factor;
}

void FaultInjector::restore_violation_ends(const std::vector<double>& ends) {
  CLIP_REQUIRE(ends.size() == violation_ends_.size(),
               "violation-ends snapshot does not match the plan (" +
                   std::to_string(ends.size()) + " vs " +
                   std::to_string(violation_ends_.size()) + " windows)");
  for (std::size_t i = 0; i < ends.size(); ++i)
    CLIP_REQUIRE(ends[i] <= violation_ends_[i],
                 "violation-ends snapshot extends a window (claw-backs only "
                 "ever truncate)");
  violation_ends_ = ends;
}

std::vector<int> FaultInjector::violating_nodes(const std::vector<int>& nodes,
                                                double t) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < plan_.cap_violations.size(); ++i) {
    const auto& v = plan_.cap_violations[i];
    if (t < v.at_s || t >= violation_ends_[i]) continue;
    if (std::find(nodes.begin(), nodes.end(), v.node) == nodes.end())
      continue;
    if (std::find(out.begin(), out.end(), v.node) == out.end())
      out.push_back(v.node);
  }
  return out;
}

}  // namespace clip::fault

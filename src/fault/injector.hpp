// FaultInjector — replays a FaultPlan against simulated runs.
//
// The analytic simulator returns a complete Measurement for a run up front,
// so faults are resolved against a job's *time window*: given a placement
// (start time, fault-free duration, node set) the injector answers what
// actually happens — when the job ends after thermal degradation stretches
// it, whether a node it holds crashes first, and what a power-meter read of
// one of its nodes returns at a given instant. The injector is const and
// pure; the resilient queue (runtime/queue.hpp) owns all reaction —
// requeueing, watt reclamation, cap claw-back — and all observability
// emission.
#pragma once

#include <vector>

#include "fault/plan.hpp"

namespace clip::fault {

/// Bounded retries for crash-killed jobs, with exponential backoff. Failed
/// nodes are excluded structurally: a crashed node leaves the healthy pool
/// for good, so no retry can land on it.
inline constexpr int kMaxAttempts = 3;         ///< placements per job
inline constexpr double kBackoffBaseS = 5.0;   ///< delay before the first retry
inline constexpr double kBackoffFactor = 2.0;  ///< multiplier per later retry

/// Delay after the `attempt`-th failed placement (1-based):
/// kBackoffBaseS · kBackoffFactor^(attempt − 1).
[[nodiscard]] double backoff_s(int attempt);

/// What the injector resolved for one placement.
struct RunResolution {
  bool crashed = false;    ///< a held node died before the job finished
  int crashed_node = -1;   ///< which one (first to die)
  double end_s = 0.0;      ///< completion time, or the abort time if crashed
  double slowdown = 1.0;   ///< (end - start) / fault-free duration, >= 1
};

class FaultInjector {
 public:
  /// `cluster_nodes` sizes the validity check; the plan is copied.
  FaultInjector(FaultPlan plan, int cluster_nodes);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] int cluster_nodes() const { return cluster_nodes_; }

  /// Every instant the runtime should wake at even if no job completes:
  /// crash and degrade times, meter-fault and cap-violation window edges.
  /// Sorted ascending, deduplicated.
  [[nodiscard]] std::vector<double> wakeups() const;

  /// Has `node` crashed at or before `t`?
  [[nodiscard]] bool node_crashed(int node, double t) const;

  /// Resolve a placement of fault-free length `duration_s` starting at
  /// `start_s` on `nodes`. Degrades stretch the remaining work (the job
  /// paces at its slowest node); a crash of any held node aborts the job at
  /// the crash instant.
  [[nodiscard]] RunResolution resolve(double start_s, double duration_s,
                                      const std::vector<int>& nodes) const;

  /// Fault-free-equivalent seconds of work a placement on `nodes` completes
  /// between `start_s` and `t_s` (the inverse of resolve's stretching: the
  /// job paces at its slowest node, degrades shrink the rate). The
  /// redistribution loop uses this to convert a running job's elapsed wall
  /// time into work progress before re-evaluating its remainder at a new
  /// power slice (docs/power-redistribution.md).
  [[nodiscard]] double work_done_s(double start_s, double t_s,
                                   const std::vector<int>& nodes) const;

  /// What a meter read of `node` returns at time `t` when the node truly
  /// draws `truth_w`. Outside any fault window this is the truth; inside,
  /// the corruption of the first matching plan entry applies.
  [[nodiscard]] double observed_node_power(int node, double t,
                                           double truth_w) const;

  /// Total unenforced-cap excess draw of `nodes` at time `t`, counting only
  /// violation windows not yet clawed back (the queue truncates windows it
  /// has re-coordinated away via `truncate_cap_violation`).
  [[nodiscard]] double cap_excess_w(const std::vector<int>& nodes,
                                    double t) const;

  /// End every cap-violation window on `node` that is active at `t` at `t`
  /// (the budget guard re-programmed the node's cap). Returns how many
  /// windows were truncated.
  int truncate_cap_violations(int node, double t);

  /// Nodes with a cap-violation window active at `t` (for the guard to know
  /// where to claw back), restricted to `nodes`.
  [[nodiscard]] std::vector<int> violating_nodes(const std::vector<int>& nodes,
                                                 double t) const;

  /// Is a cluster-wide meter blackout in effect at `t`? While true, no
  /// meter reading anywhere is trustworthy and the queue runs in
  /// METER_BLACKOUT mode (docs/robustness.md).
  [[nodiscard]] bool meters_blacked_out(double t) const;

  /// The facility-budget factor in effect at `t`: the minimum factor across
  /// the budget-cut windows active then, 1.0 when none is. The queue runs in
  /// BUDGET_BROWNOUT mode whenever this is below 1.
  [[nodiscard]] double budget_cut_factor(double t) const;

  /// The mutable cap-violation window ends (plan order) — the only injector
  /// state the queue mutates (via truncate_cap_violations). The scheduler
  /// journal snapshots this so recovery can restore a mid-run injector.
  [[nodiscard]] const std::vector<double>& violation_ends() const {
    return violation_ends_;
  }

  /// Restore window ends captured by violation_ends() (recovery path).
  /// Throws unless `ends` is plausibly a snapshot of this plan's windows.
  void restore_violation_ends(const std::vector<double>& ends);

 private:
  FaultPlan plan_;
  int cluster_nodes_;
  std::vector<double> violation_ends_;  ///< mutable window ends, plan order
};

}  // namespace clip::fault

// BudgetGuard — the cluster-budget watchdog in the scheduler path.
//
// Under unenforced RAPL caps a node can draw above its programmed limit and
// push the *cluster* past the site's contractual power bound. The guard (a)
// sanity-filters per-node meter readings so a faulty meter cannot trigger a
// false reaction (a dropout reads 0 W, a spike reads physically impossible
// watts — both are replaced by the node's expected draw and counted), (b)
// detects overshoot of the filtered cluster total over the budget, and (c)
// accounts violation time and energy: `violation_s` is how long the true
// draw exceeded the budget, `violation_ws` the watt-seconds above it. The
// resilient queue reacts to a detection by re-coordinating per-node caps
// (clawing the violating node's cap back) after `reaction_s` of actuation
// latency. See docs/robustness.md.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace clip::fault {

struct BudgetGuardOptions {
  /// Latency between detecting overshoot and the re-programmed caps taking
  /// effect (telemetry period + RAPL MSR writes settling).
  double reaction_s = 2.0;

  void validate() const;
};

/// Per-node meter readings below this are implausible: a dropout reads 0 W.
inline constexpr double kMinPlausibleNodeW = 1.0;

class BudgetGuard {
 public:
  /// Readings above `node_ceiling_w` are implausible too; the queue
  /// passes 1.5 × the machine's max node power, which a healthy node never
  /// draws and a spiking meter usually reads.
  BudgetGuard(BudgetGuardOptions options, Watts cluster_budget,
              double node_ceiling_w);

  [[nodiscard]] const BudgetGuardOptions& options() const { return options_; }

  /// Filter one per-node meter reading: implausible values fall back to
  /// `expected_w` (the node's reserved share — the last trustworthy figure)
  /// and bump `rejected_reads`.
  [[nodiscard]] double filter_reading(double observed_w, double expected_w);

  /// Would the guard flag `observed_total_w` as overshoot?
  [[nodiscard]] bool overshoot(double observed_total_w) const {
    return observed_total_w > budget_w_ + 1e-9;
  }

  /// Integrate ground-truth accounting over a dt-long interval during which
  /// the true cluster draw was `true_total_w`.
  void account(double dt_s, double true_total_w);

  /// Admission check for a runtime watt re-grant (the redistribution loop,
  /// docs/power-redistribution.md): with `reserved_total_w` already
  /// reserved across the running jobs, may `grant_w` more be committed?
  /// The facility cap is the hard line — a grant that would push the
  /// reservation past the cluster budget is rejected and counted.
  [[nodiscard]] bool admit_regrant(double reserved_total_w, double grant_w);
  [[nodiscard]] std::uint64_t regrants_rejected() const {
    return regrants_rejected_;
  }

  [[nodiscard]] double violation_s() const { return violation_s_; }
  [[nodiscard]] double violation_ws() const { return violation_ws_; }
  [[nodiscard]] std::uint64_t rejected_reads() const {
    return rejected_reads_;
  }

  /// The budget the guard currently holds the cluster to.
  [[nodiscard]] double budget_w() const { return budget_w_; }

  /// Re-point the guard at a new facility budget — the BUDGET_BROWNOUT
  /// state machine (docs/robustness.md) lowers it for the cut window and
  /// restores it after. Violation accounting from the change on is against
  /// the new budget; accrued counters are untouched.
  void set_budget(Watts cluster_budget) { budget_w_ = cluster_budget.value(); }

  /// Restore accrued counters from a scheduler-journal snapshot (recovery
  /// path; see runtime/journal.hpp). Counters are replaced, not added.
  void restore_counters(double violation_s, double violation_ws,
                        std::uint64_t rejected_reads,
                        std::uint64_t regrants_rejected) {
    violation_s_ = violation_s;
    violation_ws_ = violation_ws;
    rejected_reads_ = rejected_reads;
    regrants_rejected_ = regrants_rejected;
  }

 private:
  BudgetGuardOptions options_;
  double node_ceiling_w_;
  double budget_w_;
  double violation_s_ = 0.0;
  double violation_ws_ = 0.0;
  std::uint64_t rejected_reads_ = 0;
  std::uint64_t regrants_rejected_ = 0;
};

}  // namespace clip::fault

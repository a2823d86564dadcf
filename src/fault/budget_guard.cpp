#include "fault/budget_guard.hpp"

#include "util/check.hpp"

namespace clip::fault {

void BudgetGuardOptions::validate() const {
  CLIP_REQUIRE(reaction_s >= 0.0, "guard.reaction_s must be non-negative");
}

BudgetGuard::BudgetGuard(BudgetGuardOptions options, Watts cluster_budget,
                         double node_ceiling_w)
    : options_(options),
      node_ceiling_w_(node_ceiling_w),
      budget_w_(cluster_budget.value()) {
  options_.validate();
  CLIP_REQUIRE(budget_w_ > 0.0, "guard needs a positive cluster budget");
}

double BudgetGuard::filter_reading(double observed_w, double expected_w) {
  if (observed_w < kMinPlausibleNodeW || observed_w > node_ceiling_w_) {
    ++rejected_reads_;
    return expected_w;
  }
  return observed_w;
}

bool BudgetGuard::admit_regrant(double reserved_total_w, double grant_w) {
  CLIP_REQUIRE(grant_w >= 0.0, "re-grant watts must be non-negative");
  if (reserved_total_w + grant_w <= budget_w_ + 1e-9) return true;
  ++regrants_rejected_;
  return false;
}

void BudgetGuard::account(double dt_s, double true_total_w) {
  CLIP_REQUIRE(dt_s >= 0.0, "accounting interval must be non-negative");
  const double over = true_total_w - budget_w_;
  if (over <= 1e-9) return;
  violation_s_ += dt_s;
  violation_ws_ += over * dt_s;
}

}  // namespace clip::fault

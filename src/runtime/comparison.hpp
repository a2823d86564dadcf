// Comparison harness: runs a set of scheduling methods over applications and
// budgets, reporting performance relative to the paper's reference ("we use
// the relative performance based on the All-In method without a power
// bound", §V-C). Shared by the Fig. 8/9 benchmark binaries, the summary
// harness, and the campaign example.
//
// The harness is the outer loop of every §V evaluation bench
// (docs/performance.md). It plans in the canonical (app → budget → method)
// order — schedulers are stateful, and the noisy profiling runs they issue
// must consume the meter's RNG stream in the historical order for
// byte-identical output — then times every planned cell with the exact
// (pure, noise-free) executor, one run_batch frontier per shared placement.
// A harness is used from one thread at a time, like its executor.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/scheduler_iface.hpp"
#include "sim/executor.hpp"
#include "workloads/signature.hpp"

namespace clip::runtime {

/// One (application, budget, method) evaluation.
struct ComparisonCell {
  std::string app;
  std::string parameters;
  double budget_w = 0.0;
  std::string method;
  double time_s = 0.0;
  double relative_performance = 0.0;  ///< vs unbounded All-In
  sim::ClusterConfig plan;
};

struct ComparisonResult {
  std::vector<ComparisonCell> cells;

  /// Mean relative performance of a method across all apps at one budget.
  [[nodiscard]] double mean_relative(const std::string& method,
                                     double budget_w) const;

  /// Mean improvement of `method` over `reference` across apps & budgets.
  /// With `budgets` non-empty, only those budgets enter the mean (useful to
  /// exclude degenerate regimes, e.g. budgets below a method's enforceable
  /// floor where its slowdown is unbounded and would dominate the mean).
  [[nodiscard]] double mean_improvement(
      const std::string& method, const std::string& reference,
      const std::vector<double>& budgets = {}) const;

  /// O(1) lookup via a hash index over (app, parameters, budget, method).
  /// The index is built lazily and rebuilt whenever `cells` has grown or
  /// shrunk since the last lookup; callers that edit key fields of existing
  /// cells in place should call `invalidate_index()` afterwards.
  [[nodiscard]] const ComparisonCell* find(const std::string& app,
                                           const std::string& parameters,
                                           double budget_w,
                                           const std::string& method) const;

  void invalidate_index() const { indexed_cells_ = kNoIndex; }

 private:
  static std::string cell_key(const std::string& app,
                              const std::string& parameters, double budget_w,
                              const std::string& method);
  void ensure_index() const;

  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  // clip-lint: allow(D2) lookup-only O(1) index over cells; never iterated, so hash order cannot reach output
  mutable std::unordered_map<std::string, std::size_t> index_;
  mutable std::size_t indexed_cells_ = kNoIndex;
};

class ComparisonHarness {
 public:
  explicit ComparisonHarness(sim::SimExecutor& executor)
      : executor_(&executor) {}

  /// Register a method. Ownership shared so harnesses can also keep a
  /// handle (e.g. to query the oracle's search cost).
  void add_method(std::shared_ptr<baselines::PowerScheduler> method);

  /// Evaluate every method on every (app, budget) pair. The reference
  /// performance per app is All-In at an effectively unlimited budget.
  [[nodiscard]] ComparisonResult run(
      const std::vector<workloads::WorkloadSignature>& apps,
      const std::vector<double>& budgets_w);

 private:
  [[nodiscard]] double unbounded_reference_time(
      const workloads::WorkloadSignature& app);

  sim::SimExecutor* executor_;
  std::vector<std::shared_ptr<baselines::PowerScheduler>> methods_;
};

}  // namespace clip::runtime

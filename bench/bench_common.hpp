// Shared infrastructure for the figure/table reproduction harnesses.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (§V) on the simulated testbed and prints the same rows/series
// the paper plots. Common flags (parsed by BenchContext, shared by every
// binary; any other argument, or a bad --budgets value, is named on stderr
// and exits 2):
//
//   --csv           emit machine-readable CSV instead of the aligned table
//   --json          also write the bench's BENCH_*.json report into the cwd
//                   (the benches that have one; the others ignore it)
//   --budgets a,b,c override the bench's default cluster budget sweep (W)
//   --stats         print evaluation-engine counters (sim.runs, cache
//                   hits/misses) to stderr on exit
//   --no-cache      disable the exact-run memoization cache
//   --no-prune      disable oracle search-space pruning (with --no-cache:
//                   the pre-engine evaluation count, for A/B measurement)
//
// Every bench evaluates on one thread. See docs/performance.md for the
// evaluation-engine design.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/all_in.hpp"
#include "baselines/clip_adapter.hpp"
#include "baselines/coordinated.hpp"
#include "baselines/lower_limit.hpp"
#include "baselines/oracle.hpp"
#include "obs/session.hpp"
#include "runtime/comparison.hpp"
#include "sim/exec_cache.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/catalog.hpp"

namespace clip::bench {

struct BenchContext {
  bool csv = false;
  bool json = false;
  bool stats = false;
  bool use_cache = true;
  bool prune = true;
  std::vector<double> budgets_override;

  BenchContext(int argc, char** argv);
  ~BenchContext();

  BenchContext(const BenchContext&) = delete;
  BenchContext& operator=(const BenchContext&) = delete;

  /// The bench's budget sweep: the --budgets override when given, otherwise
  /// the bench's own defaults.
  [[nodiscard]] std::vector<double> budgets_or(
      std::vector<double> defaults) const {
    return budgets_override.empty() ? std::move(defaults) : budgets_override;
  }

  /// Hook an executor into the evaluation engine: attaches the shared
  /// exact-run cache (unless --no-cache) and, with --stats, the observation
  /// session whose counters are printed on exit. Call once per executor.
  void attach(sim::SimExecutor& executor) const;

  /// The shared exact-run cache (nullptr with --no-cache or before the
  /// first attach). Benches assert hit-rate expectations through this.
  [[nodiscard]] const sim::ExactRunCache* cache() const {
    return cache_.get();
  }

  void print(const Table& table) const {
    if (csv)
      table.print_csv(std::cout);
    else
      table.print(std::cout);
    std::cout << '\n';
  }

 private:
  mutable std::unique_ptr<sim::ExactRunCache> cache_;
  mutable std::unique_ptr<obs::ObsSession> obs_;
};

/// The standard experimental setup: the 8-node Haswell-like cluster with the
/// default measurement noise (as on the real testbed).
inline sim::SimExecutor make_testbed() {
  return sim::SimExecutor(sim::MachineSpec{});
}

/// Noise-free twin for oracle searches and ground-truth curves.
inline sim::SimExecutor make_exact_testbed() {
  sim::MeterOptions quiet;
  quiet.enabled = false;
  return sim::SimExecutor(sim::MachineSpec{}, quiet);
}

/// The four §V-C methods plus the oracle, registered on a harness. With a
/// context, the oracle prunes unless --no-prune.
void register_all_methods(runtime::ComparisonHarness& harness,
                          sim::SimExecutor& executor,
                          const BenchContext* ctx = nullptr);

/// Build one figure's worth of comparison cells as app-rows ×
/// method-columns of relative performance.
[[nodiscard]] Table render_method_comparison(
    const runtime::ComparisonResult& result,
    const std::vector<workloads::WorkloadSignature>& apps, double budget,
    const std::string& title);

/// Render and print via the context.
void print_method_comparison(const BenchContext& ctx,
                             const runtime::ComparisonResult& result,
                             const std::vector<workloads::WorkloadSignature>&
                                 apps,
                             double budget, const std::string& title);

}  // namespace clip::bench

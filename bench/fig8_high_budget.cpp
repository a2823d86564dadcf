// Figure 8 — performance comparison of the power-allocation methods under
// HIGH cluster power budgets. Relative performance is normalized to All-In
// with no power bound, as in the paper. Panels (a)/(b) split the benchmark
// set in half like the paper's two subfigures.
#include <iostream>

#include "bench_common.hpp"

using namespace clip;

int main(int argc, char** argv) {
  const bench::BenchContext ctx(argc, argv);
  sim::SimExecutor ex = bench::make_testbed();
  ctx.attach(ex);

  runtime::ComparisonHarness harness(ex);
  bench::register_all_methods(harness, ex, &ctx);

  const std::vector<double> budgets =
      ctx.budgets_or({1000.0, 1200.0, 1400.0});
  const auto& apps = workloads::paper_benchmarks();
  const auto result = harness.run(apps, budgets);

  const std::vector<workloads::WorkloadSignature> panel_a(apps.begin(),
                                                          apps.begin() + 5);
  const std::vector<workloads::WorkloadSignature> panel_b(apps.begin() + 5,
                                                          apps.end());
  for (double budget : budgets) {
    bench::print_method_comparison(
        ctx, result, panel_a, budget,
        "Fig. 8a — relative performance, high budget " +
            std::to_string(static_cast<int>(budget)) + " W");
    bench::print_method_comparison(
        ctx, result, panel_b, budget,
        "Fig. 8b — relative performance, high budget " +
            std::to_string(static_cast<int>(budget)) + " W");
  }

  for (double budget : budgets)
    std::cout << "mean relative performance @" << budget
              << " W:  All-In " << result.mean_relative("All-In", budget)
              << "  Lower-Limit " << result.mean_relative("Lower Limit", budget)
              << "  Coordinated " << result.mean_relative("Coordinated", budget)
              << "  CLIP " << result.mean_relative("CLIP", budget)
              << "  Oracle " << result.mean_relative("Oracle", budget)
              << "\n";
  return 0;
}

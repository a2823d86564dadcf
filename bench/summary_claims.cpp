// Headline-claims summary — the quantitative statements of §V-C / §VII,
// each printed with our measured counterpart:
//   1. CLIP ≈ All-In unbounded for most apps; >=40%-class wins on the
//      standout parabolic applications.
//   2. CLIP close to optimal at unlimited/high budgets.
//   3. CLIP outperforms the compared methods by over 20% on average.
//   4. Up to ~60% over Coordinated on parabolic applications.
//   5. CLIP beats Coordinated on logarithmic apps at low budget.
//   Plus: profiling cost (<=3 samples) vs the oracle's exhaustive search.
#include <iostream>

#include "bench_common.hpp"
#include "util/strings.hpp"

using namespace clip;

int main(int argc, char** argv) {
  const bench::BenchContext ctx(argc, argv);
  sim::SimExecutor ex = bench::make_testbed();
  ctx.attach(ex);

  runtime::ComparisonHarness harness(ex);
  auto oracle = std::make_shared<baselines::OracleScheduler>(
      ex, baselines::OracleOptions{ctx.prune});
  harness.add_method(
      std::make_shared<baselines::AllInScheduler>(ex.spec()));
  harness.add_method(
      std::make_shared<baselines::LowerLimitScheduler>(ex.spec()));
  harness.add_method(
      std::make_shared<baselines::CoordinatedScheduler>(ex));
  harness.add_method(std::make_shared<baselines::ClipAdapter>(
      ex, workloads::training_benchmarks()));
  harness.add_method(oracle);

  // 500 W is excluded from the means: below All-In's enforceable floor its
  // slowdown is unbounded and a single cliff point would dominate the mean
  // (fig9 reports that cliff separately).
  const std::vector<double> budgets = {600.0,  700.0,  800.0, 1000.0,
                                       1200.0, 1400.0, 5000.0};
  // No --budgets override here: the claim lookups below address specific
  // budget columns (600/1400/5000 W) by value.
  const auto& apps = workloads::paper_benchmarks();
  const auto result = harness.run(apps, budgets);

  Table t({"paper claim", "paper value", "measured"});
  t.set_title("Summary — paper claims vs this reproduction");

  // 1. Unbounded behaviour.
  double parabolic_best = 0.0;
  for (const char* name : {"SP-MZ", "miniAero", "TeaLeaf"}) {
    const auto w = *workloads::find_benchmark(name);
    const double gain =
        result.find(w.name, w.parameters, 5000.0, "CLIP")
            ->relative_performance /
        result.find(w.name, w.parameters, 5000.0, "All-In")
            ->relative_performance;
    parabolic_best = std::max(parabolic_best, gain);
  }
  t.add_row({"unbounded win on parabolic apps (obs. 1)", ">= +40%",
             format_percent(parabolic_best - 1.0)});

  // 2. Close to optimal at high budget.
  double worst_vs_oracle = 1e9;
  for (const auto& w : apps) {
    const double ratio =
        result.find(w.name, w.parameters, 1400.0, "CLIP")
            ->relative_performance /
        result.find(w.name, w.parameters, 1400.0, "Oracle")
            ->relative_performance;
    worst_vs_oracle = std::min(worst_vs_oracle, ratio);
  }
  t.add_row({"worst CLIP/Oracle at high budget (obs. 2)",
             "close to optimal", format_percent(worst_vs_oracle - 1.0)});

  // 3. Headline average improvement.
  t.add_row({"mean improvement vs All-In (abstract)", "> +20%",
             format_percent(result.mean_improvement("CLIP", "All-In"))});
  t.add_row({"mean improvement vs Coordinated", "positive",
             format_percent(result.mean_improvement("CLIP", "Coordinated"))});
  t.add_row({"mean improvement vs Lower Limit", "positive",
             format_percent(result.mean_improvement("CLIP", "Lower Limit"))});

  // 4. Parabolic defence of Coordinated.
  double defence = 0.0;
  for (const char* name : {"SP-MZ", "miniAero", "TeaLeaf"}) {
    const auto w = *workloads::find_benchmark(name);
    for (double b : budgets) {
      if (b >= 5000.0) continue;
      defence = std::max(
          defence, result.find(w.name, w.parameters, b, "CLIP")
                           ->relative_performance /
                       result.find(w.name, w.parameters, b, "Coordinated")
                           ->relative_performance);
    }
  }
  t.add_row({"max win vs Coordinated, parabolic (obs. 4)", "up to +60%",
             format_percent(defence - 1.0)});

  // 5. Logarithmic at low budget.
  double log_low = 1e9;
  for (const char* name : {"BT-MZ", "LU-MZ"}) {
    const auto w = *workloads::find_benchmark(name);
    log_low = std::min(
        log_low, result.find(w.name, w.parameters, 600.0, "CLIP")
                         ->relative_performance /
                     result.find(w.name, w.parameters, 600.0, "Coordinated")
                         ->relative_performance);
  }
  t.add_row({"CLIP/Coordinated, logarithmic @600 W (obs. 5)", ">= 1.0x",
             format_double(log_low, 3) + "x"});

  // Scheduling cost: <=3 sample profiles vs exhaustive search.
  (void)oracle->plan(*workloads::find_benchmark("SP-MZ"), Watts(800.0));
  t.add_row({"configuration-search cost", "<= 3 sample runs (CLIP)",
             "oracle needs " + std::to_string(oracle->last_search_cost()) +
                 " executions"});

  ctx.print(t);
  return 0;
}

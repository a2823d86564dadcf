#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "util/parse.hpp"

namespace clip::bench {

namespace {

/// A command-line mistake: name it and exit 2, as clipctl does.
[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << what
            << "\nflags: --csv --stats --no-cache --no-prune "
               "--budgets a,b,c\n";
  std::exit(2);
}

/// Comma-separated cluster budgets, each a positive wattage read whole
/// (parse_whole: no sign, blank, hex form or suffix).
std::vector<double> parse_budgets(const std::string& value) {
  std::vector<double> budgets;
  for (const std::string& part : split(value, ',')) {
    if (part.empty()) continue;
    const std::optional<double> watts = parse_whole<double>(part);
    if (!watts || !std::isfinite(*watts) || *watts <= 0.0)
      usage_error("bad value for --budgets: '" + value + "'");
    budgets.push_back(*watts);
  }
  if (budgets.empty()) usage_error("empty --budgets list");
  return budgets;
}

}  // namespace

BenchContext::BenchContext(int argc, char** argv) {
  const std::string budgets_eq = "--budgets=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--no-cache") {
      use_cache = false;
    } else if (arg == "--no-prune") {
      prune = false;
    } else if (arg == "--budgets") {
      if (i + 1 >= argc) usage_error("--budgets needs a value");
      budgets_override = parse_budgets(argv[++i]);
    } else if (arg.rfind(budgets_eq, 0) == 0) {
      budgets_override = parse_budgets(arg.substr(budgets_eq.size()));
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
}

BenchContext::~BenchContext() {
  if (!stats || obs_ == nullptr) return;
  // One parse-friendly line, on stderr so --csv output stays clean.
  const auto value = [this](std::string_view name) -> std::uint64_t {
    const obs::Counter* c = obs_->metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  std::cerr << "bench-stats:"
            << " sim.runs=" << value("sim.runs")
            << " sim.exact_cache_hits=" << value("sim.exact_cache_hits")
            << " sim.exact_cache_misses=" << value("sim.exact_cache_misses")
            << '\n';
}

void BenchContext::attach(sim::SimExecutor& executor) const {
  if (use_cache) {
    if (cache_ == nullptr) cache_ = std::make_unique<sim::ExactRunCache>();
    executor.set_exact_cache(cache_.get());
  }
  if (stats) {
    if (obs_ == nullptr) obs_ = std::make_unique<obs::ObsSession>();
    executor.set_observer(obs_.get());
  }
}

void register_all_methods(runtime::ComparisonHarness& harness,
                          sim::SimExecutor& executor,
                          const BenchContext* ctx) {
  harness.add_method(
      std::make_shared<baselines::AllInScheduler>(executor.spec()));
  harness.add_method(
      std::make_shared<baselines::LowerLimitScheduler>(executor.spec()));
  harness.add_method(
      std::make_shared<baselines::CoordinatedScheduler>(executor));
  harness.add_method(std::make_shared<baselines::ClipAdapter>(
      executor, workloads::training_benchmarks()));
  baselines::OracleOptions opts;
  if (ctx != nullptr) opts.prune = ctx->prune;
  harness.add_method(
      std::make_shared<baselines::OracleScheduler>(executor, opts));
}

Table render_method_comparison(
    const runtime::ComparisonResult& result,
    const std::vector<workloads::WorkloadSignature>& apps, double budget,
    const std::string& title) {
  static const char* kMethods[] = {"All-In", "Lower Limit", "Coordinated",
                                   "CLIP", "Oracle"};
  Table t({"benchmark", "class", "All-In", "Lower Limit", "Coordinated",
           "CLIP", "Oracle", "CLIP vs best baseline"});
  t.set_title(title);
  for (const auto& w : apps) {
    std::vector<std::string> row;
    row.push_back(w.name + " (" + w.parameters + ")");
    row.push_back(workloads::to_string(w.expected_class));
    double clip = 0.0, best_baseline = 0.0;
    for (const char* method : kMethods) {
      const auto* cell =
          result.find(w.name, w.parameters, budget, method);
      const double rel = cell ? cell->relative_performance : 0.0;
      row.push_back(format_double(rel, 3));
      if (std::string(method) == "CLIP")
        clip = rel;
      else if (std::string(method) != "Oracle")
        best_baseline = std::max(best_baseline, rel);
    }
    row.push_back(best_baseline > 0.0
                      ? format_percent(clip / best_baseline - 1.0)
                      : "n/a");
    t.add_row(std::move(row));
  }
  return t;
}

void print_method_comparison(
    const BenchContext& ctx, const runtime::ComparisonResult& result,
    const std::vector<workloads::WorkloadSignature>& apps, double budget,
    const std::string& title) {
  ctx.print(render_method_comparison(result, apps, budget, title));
}

}  // namespace clip::bench

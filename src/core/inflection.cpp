#include "core/inflection.hpp"

#include <algorithm>
#include <cmath>

#include "stats/piecewise.hpp"
#include "util/check.hpp"

namespace clip::core {

namespace {

/// Floor to an even integer within [2, max_threads].
int to_even_clamped(double np, int max_threads) {
  int even = static_cast<int>(std::floor(np / 2.0)) * 2;
  return std::clamp(even, 2, max_threads);
}

}  // namespace

void InflectionPredictor::train(const std::vector<TrainingSample>& samples) {
  models_.clear();
  for (workloads::ScalabilityClass cls :
       {workloads::ScalabilityClass::kLogarithmic,
        workloads::ScalabilityClass::kParabolic}) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (const auto& s : samples) {
      if (s.cls != cls) continue;
      CLIP_REQUIRE(!s.features.empty(), "training sample without features");
      CLIP_REQUIRE(s.inflection >= 2.0, "implausible ground-truth N_P");
      x.push_back(s.features);
      y.push_back(s.inflection);
    }
    if (x.size() < 3) continue;  // too few samples for this class
    stats::LinRegOptions opt;
    opt.ridge_lambda = kRidgeLambda;
    opt.standardize = true;
    models_[cls] = stats::fit_linear(x, y, opt);
  }
}

bool InflectionPredictor::is_trained(workloads::ScalabilityClass cls) const {
  return models_.contains(cls);
}

int InflectionPredictor::predict(const ProfileData& profile,
                                 workloads::ScalabilityClass cls,
                                 int max_threads) const {
  CLIP_REQUIRE(cls != workloads::ScalabilityClass::kLinear,
               "linear workloads have no node-level inflection");
  const auto it = models_.find(cls);
  CLIP_REQUIRE(it != models_.end(),
               "inflection model not trained for this class");
  const double raw = it->second.predict(profile.features());
  return to_even_clamped(raw, max_threads);
}

double measure_inflection(sim::SimExecutor& executor,
                          const workloads::WorkloadSignature& w,
                          workloads::ScalabilityClass cls,
                          parallel::AffinityPolicy affinity) {
  CLIP_REQUIRE(cls != workloads::ScalabilityClass::kLinear,
               "linear workloads have no node-level inflection");
  const int max_threads = executor.spec().shape.total_cores();

  sim::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.affinity = affinity;
  cfg.node.mem_level = sim::MemPowerLevel::kL0;
  cfg.node.cpu_cap = Watts(1e9);
  cfg.node.mem_cap = Watts(1e9);

  std::vector<double> threads, perf;
  double best_time = 0.0;
  int best_n = 2;
  bool first = true;
  for (int n = 2; n <= max_threads; n += 2) {
    cfg.node.threads = n;
    const sim::Measurement m = executor.run_exact(w, cfg);
    threads.push_back(static_cast<double>(n));
    perf.push_back(1.0 / m.time.value());
    if (first || m.time.value() < best_time) {
      best_time = m.time.value();
      best_n = n;
      first = false;
    }
  }

  if (cls == workloads::ScalabilityClass::kParabolic)
    return static_cast<double>(best_n);

  // Logarithmic: knee of the speedup curve via two-segment piecewise fit.
  const stats::PiecewiseLinearModel fit =
      stats::fit_piecewise_linear(threads, perf);
  const int even =
      static_cast<int>(std::floor(fit.breakpoint / 2.0)) * 2;
  return static_cast<double>(std::clamp(even, 2, max_threads));
}

std::vector<TrainingSample> build_training_set(
    SmartProfiler& profiler, const ScalabilityClassifier& classifier,
    const std::vector<workloads::WorkloadSignature>& suite) {
  std::vector<TrainingSample> out;
  out.reserve(suite.size());
  for (const auto& w : suite) {
    ProfileData p = profiler.profile(w);
    TrainingSample s;
    s.name = w.name;
    s.features = p.features();
    s.cls = classifier.classify(p);
    if (s.cls != workloads::ScalabilityClass::kLinear) {
      s.inflection = measure_inflection(profiler.executor(), w, s.cls,
                                        p.preferred_affinity);
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace clip::core

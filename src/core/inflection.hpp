// Inflection-point prediction (paper §III-A2).
//
// For the two non-linear scalability classes, CLIP must know N_P — the
// thread count where the scalability trend breaks (saturation knee for
// logarithmic workloads, performance peak for parabolic ones). The paper
// trains a multivariate linear regression per class on the Table I hardware
// event rates of a benchmark suite (NPB, HPCC, STREAM, PolyBench), with the
// ground-truth inflection identified manually (here: by exhaustive search on
// the simulator), then predicts N_P for new applications from their profile
// events alone. Predictions are floored to an even count: "applications
// perform worse with an odd-value concurrency than with a close even-value
// concurrency" (§V-B2).
#pragma once

#include <map>
#include <vector>

#include "core/classifier.hpp"
#include "core/profile.hpp"
#include "core/profiler.hpp"
#include "sim/executor.hpp"
#include "stats/linreg.hpp"
#include "workloads/signature.hpp"

namespace clip::core {

struct TrainingSample {
  std::string name;
  std::vector<double> features;  ///< Table I event rates (8 values)
  workloads::ScalabilityClass cls = workloads::ScalabilityClass::kLinear;
  double inflection = 0.0;  ///< ground-truth N_P (even)
};

/// Ridge penalty of each class's regression: few samples against 8
/// features, so the fit is regularized.
inline constexpr double kRidgeLambda = 4.0;

class InflectionPredictor {
 public:
  /// Fit one MLR per non-linear class ("trains each type of workload
  /// independently", §III-A). Linear-class samples are ignored: linear
  /// workloads have no inflection inside the node.
  void train(const std::vector<TrainingSample>& samples);

  [[nodiscard]] bool is_trained(workloads::ScalabilityClass cls) const;

  /// Predict N_P from a profile; result is floored to even and clamped to
  /// [2, max_threads].
  [[nodiscard]] int predict(const ProfileData& profile,
                            workloads::ScalabilityClass cls,
                            int max_threads) const;

 private:
  std::map<workloads::ScalabilityClass, stats::LinearModel> models_;
};

/// Ground-truth inflection of a workload, by exhaustive search over even
/// thread counts on the exact (noise-free) simulator:
///  * parabolic:    the even concurrency minimizing node execution time;
///  * logarithmic:  the breakpoint of a two-segment piecewise-linear fit of
///    the speedup curve, floored to even.
[[nodiscard]] double measure_inflection(sim::SimExecutor& executor,
                                        const workloads::WorkloadSignature& w,
                                        workloads::ScalabilityClass cls,
                                        parallel::AffinityPolicy affinity);

/// Profile every training workload, classify it from its *measured* ratio,
/// and attach the ground-truth inflection: the dataset of paper Fig. 7's
/// model. Linear-classified workloads are included (the trainer skips them).
[[nodiscard]] std::vector<TrainingSample> build_training_set(
    SmartProfiler& profiler, const ScalabilityClassifier& classifier,
    const std::vector<workloads::WorkloadSignature>& suite);

}  // namespace clip::core

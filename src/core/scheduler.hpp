// ClipScheduler — the user-facing facade implementing Algorithm 1.
//
// schedule(app, cluster_budget):
//   1. Look the application up in the knowledge database; profile it with
//      the smart profiler on a miss (classifying, predicting N_P, taking
//      the validation sample, and recording the result).
//   2. Run the cluster allocator to pick the node count and per-node
//      budget, then the node selector for threads/affinity/memory level and
//      the CPU/DRAM split.
//   3. Apply inter-node variability coordination to the per-node CPU caps.
//
// The returned decision carries the full rationale so harnesses and tests
// can inspect every intermediate quantity.
#pragma once

#include <optional>
#include <tuple>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/cluster_alloc.hpp"
#include "core/inflection.hpp"
#include "core/knowledge_db.hpp"
#include "core/node_config.hpp"
#include "core/profiler.hpp"
#include "core/variability_coord.hpp"
#include "obs/session.hpp"
#include "sim/executor.hpp"
#include "sim/phased.hpp"
#include "workloads/phases.hpp"
#include "workloads/signature.hpp"

namespace clip::core {

/// Everything CLIP decided for one job, with the reasoning attached.
struct ScheduleDecision {
  sim::ClusterConfig cluster;   ///< ready to hand to the executor
  workloads::ScalabilityClass cls = workloads::ScalabilityClass::kLinear;
  int inflection = 0;
  Watts node_budget{0.0};
  PowerRange node_range;
  Seconds predicted_node_time{0.0};
  bool from_knowledge_db = false;
  Seconds profiling_cost{0.0};

  [[nodiscard]] std::string describe() const;
};

struct SchedulerOptions {
  ProfilerOptions profiler;
  ClassifierThresholds classifier;
  NodeSelectorOptions selector;
  ClusterAllocOptions allocator;
  VariabilityOptions variability;
  InflectionOptions inflection;
  bool take_validation_sample = true;
};

class ClipScheduler {
 public:
  /// The scheduler trains its inflection models on `training_suite` at
  /// construction (one-time system characterization, as the paper trains on
  /// NPB/HPCC/STREAM/PolyBench before evaluating).
  ClipScheduler(sim::SimExecutor& executor,
                const std::vector<workloads::WorkloadSignature>&
                    training_suite,
                SchedulerOptions options = SchedulerOptions{});

  /// Neither copyable nor movable: the allocator points at this
  /// scheduler's own selector_.
  ClipScheduler(const ClipScheduler&) = delete;
  ClipScheduler& operator=(const ClipScheduler&) = delete;

  /// Decide node count, per-node budget, threads, affinity, memory level
  /// and CPU/DRAM caps for `app` under `cluster_budget`.
  [[nodiscard]] ScheduleDecision schedule(
      const workloads::WorkloadSignature& app, Watts cluster_budget);

  /// Convenience: schedule then execute, returning the measurement.
  [[nodiscard]] sim::Measurement schedule_and_run(
      const workloads::WorkloadSignature& app, Watts cluster_budget);

  /// Phase-aware scheduling (paper §V-B1: "we change the concurrency
  /// setting phase-by-phase"). The node count comes from the blended
  /// whole-program profile; each phase then gets its own concurrency,
  /// affinity, memory level and CPU/DRAM split under the shared per-node
  /// budget, applied at phase boundaries.
  struct PhasedDecision {
    sim::PhasedClusterConfig cluster;
    Watts node_budget{0.0};
    std::vector<workloads::ScalabilityClass> phase_classes;
    std::vector<int> phase_inflections;
  };
  [[nodiscard]] PhasedDecision schedule_phased(
      const workloads::PhasedWorkload& app, Watts cluster_budget);

  /// Constrained scheduling — the §VII future-work runtime: the job arrives
  /// with a predefined node count (and optionally a fixed thread count, as
  /// MPI+OpenMP launch lines do); CLIP still coordinates everything else
  /// (frequency via the CPU cap, memory power level, affinity, CPU/DRAM
  /// split — and concurrency when `fixed_threads` is 0).
  [[nodiscard]] ScheduleDecision schedule_constrained(
      const workloads::WorkloadSignature& app, Watts cluster_budget,
      int fixed_nodes, int fixed_threads = 0);

  /// Attach an observability session (nullptr detaches), forwarded to the
  /// profiler and allocator. Every schedule() then emits one span per
  /// pipeline stage — pipeline.profile → .classify → .inflect →
  /// .node_select → .allocate → .coordinate — under a "clip.schedule" root,
  /// plus the scheduler.* counters and the `scheduler.plan_us` latency
  /// histogram (taxonomy: docs/observability.md). Detached scheduling costs
  /// one branch per stage; bench/micro_runtime pins that at noise level.
  void set_observer(obs::ObsSession* obs);

  /// Adopt another scheduler's characterization results (same-machine
  /// records only). Apps found in `db` then skip profiling entirely, so a
  /// budget sweep that builds several schedulers — or repeats a harness —
  /// characterizes each application once per process instead of once per
  /// scheduler. Returns the number of records adopted.
  std::size_t seed_knowledge_from(const KnowledgeDb& db) {
    return db_.merge_from(db);
  }

  /// Whether schedule() would plan `app` from the knowledge database,
  /// without profiling it. A record found is validate()d first, so a
  /// corrupt one throws here exactly as schedule() would.
  [[nodiscard]] bool knows(const workloads::WorkloadSignature& app) const;

  [[nodiscard]] KnowledgeDb& knowledge_db() { return db_; }
  [[nodiscard]] const InflectionPredictor& inflection_predictor() const {
    return inflection_;
  }
  [[nodiscard]] const ScalabilityClassifier& classifier() const {
    return classifier_;
  }

 private:
  /// Characterize an unknown application (profile + classify + predict N_P
  /// + validation sample) and record it.
  [[nodiscard]] std::pair<ProfileData, KnowledgeRecord> characterize(
      const workloads::WorkloadSignature& app);

  /// Knowledge-DB lookup with characterization fallback; the bool reports a
  /// cache hit.
  [[nodiscard]] std::tuple<ProfileData, KnowledgeRecord, bool>
  get_or_characterize(const workloads::WorkloadSignature& app);

  /// Per-node variability multipliers of the first `nodes` nodes.
  [[nodiscard]] std::vector<double> node_multipliers(int nodes) const;

  sim::SimExecutor* executor_;
  SchedulerOptions options_;
  SmartProfiler profiler_;
  ScalabilityClassifier classifier_;
  InflectionPredictor inflection_;
  NodeConfigSelector selector_;
  ClusterAllocator allocator_;
  VariabilityCoordinator variability_;
  KnowledgeDb db_;
  obs::ObsSession* obs_ = nullptr;
};

}  // namespace clip::core

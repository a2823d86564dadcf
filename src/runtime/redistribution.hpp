// Runtime power redistribution between running jobs.
//
// CLIP allocates a job's power slice once, at launch, and never revisits it
// (Algorithm 1 runs per submission). On a real power-bounded cluster that
// strands watts: a job whose caps exceed its measured draw holds headroom
// nobody can use, while queued jobs wait for watts and critical-path jobs
// run capped. Medhat et al. (*Power Redistribution for Optimizing
// Performance in MPI Clusters*) show a runtime claw-back/re-grant loop
// recovers that makespan; Subramaniam & Feng's subsystem-level power
// management motivates extending the shift to the PKG↔DRAM boundary inside
// a node. This header is that loop's policy layer, used by
// runtime::QueueEventLoop (docs/power-redistribution.md):
//
//   * SlackDetector — estimates per-node slack watts under the current cap
//     from each node's newest power samples plus the job's phase signal (the
//     ext_phase_aware phase model, looked up by application name);
//   * claw_w and pick_regrant — size claw-backs (how much of a job's slice
//     to reclaim after the reaction latency) and pick the re-grant target:
//     the running job whose completion improves the most per granted watt,
//     as evaluated by the caller through the memoized evaluation engine.
//
// All of it is pure policy: it never touches the executor, the scheduler,
// or the clock. All decisions are deterministic functions of the samples
// fed in, so a queue run with redistribution enabled is exactly
// reproducible — and with it disabled no tick fires, no sample is taken,
// and the queue stays byte-identical to the static runtime.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "workloads/signature.hpp"

namespace clip::runtime {

struct RedistributionOptions {
  /// Master switch. Off (the default) keeps the queue byte-identical to the
  /// static-allocation runtime — no ticks, no samples, no extra FP ops.
  bool enabled = false;
  /// Slack sampling cadence on the simulated-seconds axis.
  double period_s = 20.0;
  /// Latency between deciding a claw-back and the re-programmed caps taking
  /// effect (telemetry period + RAPL MSR writes settling), mirroring
  /// fault::BudgetGuardOptions::reaction_s.
  double reaction_s = 2.0;

  void validate() const;
};

/// Slack kept above the observed draw when clawing back, as a fraction of
/// the job's current slice: claw down to draw + headroom, never further.
inline constexpr double kHeadroomFrac = 0.08;
/// Claw-backs below this are not worth the cap rewrite.
inline constexpr double kMinClawW = 4.0;
/// Re-grants below this are not worth the evaluation.
inline constexpr double kMinGrantW = 4.0;
/// A re-grant or subsystem shift must buy at least this much completion
/// time for its job; below it the watts stay in the free pool.
inline constexpr double kMinGainS = 0.05;
/// Newest samples per node the slack estimator reads. Slack is judged
/// against the *max* of them, so one low-power phase sample cannot trigger
/// a claw-back the next compute phase would regret.
inline constexpr std::size_t kWindowSamples = 3;
/// Watts moved per intra-node PKG→DRAM shift (per node, PKG cap to DRAM
/// cap) for a memory-phase job.
inline constexpr double kShiftStepW = 5.0;

/// What the phase model says a job is doing at an instant.
struct PhaseSignal {
  bool known = false;        ///< false: no phased model for this application
  std::string phase;         ///< active phase name when known
  bool memory_bound = false; ///< active (or whole-program) memory character
};

/// Estimates per-node slack watts from recent power samples and phase
/// signals. Per node it keeps the kWindowSamples newest samples the queue
/// feeds it, so the estimate is a pure function of that window.
class SlackDetector {
 public:
  struct Sample {
    double t_s = 0.0;
    double draw_w = 0.0;
  };

  /// Record one plausibility-filtered per-node power sample. Throws
  /// PreconditionError for a negative node, a non-finite time, or a sample
  /// older than the node's newest.
  void observe(int node, double t_s, double draw_w);

  /// Slack watts node `node` holds under `cap_w`: cap minus the max recent
  /// draw minus the headroom share of the cap. Zero when no samples have
  /// been recorded yet (an unobserved node is never clawed), never
  /// negative.
  [[nodiscard]] double node_slack_w(int node, double cap_w) const;

  /// Node `node`'s window, oldest first; empty when it was never observed.
  [[nodiscard]] std::span<const Sample> window(int node) const;
  /// One past the highest node observed so far.
  [[nodiscard]] int node_bound() const {
    return static_cast<int>(windows_.size());
  }

  /// The phase `app` is in at `t_s`, given its run spans [start_s, end_s):
  /// looks up the ext_phase_aware phased model (`<name>-phased` in
  /// workloads::phased_benchmarks) and maps elapsed run fraction onto the
  /// phase sequence by work weight. Falls back to the flat signature's
  /// memory character when no phased model exists.
  [[nodiscard]] static PhaseSignal phase_at(
      const workloads::WorkloadSignature& app, double start_s, double end_s,
      double t_s);

 private:
  struct Window {
    std::array<Sample, kWindowSamples> samples{};
    std::size_t size = 0;
  };
  std::vector<Window> windows_;  ///< indexed by node id
};

/// One running job's re-grant evaluation, produced by the caller via the
/// memoized evaluation engine (schedule_constrained + run_exact at the
/// boosted slice) and judged here.
struct RegrantCandidate {
  std::size_t job = 0;        ///< caller's identifier for the running job
  double grant_w = 0.0;       ///< watts the candidate would receive
  double gain_s = 0.0;        ///< completion-time reduction the watts buy
};

/// Watts to claw back from a job holding `slack_w` of detected slack over a
/// slice of `reserved_w`, such that the slice never drops below `floor_w`
/// (the job's observed draw plus headroom, and never below the queue's
/// minimum viable reservation). Returns 0 when the worthwhile claw is below
/// kMinClawW.
[[nodiscard]] double claw_w(double reserved_w, double slack_w, double floor_w);

/// The candidate with the best marginal makespan gain, or nullptr when no
/// candidate clears kMinGainS. Ties break toward the first candidate in the
/// (deterministic) caller order.
[[nodiscard]] const RegrantCandidate* pick_regrant(
    const std::vector<RegrantCandidate>& candidates);

}  // namespace clip::runtime

// The benchmark's three workloads (README.md here has the rationale):
//
//   paper-eval   — the §V method comparison: the fig8, fig9 and summary
//                  sweeps over the Table II apps plus one sweep over seeded
//                  random signatures. One op = one (app, budget) row.
//   queue-mixed  — 1000 Table II / random jobs, a tenth rigid, through the
//                  event loop at 700 W, fault-free. One op = one job.
//   queue-faults — 300 jobs under a random plan of every fault kind, with
//                  redistribution, a timeline and a journal, then recoveries
//                  from seeded cuts. One op = one job driven to a terminal
//                  state, by the run or by a recovery.
//
// Inputs are generated once, in set-up; an iteration only runs the program
// on them. The seed drives paper-eval's random sweep and queue-faults'
// recovery cuts; the queue streams are fixed (QueueBase says why). Every
// iteration is a closed loop on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/session.hpp"

namespace perfbench {

/// The checkable output of one iteration: one row per op. Rows are bit-exact
/// (hexfloat) renderings, compared against the warm-up iteration's rows.
struct Outcome {
  std::vector<std::string> rows;
  /// Ops the program itself reported as failed (jobs the queue gave up on).
  std::size_t program_failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One timed iteration. `session` null: nothing is attached, as in the
  /// end-to-end run. Non-null: the session is attached to every executor,
  /// scheduler and loop, and benchmark spans wrap the layer calls.
  virtual void iterate(clip::obs::ObsSession* session) = 0;

  /// Rows of the latest iteration (untimed: rendering is not the program's
  /// work).
  [[nodiscard]] virtual Outcome outcome() const = 0;

  /// Invariants on the latest iteration, for any seed. Appends one line per
  /// violation.
  virtual void check(std::vector<std::string>& errors) const = 0;

  /// Workload-level results of the latest iteration, by end-to-end metric
  /// name (only the metrics that apply to this workload).
  [[nodiscard]] virtual std::map<std::string, double> results() const = 0;

  /// Per-iteration figures the traced run reads from the program's outputs
  /// rather than from spans (journal size, timeline points).
  [[nodiscard]] virtual std::map<std::string, double> layer_extras() const {
    return {};
  }

  /// Host seconds of each QueueEventLoop::recover in the latest iteration
  /// (queue-faults), measured around the call itself.
  [[nodiscard]] virtual std::vector<double> recover_times() const {
    return {};
  }

  /// Alternative renderings of the latest iteration that other programs
  /// print too, by name (paper-eval: the figure binaries' --csv output).
  [[nodiscard]] virtual std::map<std::string, std::string> figures() const {
    return {};
  }
};

/// Generates the inputs and builds the program state (the set-up); throws
/// on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// Golden FNV-1a hash of the warm-up rows for `seed`, if one is pinned
/// (paper-eval: seed 1; the queues: every seed).
[[nodiscard]] const char* golden_hash(const std::string& workload,
                                      std::uint64_t seed);

[[nodiscard]] std::string fnv1a_hex(const std::vector<std::string>& rows);

}  // namespace perfbench

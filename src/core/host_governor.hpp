// HostGovernor — the CLIP node-level loop running against *real* kernels on
// the host thread pool.
//
// On the paper's testbed the loop is: profile at all/half cores (wall clock
// + RAPL counters), classify, pick a concurrency, program the caps, pin the
// threads. In this containerized environment there are no RAPL counters, so
// power comes from the machine model while everything else is real: real
// kernel executions provide the timings and the measured traffic
// (bytes_moved / time), the classifier and selector make the decision, and
// the governor enforces it on the pool via set_concurrency/set_affinity.
//
// This is the smallest honest end-to-end demonstration of CLIP's mechanism
// stack on hardware the build machine actually has.
#pragma once

#include <functional>

#include "core/classifier.hpp"
#include "core/node_config.hpp"
#include "core/profile.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/machine.hpp"
#include "workloads/kernels.hpp"

namespace clip::core {

/// A kernel under government: any callable running the timed section on the
/// current pool team and reporting traffic/work.
using GovernedKernel =
    std::function<workloads::KernelResult(parallel::ThreadPool&)>;

struct GovernorDecision {
  NodeDecision node;              ///< threads/affinity/levels/caps chosen
  ProfileData profile;            ///< real-measurement profile it came from
  workloads::ScalabilityClass cls = workloads::ScalabilityClass::kLinear;
  double full_time_s = 0.0;       ///< measured all-thread sample
  double half_time_s = 0.0;       ///< measured half-thread sample
};

class HostGovernor {
 public:
  /// `model` describes the host's power behaviour (socket bases, per-core
  /// draw, DVFS ladder); shape.total_cores() should not exceed the pool.
  explicit HostGovernor(sim::MachineSpec model);

  /// Profile the kernel at full/half concurrency on the pool (real runs),
  /// build a CLIP profile from the measurements, decide a configuration
  /// under `node_budget`, and apply it to the pool.
  [[nodiscard]] GovernorDecision govern(parallel::ThreadPool& pool,
                                        const GovernedKernel& kernel,
                                        Watts node_budget);

 private:
  sim::MachineSpec model_;
  ScalabilityClassifier classifier_;
  NodeConfigSelector selector_;
};

}  // namespace clip::core

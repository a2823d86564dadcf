#include "core/node_config.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace clip::core {

std::vector<int> NodeConfigSelector::candidate_threads(
    workloads::ScalabilityClass cls, int np) const {
  const int all = spec_->shape.total_cores();
  std::vector<int> out;
  switch (cls) {
    case workloads::ScalabilityClass::kLinear:
      // "We do not consider decreasing the concurrency" for linear apps —
      // the budget is absorbed by frequency alone (§II).
      out.push_back(all);
      break;
    case workloads::ScalabilityClass::kLogarithmic:
      for (int t = 2; t <= all; t += 2) out.push_back(t);
      break;
    case workloads::ScalabilityClass::kParabolic:
      // Beyond N_P parabolic apps burn more power for *less* performance —
      // that segment is never a candidate (§III-A2).
      CLIP_REQUIRE(np >= 2, "parabolic selection needs N_P");
      for (int t = 2; t <= std::min(np, all); t += 2) out.push_back(t);
      break;
  }
  return out;
}

sim::MemPowerLevel NodeConfigSelector::choose_mem_level(
    const PowerEstimator& power, int threads,
    parallel::AffinityPolicy affinity) const {
  const parallel::Placement placement =
      parallel::place_threads(spec_->shape, threads, affinity);
  const double demand =
      power.bw_demand_gbps(threads) * options_.mem_demand_guardband;
  // Scan from the most frugal level upward; keep the first that feeds the
  // demand. If even L0 cannot (saturated workload), L0 it is.
  sim::MemPowerLevel chosen = sim::MemPowerLevel::kL0;
  for (auto it = std::rbegin(sim::kAllMemLevels);
       it != std::rend(sim::kAllMemLevels); ++it) {
    const double capacity = placement.active_sockets() *
                            spec_->socket_bw_gbps * sim::bw_fraction(*it);
    if (capacity >= demand) {
      chosen = *it;
      break;
    }
  }
  return chosen;
}

NodeDecision NodeConfigSelector::select(const AppModels& models,
                                        Watts node_budget) const {
  return select_from(models, node_budget,
                     candidate_threads(models.perf.scalability(),
                                       models.perf.inflection()));
}

NodeDecision NodeConfigSelector::select_forced(const AppModels& models,
                                               Watts node_budget,
                                               int threads) const {
  CLIP_REQUIRE(threads >= 1 && threads <= spec_->shape.total_cores(),
               "forced thread count outside the node");
  return select_from(models, node_budget, {threads});
}

NodeDecision NodeConfigSelector::select_from(
    const AppModels& models, Watts node_budget,
    const std::vector<int>& candidates) const {
  CLIP_REQUIRE(node_budget.value() > 0.0, "node budget must be positive");
  const PowerEstimator& power = models.power;
  const PerfPredictor& perf = models.perf;
  const auto& states = spec_->ladder.states();

  NodeDecision best;
  bool have_best = false;
  for (int threads : candidates) {
    // Affinity: the profiler's memory-intensity preference; once a config
    // spans both sockets the two policies converge, so the preference only
    // matters for t <= cores_per_socket.
    const parallel::AffinityPolicy affinity = models.affinity;
    const double ceiling = std::max(1.0, perf.observed_bw_ceiling());

    // CPU <-> DRAM power split: every memory power level trades DRAM
    // bandwidth (and its activity watts) for CPU frequency headroom. The
    // predictor prices both sides; we keep the level with the best
    // predicted time (paper Fig. 1: the split is a first-class dimension).
    for (sim::MemPowerLevel level : sim::kAllMemLevels) {
      // The level caps the observed ceiling proportionally; the app never
      // draws more than its (guardbanded) demand.
      const double level_bw = ceiling * sim::bw_fraction(level);
      const double raw_demand = power.bw_demand_gbps(threads);
      const double demand = raw_demand * options_.mem_demand_guardband;
      // An unsaturated profile cannot reveal the memory-boundedness, so the
      // predictor cannot price a bandwidth cut below the measured demand —
      // never take that unpriced risk. L0 is exempt: it is the most
      // bandwidth the machine offers, so there is nothing safer to pick.
      if (perf.recovered_memory_boundedness() <= 0.0 &&
          level != sim::MemPowerLevel::kL0 && level_bw < raw_demand * 0.99)
        continue;
      const double planned_bw = std::min(level_bw, demand);
      const Watts mem_cap =
          power.mem_power_at_bw(threads, affinity, planned_bw) +
          Watts(options_.mem_cap_slack_w);
      // The slack is part of the DRAM allocation: CPU + DRAM caps add up
      // to exactly the node budget.
      const Watts cpu_budget = node_budget - mem_cap;
      if (cpu_budget.value() <= 0.0) continue;

      // Highest DVFS state the predicted CPU power fits under the
      // remaining budget; if even the lowest state does not fit, model the
      // RAPL duty-cycle penalty.
      std::size_t state = states.size();
      bool fits = false;
      while (!fits && state > 0)
        fits = power.cpu_power_at_state(threads, affinity, --state) <=
               cpu_budget;
      double duty = 1.0;
      if (!fits) {
        // Clock-modulation region (state is the lowest): gating cuts
        // dynamic power only, so the duty solves
        // cpu_budget = base + load(f_min)*duty (mirroring the enforcement
        // model).
        const Watts floor_w =
            power.cpu_power_at_state(threads, affinity, state);
        const double base_w = power.cpu_base_w(threads, affinity);
        const double load_w = std::max(1e-6, floor_w.value() - base_w);
        duty = std::clamp((cpu_budget.value() - base_w) / load_w,
                          1.0 / 16.0, 1.0);
      }
      const double f_rel = spec_->ladder.relative(states[state]);

      const double bw_for_prediction = std::max(planned_bw, 1e-3);
      const double predicted =
          perf.predict_time(threads, f_rel, bw_for_prediction).value() /
          duty;

      NodeDecision d;
      d.config.threads = threads;
      d.config.affinity = affinity;
      d.config.mem_level = level;
      d.config.mem_cap = mem_cap;
      d.config.cpu_cap = cpu_budget;
      d.f_rel_expected = f_rel * duty;
      d.predicted_time = Seconds(predicted);
      d.predicted_power =
          power.cpu_power_at_state(threads, affinity, state) * duty +
          mem_cap;
      if (!have_best ||
          d.predicted_time.value() < best.predicted_time.value()) {
        best = d;
        have_best = true;
      }
    }
  }
  CLIP_REQUIRE(have_best,
               "no feasible node configuration under this budget");
  return best;
}

}  // namespace clip::core

#include "core/node_config.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
      power.bw_demand_gbps(threads) * kMemDemandGuardband;
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
  CandidateTable table = price(models);
  return select(table, node_budget);
}

NodeDecision NodeConfigSelector::select_forced(const AppModels& models,
                                               Watts node_budget,
                                               int threads) const {
  CLIP_REQUIRE(threads >= 1 && threads <= spec_->shape.total_cores(),
               "forced thread count outside the node");
  CandidateTable table = price(models, {threads});
  return select(table, node_budget);
}

CandidateTable NodeConfigSelector::price(const AppModels& models) const {
  return price(models, candidate_threads(models.perf.scalability(),
                                         models.perf.inflection()));
}

CandidateTable NodeConfigSelector::price(
    const AppModels& models, const std::vector<int>& candidates) const {
  const PowerEstimator& power = models.power;
  const PerfPredictor& perf = models.perf;
  const std::size_t states = spec_->ladder.state_count();
  // Affinity: the profiler's memory-intensity preference; once a config
  // spans both sockets the two policies converge, so the preference only
  // matters for t <= cores_per_socket.
  const parallel::AffinityPolicy affinity = models.affinity;
  const double ceiling = std::max(1.0, perf.observed_bw_ceiling());

  CandidateTable table(models, states);
  for (int threads : candidates) {
    const parallel::Placement placement =
        parallel::place_threads(spec_->shape, threads, affinity);
    const std::size_t row = table.base_w_.size();
    table.base_w_.push_back(power.cpu_base_w(placement));
    for (std::size_t state = 0; state < states; ++state)
      table.cpu_w_.push_back(
          power.cpu_power_at_state(placement, state).value());

    // CPU <-> DRAM power split: every memory power level trades DRAM
    // bandwidth (and its activity watts) for CPU frequency headroom. The
    // predictor prices both sides; the pick keeps the level with the best
    // predicted time (paper Fig. 1: the split is a first-class dimension).
    for (sim::MemPowerLevel level : sim::kAllMemLevels) {
      // The level caps the observed ceiling proportionally; the app never
      // draws more than its (guardbanded) demand.
      const double level_bw = ceiling * sim::bw_fraction(level);
      const double raw_demand = power.bw_demand_gbps(threads);
      const double demand = raw_demand * kMemDemandGuardband;
      // An unsaturated profile cannot reveal the memory-boundedness, so the
      // predictor cannot price a bandwidth cut below the measured demand —
      // never take that unpriced risk. L0 is exempt: it is the most
      // bandwidth the machine offers, so there is nothing safer to pick.
      if (perf.recovered_memory_boundedness() <= 0.0 &&
          level != sim::MemPowerLevel::kL0 && level_bw < raw_demand * 0.99)
        continue;
      const double planned_bw = std::min(level_bw, demand);
      table.pairs_.push_back(CandidateTable::Pair{
          .threads = threads,
          .row = row,
          .level = level,
          .mem_cap = power.mem_power_at_bw(placement, planned_bw) +
                     Watts(kMemCapSlackW),
          .bw = std::max(planned_bw, 1e-3)});
    }
  }
  table.times_.assign(table.pairs_.size() * states,
                      std::numeric_limits<double>::quiet_NaN());
  return table;
}

NodeDecision NodeConfigSelector::select(CandidateTable& table,
                                        Watts node_budget) const {
  CLIP_REQUIRE(node_budget.value() > 0.0, "node budget must be positive");
  const auto& states = spec_->ladder.states();
  const std::size_t n = table.states_;

  NodeDecision best;
  bool have_best = false;
  for (std::size_t i = 0; i < table.pairs_.size(); ++i) {
    const CandidateTable::Pair& pair = table.pairs_[i];
    // The slack is part of the DRAM allocation: CPU + DRAM caps add up
    // to exactly the node budget.
    const Watts cpu_budget = node_budget - pair.mem_cap;
    if (cpu_budget.value() <= 0.0) continue;

    // Highest DVFS state the predicted CPU power fits under the remaining
    // budget; if even the lowest state does not fit, model the RAPL
    // duty-cycle penalty.
    const double* cpu_w = table.cpu_w_.data() + pair.row * n;
    std::size_t state = n;
    bool fits = false;
    while (!fits && state > 0) fits = Watts(cpu_w[--state]) <= cpu_budget;
    double duty = 1.0;
    if (!fits) {
      // Clock-modulation region (state is the lowest): gating cuts
      // dynamic power only, so the duty solves
      // cpu_budget = base + load(f_min)*duty (mirroring the enforcement
      // model).
      const double base_w = table.base_w_[pair.row];
      const double load_w = std::max(1e-6, cpu_w[state] - base_w);
      duty = std::clamp((cpu_budget.value() - base_w) / load_w,
                        1.0 / 16.0, 1.0);
    }
    const double f_rel = spec_->ladder.relative(states[state]);

    // Memoized per (pair, state): the same call on the same operands as
    // a fresh pricing makes, so the same bits.
    double& time = table.times_[i * n + state];
    if (std::isnan(time))
      time = table.models_->perf.predict_time(pair.threads, f_rel, pair.bw)
                 .value();
    const double predicted = time / duty;
    if (have_best && !(predicted < best.predicted_time.value())) continue;

    best.config.threads = pair.threads;
    best.config.affinity = table.models_->affinity;
    best.config.mem_level = pair.level;
    best.config.mem_cap = pair.mem_cap;
    best.config.cpu_cap = cpu_budget;
    best.f_rel_expected = f_rel * duty;
    best.predicted_time = Seconds(predicted);
    best.predicted_power = Watts(cpu_w[state]) * duty + pair.mem_cap;
    have_best = true;
  }
  CLIP_REQUIRE(have_best,
               "no feasible node configuration under this budget");
  return best;
}

}  // namespace clip::core

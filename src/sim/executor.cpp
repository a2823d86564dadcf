#include "sim/executor.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/check.hpp"

namespace clip::sim {

SimExecutor::SimExecutor(MachineSpec spec, MeterOptions meter)
    : spec_(std::move(spec)),
      variability_(spec_),
      rapl_(spec_),
      events_(spec_),
      meter_(meter) {
  spec_.validate();
}

void SimExecutor::set_observer(obs::ObsSession* obs) {
  obs_ = obs;
  if (obs == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.runs = &obs->metrics().counter("sim.runs");
  metrics_.node_solves = &obs->metrics().counter("sim.node_solves");
  metrics_.cache_hits = &obs->metrics().counter("sim.exact_cache_hits");
  metrics_.cache_misses = &obs->metrics().counter("sim.exact_cache_misses");
  metrics_.batch_runs = &obs->metrics().counter("sim.batch_runs");
  metrics_.batch_width =
      &obs->metrics().histogram("sim.batch_width", obs::batch_width_spec());
}

void SimExecutor::set_exact_cache(ExactRunCache* cache) {
  cache_ = cache;
  cache_prefix_ = cache != nullptr ? ExactRunCache::encode_spec(spec_)
                                   : std::string();
}

Measurement SimExecutor::run_exact(const workloads::WorkloadSignature& w,
                                   const ClusterConfig& cfg) const {
  // Validate before the cache probe: the spec prefix deliberately omits
  // spec.nodes (topologically identical shards share entries), so a config
  // cached by a larger shard must not smuggle an oversized node count past
  // this executor's bounds check via a hit.
  CLIP_REQUIRE(cfg.nodes >= 1 && cfg.nodes <= spec_.nodes,
               "node count outside the cluster");
  CLIP_REQUIRE(cfg.cpu_cap_overrides.empty() ||
                   static_cast<int>(cfg.cpu_cap_overrides.size()) ==
                       cfg.nodes,
               "per-node cap overrides must match the node count");
  if (cache_ == nullptr) return compute_exact(w, cfg);

  std::string prefix = ExactRunCache::encode_batch_prefix(cache_prefix_, w, cfg);
  ExactRunCache::append_overrides(prefix, cfg.cpu_cap_overrides);
  const CacheKey key{cache_->intern_prefix(prefix),
                     cfg.node.cpu_cap.value(), cfg.node.mem_cap.value()};
  Measurement m;
  if (cache_->lookup(key, m)) {
    if (obs_ != nullptr) metrics_.cache_hits->add();
    return m;
  }
  if (obs_ != nullptr) metrics_.cache_misses->add();
  m = compute_exact(w, cfg);
  cache_->insert(key, m);
  return m;
}

Measurement SimExecutor::run_exact_uncached(
    const workloads::WorkloadSignature& w, const ClusterConfig& cfg) const {
  CLIP_REQUIRE(cfg.nodes >= 1 && cfg.nodes <= spec_.nodes,
               "node count outside the cluster");
  CLIP_REQUIRE(cfg.cpu_cap_overrides.empty() ||
                   static_cast<int>(cfg.cpu_cap_overrides.size()) ==
                       cfg.nodes,
               "per-node cap overrides must match the node count");
  return compute_exact(w, cfg);
}

NodeMeasurement SimExecutor::node_measurement(
    const workloads::WorkloadSignature& w, int threads,
    const OperatingPoint& op) const {
  NodeMeasurement nm;
  nm.time = op.perf.time;
  nm.frequency = op.frequency;
  nm.duty_factor = op.duty_factor;
  nm.cpu_power = op.cpu_power;
  nm.mem_power = op.mem_power;
  nm.achieved_bw_gbps = op.perf.achieved_bw_gbps;
  nm.saturation = op.perf.saturation;
  nm.events = events_.synthesize(w, threads, op.frequency, op.perf);
  return nm;
}

Measurement SimExecutor::compute_exact(const workloads::WorkloadSignature& w,
                                       const ClusterConfig& cfg) const {
  obs::ScopedSpan span(obs_, "sim.run", "sim");
  span.arg("app", w.name);
  span.arg("nodes", cfg.nodes);
  if (obs_ != nullptr) {
    metrics_.runs->add();
    metrics_.node_solves->add(static_cast<std::uint64_t>(
        std::max(cfg.nodes, 0)));
  }
  w.validate();

  const double node_work_s = w.node_base_time_s / cfg.nodes;
  const RaplSolver::Prepared prep = rapl_.prepare(w, node_work_s, cfg.node);

  Measurement m;
  m.nodes.reserve(static_cast<std::size_t>(cfg.nodes));
  Seconds slowest{0.0};
  if (cfg.cpu_cap_overrides.empty() && variability_.uniform()) {
    // Identical caps and multipliers make every node's solve the same pure
    // function call: solve once, replicate the bit-identical measurement.
    const OperatingPoint op =
        rapl_.solve_prepared(w, prep, cfg.node.cpu_cap, cfg.node.mem_cap,
                             variability_.cpu_multiplier(0));
    const NodeMeasurement nm = node_measurement(w, cfg.node.threads, op);
    slowest = nm.time;
    m.nodes.assign(static_cast<std::size_t>(cfg.nodes), nm);
  } else {
    for (int i = 0; i < cfg.nodes; ++i) {
      NodeConfig node_cfg = cfg.node;
      if (!cfg.cpu_cap_overrides.empty())
        node_cfg.cpu_cap = cfg.cpu_cap_overrides[static_cast<std::size_t>(i)];
      const OperatingPoint op =
          rapl_.solve_prepared(w, prep, node_cfg.cpu_cap, node_cfg.mem_cap,
                               variability_.cpu_multiplier(i));
      NodeMeasurement nm = node_measurement(w, node_cfg.threads, op);
      slowest = std::max(slowest, nm.time);
      m.nodes.push_back(std::move(nm));
    }
  }

  m.comm_time = CommModel::evaluate(w, cfg.nodes, node_work_s);
  m.time = slowest + m.comm_time;

  double watts = 0.0;
  for (const auto& nm : m.nodes)
    watts += nm.cpu_power.value() + nm.mem_power.value();
  m.avg_power = Watts(watts);
  m.energy = m.avg_power * m.time;
  return m;
}

std::vector<Measurement> SimExecutor::run_batch(
    const workloads::WorkloadSignature& w, const ClusterConfig& base,
    const std::vector<CapPoint>& caps) const {
  CLIP_REQUIRE(base.cpu_cap_overrides.empty(),
               "run_batch shares one (workload, placement) prefix — per-node "
               "cap overrides are scalar-only");
  CLIP_REQUIRE(base.nodes >= 1 && base.nodes <= spec_.nodes,
               "node count outside the cluster");

  // Small frontiers: the scalar path is cheaper than the batch setup (the
  // fig7 small-frontier regression in BENCH_eval_engine.json was exactly
  // this bookkeeping with nothing to amortize it over).
  if (caps.size() < kMinBatchFrontier) {
    std::vector<Measurement> out;
    out.reserve(caps.size());
    for (const CapPoint& p : caps) {
      ClusterConfig cfg = base;
      cfg.node.cpu_cap = p.cpu_cap;
      cfg.node.mem_cap = p.mem_cap;
      out.push_back(run_exact(w, cfg));
    }
    return out;
  }

  obs::ScopedSpan span(obs_, "sim.batch", "sim");
  span.arg("app", w.name);
  span.arg("width", static_cast<int>(caps.size()));
  if (obs_ != nullptr) {
    metrics_.batch_runs->add();
    metrics_.batch_width->record(static_cast<double>(caps.size()));
  }

  // Dedupe within the frontier: distinct planner cells regularly collapse
  // onto one cap point; compute it once and copy the bit-identical result.
  // Typical frontiers are ~20 points wide, where a quadratic scan over the
  // already-computed uniques beats a node-allocating map; wide frontiers
  // fall back to the map (ordered, so the walk is deterministic — clip-lint
  // D2).
  std::vector<std::size_t> compute_idx;
  std::vector<std::size_t> alias_of(caps.size(), caps.size());
  if (caps.size() <= 64) {
    for (std::size_t i = 0; i < caps.size(); ++i) {
      bool aliased = false;
      for (const std::size_t u : compute_idx) {
        if (caps[u] == caps[i]) {
          alias_of[i] = u;
          aliased = true;
          break;
        }
      }
      if (!aliased) compute_idx.push_back(i);
    }
  } else {
    std::map<std::pair<double, double>, std::size_t> first_at;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const auto [it, inserted] = first_at.try_emplace(
          std::make_pair(caps[i].cpu_cap.value(), caps[i].mem_cap.value()),
          i);
      if (inserted) {
        compute_idx.push_back(i);
      } else {
        alias_of[i] = it->second;
      }
    }
  }

  std::vector<Measurement> out(caps.size());
  const std::size_t unique = compute_idx.size();
  if (obs_ != nullptr) {
    metrics_.runs->add(static_cast<std::uint64_t>(unique));
    metrics_.node_solves->add(static_cast<std::uint64_t>(unique) *
                              static_cast<std::uint64_t>(base.nodes));
  }
  w.validate();

  const double node_work_s = w.node_base_time_s / base.nodes;
  const RaplSolver::Prepared prep = rapl_.prepare(w, node_work_s, base.node);
  // Communication is cap-independent: one evaluation serves the frontier.
  const Seconds comm = CommModel::evaluate(w, base.nodes, node_work_s);

  // SoA cap arrays for the frontier kernel.
  std::vector<Watts> cpu_caps(unique), mem_caps(unique);
  for (std::size_t u = 0; u < unique; ++u) {
    cpu_caps[u] = caps[compute_idx[u]].cpu_cap;
    mem_caps[u] = caps[compute_idx[u]].mem_cap;
  }

  const auto assemble = [&](const OperatingPoint& op) {
    Measurement m;
    const NodeMeasurement nm = node_measurement(w, base.node.threads, op);
    m.nodes.assign(static_cast<std::size_t>(base.nodes), nm);
    m.comm_time = comm;
    m.time = nm.time + comm;
    double watts = 0.0;
    for (const auto& node : m.nodes)
      watts += node.cpu_power.value() + node.mem_power.value();
    m.avg_power = Watts(watts);
    m.energy = m.avg_power * m.time;
    return m;
  };

  if (variability_.uniform()) {
    std::vector<OperatingPoint> ops(unique);
    rapl_.solve_frontier(w, prep, cpu_caps.data(), mem_caps.data(), unique,
                         variability_.cpu_multiplier(0), ops.data());
    for (std::size_t u = 0; u < unique; ++u)
      out[compute_idx[u]] = assemble(ops[u]);
  } else {
    // Per-node multipliers: one frontier solve per node index, assembled
    // in node order so every accumulation matches the scalar loop.
    std::vector<std::vector<OperatingPoint>> per_node(
        static_cast<std::size_t>(base.nodes),
        std::vector<OperatingPoint>(unique));
    for (int i = 0; i < base.nodes; ++i)
      rapl_.solve_frontier(w, prep, cpu_caps.data(), mem_caps.data(), unique,
                           variability_.cpu_multiplier(i),
                           per_node[static_cast<std::size_t>(i)].data());
    for (std::size_t u = 0; u < unique; ++u) {
      Measurement m;
      m.nodes.reserve(static_cast<std::size_t>(base.nodes));
      Seconds slowest{0.0};
      for (int i = 0; i < base.nodes; ++i) {
        NodeMeasurement nm = node_measurement(
            w, base.node.threads, per_node[static_cast<std::size_t>(i)][u]);
        slowest = std::max(slowest, nm.time);
        m.nodes.push_back(std::move(nm));
      }
      m.comm_time = comm;
      m.time = slowest + comm;
      double watts = 0.0;
      for (const auto& nm : m.nodes)
        watts += nm.cpu_power.value() + nm.mem_power.value();
      m.avg_power = Watts(watts);
      m.energy = m.avg_power * m.time;
      out[compute_idx[u]] = std::move(m);
    }
  }

  for (std::size_t i = 0; i < caps.size(); ++i)
    if (alias_of[i] != caps.size()) out[i] = out[alias_of[i]];
  return out;
}

Measurement SimExecutor::run(const workloads::WorkloadSignature& w,
                             const ClusterConfig& cfg) {
  Measurement m = run_exact(w, cfg);
  meter_.observe(m);
  return m;
}

PhasedMeasurement SimExecutor::run_phased_exact(
    const workloads::PhasedWorkload& w,
    const PhasedClusterConfig& cfg) const {
  w.validate();
  CLIP_REQUIRE(cfg.phase_nodes.size() == w.phases.size(),
               "one node config per phase required");
  CLIP_REQUIRE(cfg.nodes >= 1 && cfg.nodes <= spec_.nodes,
               "node count outside the cluster");

  PhasedMeasurement total;
  double energy = 0.0;
  for (std::size_t i = 0; i < w.phases.size(); ++i) {
    ClusterConfig phase_cfg;
    phase_cfg.nodes = cfg.nodes;
    phase_cfg.node = cfg.phase_nodes[i];
    const Measurement m = run_exact(w.phase_signature(i), phase_cfg);

    PhaseMeasurement pm;
    pm.phase = w.phases[i].name;
    pm.time = m.time;
    pm.avg_power = m.avg_power;
    pm.energy = m.energy;
    pm.frequency = m.nodes.front().frequency;
    pm.threads = phase_cfg.node.threads;
    total.time += m.time;
    energy += m.energy.value();
    total.phases.push_back(std::move(pm));
  }
  total.energy = Joules(energy);
  total.avg_power = total.energy / total.time;
  return total;
}

}  // namespace clip::sim

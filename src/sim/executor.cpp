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

void SimExecutor::require_runnable(const ClusterConfig& cfg) const {
  CLIP_REQUIRE(cfg.nodes >= 1 && cfg.nodes <= spec_.nodes,
               "node count outside the cluster");
  CLIP_REQUIRE(cfg.cpu_cap_overrides.empty() ||
                   static_cast<int>(cfg.cpu_cap_overrides.size()) ==
                       cfg.nodes,
               "per-node cap overrides must match the node count");
}

Measurement SimExecutor::run_exact(const workloads::WorkloadSignature& w,
                                   const ClusterConfig& cfg) const {
  // Validate before the cache probe: the spec prefix deliberately omits
  // spec.nodes (topologically identical shards share entries), so a config
  // cached by a larger shard must not smuggle an oversized node count past
  // this executor's bounds check via a hit.
  require_runnable(cfg);
  Measurement m;
  if (cache_ == nullptr) {
    compute_exact(w, cfg, &m);
    return m;
  }

  std::string prefix = ExactRunCache::encode_batch_prefix(cache_prefix_, w, cfg);
  ExactRunCache::append_overrides(prefix, cfg.cpu_cap_overrides);
  const CacheKey key{cache_->intern_prefix(prefix),
                     cfg.node.cpu_cap.value(), cfg.node.mem_cap.value()};
  if (cache_->lookup(key, m)) {
    if (obs_ != nullptr) metrics_.cache_hits->add();
    return m;
  }
  if (obs_ != nullptr) metrics_.cache_misses->add();
  compute_exact(w, cfg, &m);
  cache_->insert(key, m);
  return m;
}

Seconds SimExecutor::exact_time(const workloads::WorkloadSignature& w,
                                const ClusterConfig& cfg) const {
  require_runnable(cfg);
  return compute_exact(w, cfg, nullptr);
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

Seconds SimExecutor::solve_nodes(const workloads::WorkloadSignature& w,
                                 const RaplSolver::Prepared& prep,
                                 const ClusterConfig& cfg,
                                 std::vector<NodeMeasurement>* nodes) const {
  if (cfg.cpu_cap_overrides.empty() && variability_.uniform()) {
    // Identical caps and multipliers make every node's solve the same pure
    // function call: solve once, replicate the bit-identical measurement.
    const OperatingPoint op =
        rapl_.solve_prepared(w, prep, cfg.node.cpu_cap, cfg.node.mem_cap,
                             variability_.cpu_multiplier(0));
    if (nodes != nullptr)
      nodes->assign(static_cast<std::size_t>(cfg.nodes),
                    node_measurement(w, cfg.node.threads, op));
    return op.perf.time;
  }
  Seconds slowest{0.0};
  for (int i = 0; i < cfg.nodes; ++i) {
    const Watts cpu_cap =
        cfg.cpu_cap_overrides.empty()
            ? cfg.node.cpu_cap
            : cfg.cpu_cap_overrides[static_cast<std::size_t>(i)];
    const OperatingPoint op = rapl_.solve_prepared(
        w, prep, cpu_cap, cfg.node.mem_cap, variability_.cpu_multiplier(i));
    slowest = std::max(slowest, op.perf.time);
    if (nodes != nullptr)
      nodes->push_back(node_measurement(w, cfg.node.threads, op));
  }
  return slowest;
}

Seconds SimExecutor::compute_exact(const workloads::WorkloadSignature& w,
                                   const ClusterConfig& cfg,
                                   Measurement* full) const {
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
  if (full == nullptr)
    return solve_nodes(w, prep, cfg, nullptr) +
           CommModel::evaluate(w, cfg.nodes, node_work_s);

  Measurement& m = *full;
  m.nodes.reserve(static_cast<std::size_t>(cfg.nodes));
  const Seconds slowest = solve_nodes(w, prep, cfg, &m.nodes);
  m.comm_time = CommModel::evaluate(w, cfg.nodes, node_work_s);
  m.time = slowest + m.comm_time;

  double watts = 0.0;
  for (const auto& nm : m.nodes)
    watts += nm.cpu_power.value() + nm.mem_power.value();
  m.avg_power = Watts(watts);
  m.energy = m.avg_power * m.time;
  return m.time;
}

std::vector<Seconds> SimExecutor::run_batch(
    const workloads::WorkloadSignature& w, const ClusterConfig& base,
    const std::vector<CapPoint>& caps) const {
  CLIP_REQUIRE(base.cpu_cap_overrides.empty(),
               "run_batch shares one (workload, placement) prefix — per-node "
               "cap overrides are scalar-only");
  CLIP_REQUIRE(base.nodes >= 1 && base.nodes <= spec_.nodes,
               "node count outside the cluster");

  std::vector<Seconds> out(caps.size());
  ClusterConfig point = base;
  // Small frontiers: the scalar path is cheaper than the batch setup (a
  // small-frontier slowdown once measured on fig7_inflection was exactly
  // this bookkeeping with nothing to amortize it over).
  if (caps.size() < kMinBatchFrontier) {
    for (std::size_t i = 0; i < caps.size(); ++i) {
      point.node.cpu_cap = caps[i].cpu_cap;
      point.node.mem_cap = caps[i].mem_cap;
      out[i] = run_exact(w, point).time;
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

  w.validate();
  const double node_work_s = w.node_base_time_s / base.nodes;
  const RaplSolver::Prepared prep = rapl_.prepare(w, node_work_s, base.node);
  // Communication is cap-independent: one evaluation serves the frontier.
  const Seconds comm = CommModel::evaluate(w, base.nodes, node_work_s);

  // Dedupe within the frontier: distinct planner cells regularly collapse
  // onto one cap point; compute it once and copy the bit-identical result.
  // Typical frontiers are ~20 points wide, where a quadratic scan over the
  // already-computed uniques beats a node-allocating map; wide frontiers
  // fall back to the map (ordered, so the walk is deterministic — clip-lint
  // D2).
  std::vector<std::size_t> uniques;
  std::map<std::pair<double, double>, std::size_t> first_at;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    std::size_t first = i;
    if (caps.size() <= 64) {
      for (const std::size_t u : uniques) {
        if (caps[u] == caps[i]) {
          first = u;
          break;
        }
      }
    } else {
      first = first_at
                  .try_emplace(std::make_pair(caps[i].cpu_cap.value(),
                                              caps[i].mem_cap.value()),
                               i)
                  .first->second;
    }
    if (first != i) {
      out[i] = out[first];
      continue;
    }
    uniques.push_back(i);
    point.node.cpu_cap = caps[i].cpu_cap;
    point.node.mem_cap = caps[i].mem_cap;
    out[i] = solve_nodes(w, prep, point, nullptr) + comm;
  }
  if (obs_ != nullptr) {
    metrics_.runs->add(static_cast<std::uint64_t>(uniques.size()));
    metrics_.node_solves->add(static_cast<std::uint64_t>(uniques.size()) *
                              static_cast<std::uint64_t>(base.nodes));
  }
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

#include "baselines/oracle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "util/check.hpp"

namespace clip::baselines {

namespace {

/// One (nodes, threads, affinity, level) combination with its feasible,
/// deduplicated DRAM-cap grid. `base` carries the knob settings with the
/// caps left at their unbounded defaults — which is exactly the
/// configuration whose exact time lower-bounds every capped grid point
/// (time is monotone non-increasing in either cap).
///
/// The dense part of the grid depends only on (active sockets, level), so
/// combos don't own it: they point into per-plan grids (`LevelGrid`) and
/// carry just the feasible prefix length plus the optional demand-tight
/// point — a budget sweep materializes thousands of combos per plan, and
/// per-combo cap vectors were a measurable slice of the search cost.
struct GridCombo {
  sim::ClusterConfig base;
  const double* grid = nullptr;  ///< dense feasible caps, serial grid order
  int n_grid = 0;                ///< feasible prefix of `grid`
  bool has_demand = false;       ///< demand-tight point appended?
  double demand_w = 0.0;
  double node_share = 0.0;
  std::size_t first = 0;         ///< offset of cap 0 in the plan's time buffer

  [[nodiscard]] int n_caps() const { return n_grid + (has_demand ? 1 : 0); }
  [[nodiscard]] double cap(int j) const {
    return j < n_grid ? grid[j] : demand_w;
  }
};

/// The budget-independent cap grid for one (active sockets, level) pair.
struct LevelGrid {
  double base_w = 0.0;
  double level_bw = 0.0;
  std::vector<double> caps;  ///< strictly increasing when act_max > 0
};

/// Bound-memo value of a combo whose bound has not been computed (an exact
/// time is never NaN).
constexpr double kUnknownBound = std::numeric_limits<double>::quiet_NaN();

/// Atomic running minimum (relaxed; used only to tighten pruning — the
/// final winner comes from a deterministic serial-order scan).
void update_min(std::atomic<double>& best, double v) {
  double cur = best.load(std::memory_order_relaxed);
  while (v < cur &&
         !best.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

sim::ClusterConfig OracleScheduler::plan(
    const workloads::WorkloadSignature& app, Watts cluster_budget) {
  app.validate();
  CLIP_REQUIRE(cluster_budget.value() > 0.0, "budget must be positive");
  // The workload's full canonical encoding keys both memos, so two
  // signatures that differ in any model input never share an entry.
  std::string app_key;
  if (options_.prune) {
    app_key = sim::ExactRunCache::encode_batch_prefix(std::string(), app,
                                                      sim::ClusterConfig{});
    const std::lock_guard<std::mutex> lock(bound_memo_mu_);
    const auto it = plan_memo_.find({app_key, cluster_budget.value()});
    if (it != plan_memo_.end()) {
      last_search_cost_.store(it->second.search_cost,
                              std::memory_order_relaxed);
      return it->second.plan;
    }
  }
  const auto& spec = executor_->spec();
  const int all_cores = spec.shape.total_cores();

  std::vector<int> node_counts;
  if (app.has_predefined_process_counts) {
    for (int n = 1; n <= spec.nodes; n *= 2) node_counts.push_back(n);
  } else {
    for (int n = 1; n <= spec.nodes; ++n) node_counts.push_back(n);
  }

  last_search_cost_.store(0, std::memory_order_relaxed);

  // ---- materialize the candidate grid in canonical (serial) order --------
  // Thread placement depends only on (threads, affinity) — precompute the
  // active-socket counts once instead of once per (nodes, level).
  std::vector<std::array<int, 2>> active_sockets(
      static_cast<std::size_t>(all_cores / 2));
  for (int threads = 2; threads <= all_cores; threads += 2) {
    const std::size_t t = static_cast<std::size_t>(threads / 2 - 1);
    active_sockets[t][0] =
        parallel::place_threads(spec.shape, threads,
                                parallel::AffinityPolicy::kCompact)
            .active_sockets();
    active_sockets[t][1] =
        parallel::place_threads(spec.shape, threads,
                                parallel::AffinityPolicy::kScatter)
            .active_sockets();
  }

  // DRAM budgets to try at each level: a dense grid over the activity
  // headroom plus a demand-tight point (exact: demand only shrinks as RAPL
  // lowers the frequency, so the nominal-frequency draw is an upper
  // bound). The grid pitch bounds how far a continuum optimum can escape
  // the search. The dense grid depends only on (active sockets, level), so
  // it is built once per plan here; combos reference it. `level_grids`
  // must outlive `combos` (the combos hold pointers into it).
  const std::size_t n_levels = std::size(sim::kAllMemLevels);
  std::vector<LevelGrid> level_grids(
      static_cast<std::size_t>(spec.shape.sockets) * n_levels);
  for (int active = 1; active <= spec.shape.sockets; ++active) {
    const int parked = spec.shape.sockets - active;
    for (std::size_t li = 0; li < n_levels; ++li) {
      LevelGrid& g =
          level_grids[static_cast<std::size_t>(active - 1) * n_levels + li];
      g.base_w = active * spec.mem_base_w_per_socket +
                 parked * spec.mem_parked_w_per_socket;
      g.level_bw = active * spec.socket_bw_gbps *
                   sim::bw_fraction(sim::kAllMemLevels[li]);
      const double act_max = g.level_bw * spec.mem_w_per_gbps();
      if (act_max > 0.0) {
        for (double frac = 0.05; frac <= 1.0 + 1e-9; frac += 0.05)
          g.caps.push_back(g.base_w + frac * act_max);
      } else {
        // Degenerate grid: every point collapses onto base_w.
        g.caps.push_back(g.base_w);
      }
    }
  }

  // Bound-memo slot of a (nodes, threads, affinity, level) combo.
  const std::size_t n_threads = static_cast<std::size_t>(all_cores / 2);
  const auto memo_slot = [&](const sim::ClusterConfig& c) {
    return ((static_cast<std::size_t>(c.nodes - 1) * n_threads +
             static_cast<std::size_t>(c.node.threads / 2 - 1)) *
                2 +
            (c.node.affinity == parallel::AffinityPolicy::kCompact ? 0 : 1)) *
               n_levels +
           static_cast<std::size_t>(c.node.mem_level);
  };

  std::vector<GridCombo> combos;
  combos.reserve(node_counts.size() * active_sockets.size() * 2 * n_levels);
  std::size_t n_times = 0;
  std::vector<int> feasible(level_grids.size());
  for (int nodes : node_counts) {
    const double node_share = cluster_budget.value() / nodes;
    // Keep feasible caps only. Each grid is non-decreasing, so feasibility
    // (`node_share - cap > 1.0` — evaluated exactly as the historical
    // per-cap check did) holds on a prefix, which depends only on the node
    // count and the grid.
    for (std::size_t g = 0; g < level_grids.size(); ++g) {
      const std::vector<double>& caps = level_grids[g].caps;
      int n = 0;
      while (n < static_cast<int>(caps.size()) &&
             node_share - caps[static_cast<std::size_t>(n)] > 1.0)
        ++n;
      feasible[g] = n;
    }
    for (int threads = 2; threads <= all_cores; threads += 2) {
      for (parallel::AffinityPolicy affinity :
           {parallel::AffinityPolicy::kCompact,
            parallel::AffinityPolicy::kScatter}) {
        const int active =
            active_sockets[static_cast<std::size_t>(threads / 2 - 1)]
                          [affinity == parallel::AffinityPolicy::kCompact ? 0
                                                                          : 1];
        for (std::size_t li = 0; li < n_levels; ++li) {
          const std::size_t gi =
              static_cast<std::size_t>(active - 1) * n_levels + li;
          const LevelGrid& g = level_grids[gi];
          // Two DRAM budgets per level: the worst-case draw (full level
          // bandwidth) and a demand-tight budget — the oracle may peek at
          // the workload's true per-core demand, which is the whole point
          // of being an oracle. The tight budget frees watts for the CPU.
          const double demand_bw =
              threads * app.bw_per_core_gbps;  // at nominal frequency

          GridCombo combo;
          combo.node_share = node_share;
          combo.base.nodes = nodes;
          combo.base.node.threads = threads;
          combo.base.node.affinity = affinity;
          combo.base.node.mem_level = sim::kAllMemLevels[li];
          combo.grid = g.caps.data();
          combo.n_grid = feasible[gi];
          // Only the appended demand-tight point can land on a grid point,
          // so it alone pays a duplicate scan (re-running it would waste an
          // exact execution).
          const double demand_w = g.base_w + std::min(demand_bw, g.level_bw) *
                                                 spec.mem_w_per_gbps();
          if (node_share - demand_w > 1.0 &&
              std::find(combo.grid, combo.grid + combo.n_grid, demand_w) ==
                  combo.grid + combo.n_grid) {
            combo.has_demand = true;
            combo.demand_w = demand_w;
          }
          if (combo.n_caps() > 0) {
            combo.first = n_times;
            n_times += static_cast<std::size_t>(combo.n_caps());
            combos.push_back(combo);
          }
        }
      }
    }
  }
  CLIP_ENSURE(!combos.empty(), "oracle found no feasible configuration");

  // ---- evaluate -----------------------------------------------------------
  // Exact times of every (combo, cap), one flat buffer with each combo's
  // caps at its `first` offset. A pruned combo's slots stay +inf, which no
  // exact (finite) time equals, so the final scan skips it. All evaluations
  // are exact (noise-free) runs, so the filled values are identical
  // whatever the execution order — parallelism and pruning can only change
  // *which* slots get filled, never their values. Pool workers write
  // disjoint slots.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> times(n_times, kInf);

  std::atomic<double> best_seen{kInf};
  const auto evaluate_combo = [&](std::size_t ci) {
    const GridCombo& combo = combos[ci];
    // A combo's cap grid shares one (workload, placement) prefix — exactly
    // the frontier shape run_batch vectorizes. The batch times are
    // bit-identical to per-point run_exact calls.
    std::vector<sim::CapPoint> caps(static_cast<std::size_t>(combo.n_caps()));
    for (int j = 0; j < combo.n_caps(); ++j) {
      const double mem_w = combo.cap(j);
      caps[static_cast<std::size_t>(j)].mem_cap = Watts(mem_w);
      caps[static_cast<std::size_t>(j)].cpu_cap =
          Watts(combo.node_share - mem_w);
    }
    const std::vector<Seconds> ts = executor_->run_batch(app, combo.base, caps);
    last_search_cost_.fetch_add(static_cast<int>(caps.size()),
                                std::memory_order_relaxed);
    double local_best = kInf;
    for (std::size_t j = 0; j < ts.size(); ++j) {
      times[combo.first + j] = ts[j].value();
      local_best = std::min(local_best, ts[j].value());
    }
    update_min(best_seen, local_best);
  };

  // Evaluation order over combos as (lower bound, canonical index) pairs:
  // with pruning, cheapest bound first so a near-optimal incumbent appears
  // early and prunes the rest. The indices are unique, so sorting the pairs
  // orders equal bounds canonically — a stable sort by bound.
  std::vector<std::pair<double, std::size_t>> order(combos.size());
  for (std::size_t ci = 0; ci < combos.size(); ++ci) order[ci] = {-kInf, ci};

  if (options_.prune) {
    // One uncapped run per combo: caps at the NodeConfig defaults (1e9 W)
    // dominate every grid point of the combo, so its time is a valid lower
    // bound for all of them. The uncapped config is budget-independent —
    // and never itself a candidate (its caps ignore the budget) — so bounds
    // are memoized per workload across plan() calls, and a budget sweep
    // computes each combo's bound once instead of once per budget. The
    // bound runs are time-only and uncached: this memo is their only
    // consumer. last_search_cost_ counts every requested bound either way,
    // keeping reported evaluation counts sweep-order independent.
    last_search_cost_.fetch_add(static_cast<int>(combos.size()),
                                std::memory_order_relaxed);
    std::vector<std::size_t> missing;
    {
      const std::lock_guard<std::mutex> lock(bound_memo_mu_);
      std::vector<double>& memo = bound_memo_[app_key];
      if (memo.empty())
        memo.assign(static_cast<std::size_t>(spec.nodes) * n_threads * 2 *
                        n_levels,
                    kUnknownBound);
      for (std::size_t ci = 0; ci < combos.size(); ++ci) {
        const double b = memo[memo_slot(combos[ci].base)];
        if (std::isnan(b))
          missing.push_back(ci);
        else
          order[ci].first = b;
      }
    }
    const auto evaluate_bound = [&](std::size_t ci) {
      order[ci].first = executor_->exact_time(app, combos[ci].base).value();
    };
    if (pool_ != nullptr) {
      parallel::parallel_for_chunks(
          *pool_, 0, static_cast<std::int64_t>(missing.size()),
          [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
              evaluate_bound(missing[static_cast<std::size_t>(i)]);
          },
          parallel::Schedule::kDynamic, 8);
    } else {
      for (const std::size_t ci : missing) evaluate_bound(ci);
    }
    if (!missing.empty()) {
      const std::lock_guard<std::mutex> lock(bound_memo_mu_);
      std::vector<double>& memo = bound_memo_[app_key];
      for (const std::size_t ci : missing)
        memo[memo_slot(combos[ci].base)] = order[ci].first;
    }
    std::sort(order.begin(), order.end());
  }

  // A combo whose lower bound cannot *strictly* beat the incumbent cannot
  // contain the winner (the final scan also uses strict <), so skipping it
  // is lossless. The incumbent only tightens over time; on the pool a stale
  // read just prunes less. Serially, the first such combo ends the search:
  // every later bound is at least as large and the incumbent no larger.
  const auto visit = [&](const std::pair<double, std::size_t>& o) {
    if (options_.prune && o.first >= best_seen.load(std::memory_order_relaxed))
      return false;
    evaluate_combo(o.second);
    return true;
  };
  if (pool_ != nullptr) {
    parallel::parallel_for(*pool_, 0,
                           static_cast<std::int64_t>(order.size()),
                           [&](std::int64_t i) {
                             (void)visit(order[static_cast<std::size_t>(i)]);
                           },
                           parallel::Schedule::kDynamic, 1);
  } else {
    for (const auto& o : order)
      if (!visit(o)) break;
  }

  // ---- deterministic winner selection ------------------------------------
  // Scan in canonical grid order with strict improvement, exactly like the
  // historical serial search — so for a fully evaluated grid the chosen
  // configuration matches the legacy oracle bit for bit.
  sim::ClusterConfig best;
  double best_time = kInf;
  for (const GridCombo& combo : combos) {
    const double* t = times.data() + combo.first;
    if (t[0] == kInf) continue;  // pruned — cannot contain the winner
    for (int j = 0; j < combo.n_caps(); ++j) {
      if (t[j] < best_time) {
        best_time = t[j];
        best = combo.base;
        const double mem_w = combo.cap(j);
        best.node.mem_cap = Watts(mem_w);
        best.node.cpu_cap = Watts(combo.node_share - mem_w);
      }
    }
  }
  CLIP_ENSURE(best_time < kInf, "oracle found no feasible configuration");
  if (options_.prune) {
    const std::lock_guard<std::mutex> lock(bound_memo_mu_);
    plan_memo_.try_emplace({std::move(app_key), cluster_budget.value()},
                           PlanMemo{best, last_search_cost()});
  }
  return best;
}

}  // namespace clip::baselines

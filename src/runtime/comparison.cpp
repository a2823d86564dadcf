#include "runtime/comparison.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include "baselines/all_in.hpp"
#include "util/check.hpp"

namespace clip::runtime {

std::string ComparisonResult::cell_key(const std::string& app,
                                       const std::string& parameters,
                                       double budget_w,
                                       const std::string& method) {
  // Field lengths + raw budget bytes make the key unambiguous (no chosen
  // separator can collide with user strings, and no decimal formatting can
  // merge two distinct budgets).
  std::string key;
  key.reserve(app.size() + parameters.size() + method.size() + 32);
  const auto append_sized = [&key](const std::string& s) {
    const std::uint64_t n = s.size();
    char bytes[sizeof(n)];
    std::memcpy(bytes, &n, sizeof(n));
    key.append(bytes, sizeof(n));
    key.append(s);
  };
  append_sized(app);
  append_sized(parameters);
  char budget_bytes[sizeof(double)];
  std::memcpy(budget_bytes, &budget_w, sizeof(double));
  key.append(budget_bytes, sizeof(double));
  append_sized(method);
  return key;
}

void ComparisonResult::ensure_index() const {
  if (indexed_cells_ == cells.size()) return;
  index_.clear();
  index_.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ComparisonCell& c = cells[i];
    // First occurrence wins, matching the historical linear scan.
    index_.try_emplace(cell_key(c.app, c.parameters, c.budget_w, c.method),
                       i);
  }
  indexed_cells_ = cells.size();
}

const ComparisonCell* ComparisonResult::find(const std::string& app,
                                             const std::string& parameters,
                                             double budget_w,
                                             const std::string& method) const {
  ensure_index();
  const auto it = index_.find(cell_key(app, parameters, budget_w, method));
  return it == index_.end() ? nullptr : &cells[it->second];
}

double ComparisonResult::mean_relative(const std::string& method,
                                       double budget_w) const {
  double acc = 0.0;
  int count = 0;
  for (const auto& c : cells) {
    if (c.method != method || c.budget_w != budget_w) continue;
    acc += c.relative_performance;
    ++count;
  }
  CLIP_REQUIRE(count > 0, "no cells for method " + method);
  return acc / count;
}

double ComparisonResult::mean_improvement(
    const std::string& method, const std::string& reference,
    const std::vector<double>& budgets) const {
  double acc = 0.0;
  int count = 0;
  for (const auto& c : cells) {
    if (c.method != method) continue;
    if (!budgets.empty() &&
        std::find(budgets.begin(), budgets.end(), c.budget_w) ==
            budgets.end())
      continue;
    const ComparisonCell* ref =
        find(c.app, c.parameters, c.budget_w, reference);
    if (ref == nullptr || ref->relative_performance <= 0.0) continue;
    acc += c.relative_performance / ref->relative_performance - 1.0;
    ++count;
  }
  CLIP_REQUIRE(count > 0, "no comparable cells");
  return acc / count;
}

void ComparisonHarness::add_method(
    std::shared_ptr<baselines::PowerScheduler> method) {
  CLIP_REQUIRE(method != nullptr, "null method");
  methods_.push_back(std::move(method));
}

double ComparisonHarness::unbounded_reference_time(
    const workloads::WorkloadSignature& app) {
  baselines::AllInScheduler all_in(executor_->spec());
  const Watts unlimited(1e6);
  const sim::ClusterConfig cfg = all_in.plan(app, unlimited);
  return executor_->run_exact(app, cfg).time.value();
}

ComparisonResult ComparisonHarness::run(
    const std::vector<workloads::WorkloadSignature>& apps,
    const std::vector<double>& budgets_w) {
  CLIP_REQUIRE(!methods_.empty(), "register at least one method");
  ComparisonResult result;

  // Phase 1 — plan every cell in the canonical (app → budget → method)
  // order. Schedulers are stateful (knowledge DBs, search counters) and
  // their profiling runs draw measurement noise from the executor's meter,
  // so this order is what keeps the noisy stream — and with it the output —
  // identical to the historical serial harness.
  std::vector<double> reference_time(apps.size(), 0.0);
  std::vector<std::size_t> cell_app;  // app index per cell, for phase 2
  for (std::size_t ai = 0; ai < apps.size(); ++ai) {
    const auto& app = apps[ai];
    reference_time[ai] = unbounded_reference_time(app);
    for (double budget : budgets_w) {
      for (const auto& method : methods_) {
        ComparisonCell cell;
        cell.app = app.name;
        cell.parameters = app.parameters;
        cell.budget_w = budget;
        cell.method = method->name();
        cell.plan = method->plan(app, Watts(budget));
        cell_app.push_back(ai);
        result.cells.push_back(std::move(cell));
      }
    }
  }

  // Phase 2 — time every planned cell with the exact (noise-free, pure)
  // executor; each timing writes only its own cell.
  //
  // Different methods and budgets regularly plan the same (workload,
  // placement) with only the caps differing — run_batch's frontier shape.
  // Group the cells by that prefix (an ordered map keeps the grouping walk
  // deterministic — clip-lint D2); cells with per-node cap overrides stay
  // on the scalar path, which run_batch requires.
  using GroupKey = std::tuple<std::size_t, int, int, int, int>;
  std::map<GroupKey, std::vector<std::size_t>> groups;
  std::vector<std::size_t> singles;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const sim::ClusterConfig& plan = result.cells[i].plan;
    if (!plan.cpu_cap_overrides.empty()) {
      singles.push_back(i);
      continue;
    }
    groups[GroupKey{cell_app[i], plan.nodes, plan.node.threads,
                    static_cast<int>(plan.node.affinity),
                    static_cast<int>(plan.node.mem_level)}]
        .push_back(i);
  }
  for (const auto& [key, members] : groups) {
    const sim::ClusterConfig& base = result.cells[members.front()].plan;
    std::vector<sim::CapPoint> caps(members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      caps[k].cpu_cap = result.cells[members[k]].plan.node.cpu_cap;
      caps[k].mem_cap = result.cells[members[k]].plan.node.mem_cap;
    }
    const std::vector<Seconds> ts =
        executor_->run_batch(apps[cell_app[members.front()]], base, caps);
    for (std::size_t k = 0; k < members.size(); ++k) {
      ComparisonCell& cell = result.cells[members[k]];
      cell.time_s = ts[k].value();
      cell.relative_performance =
          reference_time[cell_app[members[k]]] / cell.time_s;
    }
  }
  for (const std::size_t i : singles) {
    ComparisonCell& cell = result.cells[i];
    const sim::Measurement m =
        executor_->run_exact(apps[cell_app[i]], cell.plan);
    cell.time_s = m.time.value();
    cell.relative_performance = reference_time[cell_app[i]] / cell.time_s;
  }
  return result;
}

}  // namespace clip::runtime

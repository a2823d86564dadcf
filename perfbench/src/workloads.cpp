#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "layers.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "sim/exec_cache.hpp"
#include "util/rng.hpp"
#include "workloads/random.hpp"

namespace perfbench {

using namespace clip;

namespace {

constexpr double kQueueBudgetW = 700.0;
// Input sizes (README.md here gives the rationale).
constexpr int kRandomApps = 10;   ///< paper-eval's random sweep
constexpr int kPopulation = 400;  ///< queue-*: random apps beside Table II
constexpr int kMixedJobs = 1000;  ///< queue-mixed stream length
constexpr int kFaultJobs = 300;   ///< queue-faults stream length
constexpr int kRecoveryCuts = 8;  ///< queue-faults: recoveries per iteration

/// Independent seeded streams from one benchmark seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Random signatures named from (seed, index). workloads::random_signature
/// names them from a process-wide counter, which would make knowledge-DB
/// keys and fingerprints depend on what ran before in the process.
std::vector<workloads::WorkloadSignature> random_apps(std::uint64_t seed,
                                                      int count) {
  auto apps = workloads::random_signatures(seed, count);
  for (std::size_t i = 0; i < apps.size(); ++i)
    apps[i].name = "rand-" + std::to_string(seed) + "-" + std::to_string(i);
  return apps;
}

void shuffle(std::vector<std::size_t>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(i - 1)))]);
}

/// `n` jobs cycling over `population` in a seeded order; exactly a tenth of
/// them, at seeded positions, arrive rigid, asking for 1..max_rigid_nodes
/// nodes in turn.
std::vector<runtime::QueueJob> make_stream(
    std::uint64_t seed, int n,
    const std::vector<workloads::WorkloadSignature>& population,
    int max_rigid_nodes) {
  Rng rng(seed);
  std::vector<std::size_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);
  std::vector<runtime::QueueJob> jobs;
  jobs.reserve(order.size());
  for (std::size_t i : order)
    jobs.push_back({population[i % population.size()], 0});
  std::vector<std::size_t> rigid(order.size());
  std::iota(rigid.begin(), rigid.end(), 0);
  shuffle(rigid, rng);
  for (std::size_t k = 0; k < rigid.size() / 10; ++k)
    jobs[rigid[k]].requested_nodes =
        1 + static_cast<int>(k % static_cast<std::size_t>(max_rigid_nodes));
  return jobs;
}

std::string row_of(const runtime::QueuedJobResult& j) {
  return j.app + ',' + j.parameters + ',' + hex(j.submit_s) + ',' +
         hex(j.start_s) + ',' + hex(j.end_s) + ',' + std::to_string(j.nodes) +
         ',' + hex(j.budget_w) + ',' + hex(j.power_w) + ',' +
         std::to_string(j.attempts) + ',' + (j.completed ? "1" : "0") + ',' +
         std::to_string(j.crashed_node);
}

std::string summary_of(const runtime::QueueReport& r) {
  std::string s = hex(r.makespan_s) + '|' + hex(r.mean_turnaround_s) + '|' +
                  hex(r.total_energy_j) + '|' + hex(r.node_seconds_used) +
                  '|' + std::to_string(r.retries) + '|' +
                  std::to_string(r.jobs_failed) + '|' +
                  std::to_string(r.caps_reprogrammed) + '|' +
                  hex(r.violation_s) + '|' + hex(r.violation_ws) + '|' +
                  std::to_string(r.meter_reads_rejected) + '|' +
                  std::to_string(r.redist_claw_backs) + '|' +
                  std::to_string(r.redist_regrants) + '|' +
                  std::to_string(r.redist_subsystem_shifts) + '|' +
                  hex(r.redist_reclaimed_w) + '|' + hex(r.redist_granted_w);
  for (int n : r.crashed_nodes) s += '|' + std::to_string(n);
  return s;
}

/// Sets and clears the observer of an executor and scheduler around one
/// iteration, so a session never outlives its attachment.
class Attach {
 public:
  Attach(sim::SimExecutor& ex, core::ClipScheduler* sched,
         obs::ObsSession* s)
      : ex_(ex), sched_(sched) {
    ex_.set_observer(s);
    if (sched_ != nullptr) sched_->set_observer(s);
  }
  ~Attach() {
    ex_.set_observer(nullptr);
    if (sched_ != nullptr) sched_->set_observer(nullptr);
  }
  Attach(const Attach&) = delete;
  Attach& operator=(const Attach&) = delete;

 private:
  sim::SimExecutor& ex_;
  core::ClipScheduler* sched_;
};

// ------------------------------------------------------------ paper-eval --

struct Sweep {
  std::string name;
  std::vector<workloads::WorkloadSignature> apps;
  std::vector<double> budgets;
};

class PaperEval final : public Workload {
 public:
  explicit PaperEval(std::uint64_t seed) {
    const auto& table2 = workloads::paper_benchmarks();
    // The figure binaries' default sweeps, then the seeded one.
    sweeps_.push_back({"fig8", table2, {1000.0, 1200.0, 1400.0}});
    sweeps_.push_back({"fig9", table2, {500.0, 600.0, 700.0, 800.0}});
    sweeps_.push_back({"summary", table2,
                       {600.0, 700.0, 800.0, 1000.0, 1200.0, 1400.0,
                        5000.0}});
    sweeps_.push_back({"random", random_apps(derive(seed, 1), kRandomApps),
                       {600.0, 800.0, 1000.0, 1400.0}});
  }

  void iterate(obs::ObsSession* s) override {
    results_.clear();
    for (const Sweep& sweep : sweeps_) run_sweep(sweep, s);
  }

  [[nodiscard]] Outcome outcome() const override {
    Outcome out;
    for (std::size_t k = 0; k < sweeps_.size(); ++k) {
      const auto& cells = results_[k].cells;
      for (std::size_t c = 0; c < cells.size(); c += kMethods) {
        std::string row = sweeps_[k].name;
        for (std::size_t m = c; m < c + kMethods; ++m) {
          const runtime::ComparisonCell& x = cells[m];
          row += ';' + x.app + ',' + x.parameters + ',' + hex(x.budget_w) +
                 ',' + x.method + ',' + hex(x.time_s) + ',' +
                 hex(x.relative_performance) + ',' + x.plan.describe() +
                 ',' + hex(x.plan.node.cpu_cap.value()) + ',' +
                 hex(x.plan.node.mem_cap.value());
          for (const Watts w : x.plan.cpu_cap_overrides)
            row += ',' + hex(w.value());
        }
        out.rows.push_back(std::move(row));
      }
    }
    out.rows.front() += ";oracle_search_cost=" + std::to_string(search_cost_);
    return out;
  }

  void check(std::vector<std::string>& errors) const override {
    for (std::size_t k = 0; k < sweeps_.size(); ++k) {
      const auto& cells = results_[k].cells;
      if (cells.size() !=
          sweeps_[k].apps.size() * sweeps_[k].budgets.size() * kMethods) {
        errors.push_back(sweeps_[k].name + ": wrong cell count");
        continue;
      }
      for (std::size_t c = 0; c < cells.size(); c += kMethods) {
        const double oracle = cells[c + kOracle].relative_performance;
        for (std::size_t m = c; m < c + kMethods; ++m) {
          const runtime::ComparisonCell& x = cells[m];
          if (!(x.time_s > 0.0) || !(x.relative_performance > 0.0))
            errors.push_back(sweeps_[k].name + " " + x.app + " " +
                             x.method + ": non-positive result");
          // CLIP's continuous caps can land between the Oracle's grid
          // points, so it may beat the Oracle by less than the grid pitch
          // (< 1 %, EXPERIMENTS.md); no method may beat it by more.
          if (x.relative_performance > oracle * kOracleTolerance)
            errors.push_back(sweeps_[k].name + " " + x.app + " @" +
                             hex(x.budget_w) + " W: " + x.method +
                             " beats the Oracle by more than 1 %");
        }
      }
    }
  }

  [[nodiscard]] std::map<std::string, double> results() const override {
    // The fig8 and fig9 cells at 600-1400 W: the abstract's ">20 %".
    runtime::ComparisonResult figs;
    for (std::size_t k : {0, 1})
      figs.cells.insert(figs.cells.end(), results_[k].cells.begin(),
                        results_[k].cells.end());
    double gap = 0.0;
    int rows = 0;
    for (const auto& r : results_)
      for (std::size_t c = 0; c < r.cells.size(); c += kMethods) {
        gap += 1.0 - r.cells[c + kClip].relative_performance /
                         r.cells[c + kOracle].relative_performance;
        ++rows;
      }
    return {
        {"clip_gain_pct",
         figs.mean_improvement(
             "CLIP", "All-In", {600.0, 700.0, 800.0, 1000.0, 1200.0, 1400.0}) *
             100.0},
        {"oracle_gap_pct", gap / rows * 100.0},
    };
  }

  [[nodiscard]] std::map<std::string, std::string> figures() const override {
    return {{"fig8_high_budget", render_fig(0, "8", "high")},
            {"fig9_low_budget", render_fig(1, "9", "low")},
            {"summary_claims", render_summary()}};
  }

 private:
  // Methods per row, in register_methods' order.
  static constexpr std::size_t kMethods = 5;
  static constexpr std::size_t kClip = 3;
  static constexpr std::size_t kOracle = 4;
  static constexpr double kOracleTolerance = 1.01;

  void run_sweep(const Sweep& sweep, obs::ObsSession* s) {
    // Declared first, so it closes last: it times the teardown of the
    // methods and the testbed.
    std::optional<obs::ScopedSpan> teardown;
    // A fresh executor and exact-run cache per sweep, as a fresh figure
    // process has.
    std::optional<sim::SimExecutor> testbed;
    std::optional<sim::ExactRunCache> cache;
    {
      const obs::ScopedSpan span(s, "bench.testbed", "bench");
      // bench::make_testbed() built in place: SimExecutor must not be
      // moved (its solver keeps a pointer to the executor's own spec).
      testbed.emplace(sim::MachineSpec{});
      cache.emplace();
    }
    sim::SimExecutor& ex = *testbed;
    ex.set_exact_cache(&*cache);
    ex.set_observer(s);
    runtime::ComparisonHarness harness(ex);
    std::shared_ptr<baselines::PowerScheduler> oracle_method;
    std::shared_ptr<baselines::OracleScheduler> oracle;
    {
      const obs::ScopedSpan span(s, "bench.methods_setup", "bench");
      oracle = register_methods(harness, ex, s, oracle_method);
    }
    {
      const obs::ScopedSpan span(s, "bench.harness", "bench");
      results_.push_back(harness.run(sweep.apps, sweep.budgets));
    }
    if (sweep.name == "summary") {
      // summary_claims prices one oracle search after its sweep.
      (void)oracle_method->plan(*workloads::find_benchmark("SP-MZ"),
                                Watts(800.0));
      search_cost_ = oracle->last_search_cost();
    }
    {
      const obs::ScopedSpan span(s, "bench.testbed", "bench");
      ex.set_exact_cache(nullptr);
      cache.reset();
    }
    teardown.emplace(s, "bench.teardown", "bench");
  }

  /// bench::register_all_methods, with each method behind a TimedScheduler
  /// when a session is attached (the spans attribute planning time to
  /// baselines or core). Returns the oracle; `oracle_method` is what the
  /// harness calls for it.
  static std::shared_ptr<baselines::OracleScheduler> register_methods(
      runtime::ComparisonHarness& harness, sim::SimExecutor& ex,
      obs::ObsSession* s,
      std::shared_ptr<baselines::PowerScheduler>& oracle_method) {
    const auto add = [&](std::shared_ptr<baselines::PowerScheduler> m,
                         const char* span,
                         const baselines::OracleScheduler* oracle) {
      if (s != nullptr)
        m = std::make_shared<TimedScheduler>(std::move(m), s, span, oracle);
      harness.add_method(m);
      return m;
    };
    add(std::make_shared<baselines::AllInScheduler>(ex.spec()),
        "bench.others_plan", nullptr);
    add(std::make_shared<baselines::LowerLimitScheduler>(ex.spec()),
        "bench.others_plan", nullptr);
    add(std::make_shared<baselines::CoordinatedScheduler>(ex),
        "bench.others_plan", nullptr);
    auto clip = std::make_shared<baselines::ClipAdapter>(
        ex, workloads::training_benchmarks());
    clip->scheduler().set_observer(s);
    add(clip, "bench.clip_plan", nullptr);
    auto oracle = std::make_shared<baselines::OracleScheduler>(ex);
    oracle_method = add(oracle, "bench.oracle_plan", oracle.get());
    return oracle;
  }

  /// What fig8_high_budget / fig9_low_budget print with --csv.
  [[nodiscard]] std::string render_fig(std::size_t k, const char* fig,
                                       const char* level) const {
    const Sweep& sweep = sweeps_[k];
    const runtime::ComparisonResult& result = results_[k];
    const std::vector<workloads::WorkloadSignature> panel_a(
        sweep.apps.begin(), sweep.apps.begin() + 5);
    const std::vector<workloads::WorkloadSignature> panel_b(
        sweep.apps.begin() + 5, sweep.apps.end());
    std::ostringstream os;
    for (double budget : sweep.budgets) {
      const std::string watts = std::to_string(static_cast<int>(budget));
      for (const auto& [panel, apps] :
           {std::pair{"a", &panel_a}, std::pair{"b", &panel_b}}) {
        bench::render_method_comparison(
            result, *apps, budget,
            std::string("Fig. ") + fig + panel + " — relative performance, " +
                level + " budget " + watts + " W")
            .print_csv(os);
        os << '\n';
      }
    }
    if (k == 0) {
      for (double budget : sweep.budgets)
        os << "mean relative performance @" << budget << " W:  All-In "
           << result.mean_relative("All-In", budget) << "  Lower-Limit "
           << result.mean_relative("Lower Limit", budget) << "  Coordinated "
           << result.mean_relative("Coordinated", budget) << "  CLIP "
           << result.mean_relative("CLIP", budget) << "  Oracle "
           << result.mean_relative("Oracle", budget) << "\n";
      return os.str();
    }
    const std::vector<double> sane = {600.0, 700.0, 800.0};
    os << "CLIP mean improvement at low budgets (600-800 W):  vs All-In "
       << format_percent(result.mean_improvement("CLIP", "All-In", sane))
       << ",  vs Coordinated "
       << format_percent(result.mean_improvement("CLIP", "Coordinated", sane))
       << ",  vs Lower-Limit "
       << format_percent(result.mean_improvement("CLIP", "Lower Limit", sane))
       << "\n(paper: average improvements close to 20% under low power "
          "budgets).\nAt 500 W All-In collapses entirely (per-node CPU "
          "share ~= socket base power): "
       << format_percent(result.mean_improvement("CLIP", "All-In", {500.0}))
       << " — the cost of budget-blind node allocation.\n";
    return os.str();
  }

  /// What summary_claims prints with --csv.
  [[nodiscard]] std::string render_summary() const {
    const runtime::ComparisonResult& result = results_[2];
    const auto rel = [&](const char* name, double budget,
                         const char* method) {
      const auto w = *workloads::find_benchmark(name);
      return result.find(w.name, w.parameters, budget, method)
          ->relative_performance;
    };
    Table t({"paper claim", "paper value", "measured"});
    t.set_title("Summary — paper claims vs this reproduction");
    double parabolic_best = 0.0;
    for (const char* name : {"SP-MZ", "miniAero", "TeaLeaf"})
      parabolic_best =
          std::max(parabolic_best, rel(name, 5000.0, "CLIP") /
                                       rel(name, 5000.0, "All-In"));
    t.add_row({"unbounded win on parabolic apps (obs. 1)", ">= +40%",
               format_percent(parabolic_best - 1.0)});
    double worst_vs_oracle = 1e9;
    for (const auto& w : sweeps_[2].apps)
      worst_vs_oracle = std::min(
          worst_vs_oracle, rel(w.name.c_str(), 1400.0, "CLIP") /
                               rel(w.name.c_str(), 1400.0, "Oracle"));
    t.add_row({"worst CLIP/Oracle at high budget (obs. 2)",
               "close to optimal", format_percent(worst_vs_oracle - 1.0)});
    t.add_row({"mean improvement vs All-In (abstract)", "> +20%",
               format_percent(result.mean_improvement("CLIP", "All-In"))});
    t.add_row({"mean improvement vs Coordinated", "positive",
               format_percent(result.mean_improvement("CLIP", "Coordinated"))});
    t.add_row({"mean improvement vs Lower Limit", "positive",
               format_percent(result.mean_improvement("CLIP", "Lower Limit"))});
    double defence = 0.0;
    for (const char* name : {"SP-MZ", "miniAero", "TeaLeaf"})
      for (double b : sweeps_[2].budgets)
        if (b < 5000.0)
          defence = std::max(
              defence, rel(name, b, "CLIP") / rel(name, b, "Coordinated"));
    t.add_row({"max win vs Coordinated, parabolic (obs. 4)", "up to +60%",
               format_percent(defence - 1.0)});
    double log_low = 1e9;
    for (const char* name : {"BT-MZ", "LU-MZ"})
      log_low = std::min(log_low, rel(name, 600.0, "CLIP") /
                                      rel(name, 600.0, "Coordinated"));
    t.add_row({"CLIP/Coordinated, logarithmic @600 W (obs. 5)", ">= 1.0x",
               format_double(log_low, 3) + "x"});
    t.add_row({"configuration-search cost", "<= 3 sample runs (CLIP)",
               "oracle needs " + std::to_string(search_cost_) +
                   " executions"});
    std::ostringstream os;
    t.print_csv(os);
    os << '\n';
    return os.str();
  }

  std::vector<Sweep> sweeps_;
  std::vector<runtime::ComparisonResult> results_;
  int search_cost_ = 0;
};

// ---------------------------------------------------------------- queues --

/// State both queue workloads share: the testbed with an exact-run cache,
/// a trained scheduler whose knowledge DB holds every app of the stream,
/// and the stream itself.
///
/// The stream does not follow the benchmark seed. Admission is chaotic in
/// the stream: a different order or population moves the schedule() calls
/// an iteration makes, and with them the throughput, by +-15 % (queue-mixed
/// over 19 seeds: 1.98-3.13 op/probe; queue-faults over five: 4515-8256
/// calls), wider than the bound a comparison between two commits can use.
/// Every seed therefore runs the stream of `kStreamSeed`, and the queue
/// outputs are pinned for every seed.
class QueueBase : public Workload {
 protected:
  static constexpr std::uint64_t kStreamSeed = 1;

  QueueBase(int jobs, int max_rigid_nodes)
      : ex_(bench::make_testbed()) {
    // Trained once the cache is attached, as the figure binaries do.
    ex_.set_exact_cache(&cache_);
    sched_.emplace(ex_, workloads::training_benchmarks());
    std::vector<workloads::WorkloadSignature> population =
        workloads::paper_benchmarks();
    for (auto& w : random_apps(derive(kStreamSeed, 2), kPopulation))
      population.push_back(std::move(w));
    jobs_ = make_stream(derive(kStreamSeed, 3), jobs, population,
                        max_rigid_nodes);
    // A long-lived site has characterised every app it runs.
    for (const auto& w : population)
      (void)sched_->schedule(w, Watts(kQueueBudgetW));
    opt_.cluster_budget = Watts(kQueueBudgetW);
  }

  [[nodiscard]] static std::map<std::string, double> sim_results(
      const runtime::QueueReport& r) {
    return {{"sim_makespan_s", r.makespan_s},
            {"sim_turnaround_s", r.mean_turnaround_s},
            {"sim_energy_mj", r.total_energy_j / 1e6}};
  }

  /// Every job ends in exactly one terminal state.
  void check_terminal(const runtime::QueueReport& r, const char* what,
                      std::vector<std::string>& errors) const {
    if (r.jobs.size() != jobs_.size()) {
      errors.push_back(std::string(what) + ": report has " +
                       std::to_string(r.jobs.size()) + " jobs, stream " +
                       std::to_string(jobs_.size()));
      return;
    }
    int failed = 0;
    for (const auto& j : r.jobs) {
      if (!j.completed) ++failed;
      if (j.completed && !(j.end_s >= j.start_s && j.start_s >= j.submit_s))
        errors.push_back(std::string(what) + ": job " + j.app +
                         " completed with end < start");
    }
    if (failed != r.jobs_failed)
      errors.push_back(std::string(what) + ": " + std::to_string(failed) +
                       " jobs not completed but jobs_failed = " +
                       std::to_string(r.jobs_failed));
  }

  sim::SimExecutor ex_;
  sim::ExactRunCache cache_;
  std::optional<core::ClipScheduler> sched_;
  std::vector<runtime::QueueJob> jobs_;
  runtime::QueueOptions opt_;
};

class QueueMixed final : public QueueBase {
 public:
  QueueMixed() : QueueBase(kMixedJobs, kNodes) {}

  void iterate(obs::ObsSession* s) override {
    const Attach attach(ex_, &*sched_, s);
    runtime::QueueEventLoop loop(ex_, *sched_, opt_, jobs_);
    loop.set_observer(s);
    const obs::ScopedSpan span(s, "bench.queue_run", "bench");
    report_ = loop.run();
  }

  [[nodiscard]] Outcome outcome() const override {
    Outcome out;
    for (const auto& j : report_.jobs) out.rows.push_back(row_of(j));
    out.rows.front() += ";" + summary_of(report_);
    out.program_failed = static_cast<std::size_t>(report_.jobs_failed);
    return out;
  }

  void check(std::vector<std::string>& errors) const override {
    check_terminal(report_, "queue-mixed", errors);
    if (report_.jobs_failed != 0)
      errors.push_back("queue-mixed: " + std::to_string(report_.jobs_failed) +
                       " jobs failed on a fault-free stream");
    // At every start, the slices and nodes of the jobs running then fit
    // the budget and the cluster.
    for (const auto& a : report_.jobs) {
      double watts = 0.0;
      int nodes = 0;
      for (const auto& b : report_.jobs)
        if (b.start_s <= a.start_s && a.start_s < b.end_s) {
          watts += b.budget_w;
          nodes += b.nodes;
        }
      // Tolerance: this sum runs in job order, the queue's in start order.
      if (watts > kQueueBudgetW * (1.0 + 1e-12) || nodes > kNodes)
        errors.push_back("queue-mixed: at t=" + hex(a.start_s) + " " +
                         hex(watts) + " W on " + std::to_string(nodes) +
                         " nodes exceeds the budget or the cluster");
    }
  }

  [[nodiscard]] std::map<std::string, double> results() const override {
    return sim_results(report_);
  }

 private:
  static constexpr int kNodes = 8;
  runtime::QueueReport report_;
};

class QueueFaults final : public QueueBase {
 public:
  explicit QueueFaults(std::uint64_t seed)
      : QueueBase(kFaultJobs, kNodes - kShape.crashes) {
    opt_.redist.enabled = true;
    // The plan spans the stream's fault-free horizon.
    runtime::QueueOptions fault_free = opt_;
    fault_free.redist.enabled = false;
    const double horizon =
        runtime::QueueEventLoop(ex_, *sched_, fault_free, jobs_)
            .run()
            .makespan_s;
    // Like the stream, the plan does not follow the benchmark seed.
    plan_ = fault::FaultPlan::random(kStreamSeed, kNodes, horizon, kShape);
    // The benchmark seed places the recovery cuts: one in the middle half
    // of each of kRecoveryCuts equal strata of the journal, so every seed
    // replays and resumes about the same share of the run.
    Rng rng(derive(seed, 5));
    for (int k = 0; k < kRecoveryCuts; ++k)
      cut_fracs_.push_back((k + rng.uniform(0.25, 0.75)) / kRecoveryCuts);
  }

  void iterate(obs::ObsSession* s) override {
    const Attach attach(ex_, &*sched_, s);
    journal_ = runtime::Journal{};
    timeline_ = std::make_unique<obs::Timeline>();
    {
      fault::FaultInjector injector(plan_, kNodes);
      runtime::QueueEventLoop loop(ex_, *sched_, opt_, jobs_);
      loop.set_fault_injector(&injector);
      loop.set_timeline(timeline_.get());
      loop.set_journal(&journal_);
      loop.set_observer(s);
      const obs::ScopedSpan span(s, "bench.queue_run", "bench");
      report_ = loop.run();
    }
    recoveries_.clear();
    recover_s_.clear();
    for (const double frac : cut_fracs_) {
      Recovery rec;
      rec.cut = static_cast<std::size_t>(
          frac * static_cast<double>(journal_.size()));
      // What survived the coordinator: the journal up to the cut.
      runtime::Journal survived;
      for (std::size_t i = 0; i < rec.cut; ++i)
        survived.append(journal_.records()[i].kind,
                        journal_.records()[i].payload);
      rec.timeline = std::make_unique<obs::Timeline>();
      fault::FaultInjector injector(plan_, kNodes);
      runtime::QueueEventLoop loop(ex_, *sched_, opt_, jobs_);
      loop.set_fault_injector(&injector);
      loop.set_timeline(rec.timeline.get());
      loop.set_observer(s);
      const auto t0 = std::chrono::steady_clock::now();
      {
        const obs::ScopedSpan span(s, "bench.queue_recover", "bench");
        rec.report = loop.recover(survived);
      }
      recover_s_.push_back(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
      rec.written = JournalStats::of(survived, rec.cut);
      recoveries_.push_back(std::move(rec));
    }
  }

  [[nodiscard]] Outcome outcome() const override {
    Outcome out;
    const auto add = [&](const runtime::QueueReport& r,
                         const obs::Timeline& timeline) {
      const std::size_t first = out.rows.size();
      for (const auto& j : r.jobs) out.rows.push_back(row_of(j));
      out.rows[first] += ";" + summary_of(r) + ";timeline=" +
                         fnv1a_hex({timeline.to_csv_string()});
      out.program_failed += static_cast<std::size_t>(r.jobs_failed);
    };
    add(report_, *timeline_);
    for (const auto& rec : recoveries_) add(rec.report, *rec.timeline);
    return out;
  }

  void check(std::vector<std::string>& errors) const override {
    check_terminal(report_, "queue-faults run", errors);
    const std::string csv = timeline_->to_csv_string();
    const std::string summary = summary_of(report_);
    for (const auto& rec : recoveries_) {
      const std::string what =
          "queue-faults recovery from record " + std::to_string(rec.cut);
      check_terminal(rec.report, what.c_str(), errors);
      bool same = summary_of(rec.report) == summary &&
                  rec.report.jobs.size() == report_.jobs.size();
      for (std::size_t j = 0; same && j < report_.jobs.size(); ++j)
        same = row_of(rec.report.jobs[j]) == row_of(report_.jobs[j]);
      if (!same) errors.push_back(what + ": report differs from the run");
      if (rec.timeline->to_csv_string() != csv)
        errors.push_back(what + ": timeline differs from the run");
    }
  }

  [[nodiscard]] std::map<std::string, double> results() const override {
    auto m = sim_results(report_);
    m["violation_s"] = report_.violation_s;
    return m;
  }

  [[nodiscard]] std::vector<double> recover_times() const override {
    return recover_s_;
  }

  [[nodiscard]] std::map<std::string, double> layer_extras() const override {
    JournalStats all = JournalStats::of(journal_, 0);
    for (const auto& rec : recoveries_) {
      all.records += rec.written.records;
      all.snapshots += rec.written.snapshots;
      all.bytes += rec.written.bytes;
    }
    const std::string csv = timeline_->to_csv_string();
    const auto lines = std::count(csv.begin(), csv.end(), '\n');
    return {{"journal_records", all.records},
            {"journal_snapshots", all.snapshots},
            {"journal_kb", all.bytes / 1024.0},
            {"timeline_points", static_cast<double>(lines - 1)}};  // header
  }

 private:
  static constexpr int kNodes = 8;
  // Every fault kind. Rigid jobs ask for at most kNodes - crashes nodes, so
  // each still fits the surviving cluster and no job is failed for good.
  static constexpr fault::FaultPlanShape kShape{
      .crashes = 2,
      .degrades = 4,
      .meter_faults = 8,
      .cap_violations = 4,
      .meter_blackouts = 2,
      .budget_cuts = 2,
      .min_at_s = 0.0};

  /// Records a journal holds from index `from` on.
  struct JournalStats {
    double records = 0.0;
    double snapshots = 0.0;
    double bytes = 0.0;  ///< kind and payload
    static JournalStats of(const runtime::Journal& j, std::size_t from) {
      JournalStats st;
      for (std::size_t i = from; i < j.size(); ++i) {
        const runtime::JournalRecord& r = j.records()[i];
        st.records += 1.0;
        st.snapshots += r.kind == "snapshot" ? 1.0 : 0.0;
        st.bytes += static_cast<double>(r.kind.size() + r.payload.size());
      }
      return st;
    }
  };

  struct Recovery {
    std::size_t cut = 0;
    JournalStats written;  ///< records the recovery appended after the cut
    std::unique_ptr<obs::Timeline> timeline;
    runtime::QueueReport report;
  };

  fault::FaultPlan plan_;
  std::vector<double> cut_fracs_;
  runtime::Journal journal_;
  std::unique_ptr<obs::Timeline> timeline_;
  runtime::QueueReport report_;
  std::vector<Recovery> recoveries_;
  std::vector<double> recover_s_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "paper-eval") return std::make_unique<PaperEval>(seed);
  if (name == "queue-mixed") return std::make_unique<QueueMixed>();
  if (name == "queue-faults") return std::make_unique<QueueFaults>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::string fnv1a_hex(const std::vector<std::string>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& r : rows) {
    for (const unsigned char c : r) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= '\n';
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

const char* golden_hash(const std::string& workload, std::uint64_t seed) {
  // The queue outputs do not depend on the seed: a recovery must reproduce
  // the run, and the stream is fixed (QueueBase).
  if (workload == "queue-mixed") return "3530ab640f1cd822";
  if (workload == "queue-faults") return "3ddac4bc77596457";
  if (workload == "paper-eval" && seed == 1) return "781597b7e8fe541c";
  return nullptr;
}

}  // namespace perfbench

// Runtime power redistribution vs static CLIP allocation, across the shared
// resilience scenario catalog (bench/resilience_scenarios.hpp). Each scenario
// runs the Table II job stream through the resilient queue twice — once with
// launch-time allocation only, once with the redistribution loop enabled
// (docs/power-redistribution.md) — against byte-identical FaultPlans, and
// reports the makespan delta plus the redistribution activity (claw-backs,
// re-grants, PKG→DRAM shifts) that bought it. The ground-truth
// violation-seconds column shows the safety half of the contract: clawing
// and re-granting watts never pushes the true cluster draw above the bound
// any longer than static allocation does. The bench exits 1 unless
// redistribution improves the makespan in at least four scenarios and
// regresses the violation seconds in none; a ctest entry runs it.
#include <iostream>

#include "bench_common.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "resilience_scenarios.hpp"
#include "runtime/queue.hpp"
#include "util/strings.hpp"

using namespace clip;

int main(int argc, char** argv) {
  const bench::BenchContext ctx(argc, argv);

  sim::SimExecutor ex = bench::make_exact_testbed();
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  std::vector<runtime::QueueJob> jobs;
  for (const auto& w : workloads::paper_benchmarks()) jobs.push_back({w, 0});
  const double budget = 700.0;

  runtime::QueueOptions stat_opt;
  stat_opt.cluster_budget = Watts(budget);
  runtime::QueueOptions redist_opt = stat_opt;
  redist_opt.redist.enabled = true;

  // Warm the knowledge DB so both arms schedule from cached profiles and
  // mid-run re-evaluations carry no phantom profiling cost.
  const double horizon =
      runtime::QueueEventLoop(ex, sched, stat_opt, jobs).run().makespan_s;

  Table t({"scenario", "static (s)", "redist (s)", "delta (s)", "viol (s)",
           "claws", "regrants", "shifts", "reclaimed (W)", "granted (W)"});
  t.set_title("Runtime power redistribution vs static allocation under a " +
              format_double(budget, 0) + " W bound");

  const auto scenarios = bench::make_resilience_scenarios(horizon);
  int improved = 0;
  int violation_regressions = 0;
  for (const auto& s : scenarios) {
    runtime::QueueEventLoop stat_queue(ex, sched, stat_opt, jobs);
    fault::FaultInjector stat_injector(s.plan, ex.spec().nodes);
    if (!s.plan.empty()) stat_queue.set_fault_injector(&stat_injector);
    const auto stat = stat_queue.run();

    runtime::QueueEventLoop redist_queue(ex, sched, redist_opt, jobs);
    fault::FaultInjector redist_injector(s.plan, ex.spec().nodes);
    if (!s.plan.empty()) redist_queue.set_fault_injector(&redist_injector);
    const auto redist = redist_queue.run();

    if (redist.makespan_s < stat.makespan_s) ++improved;
    if (redist.violation_s > stat.violation_s + 1e-9)
      ++violation_regressions;
    t.add_row({s.name, format_double(stat.makespan_s, 1),
               format_double(redist.makespan_s, 1),
               format_double(stat.makespan_s - redist.makespan_s, 1),
               format_double(redist.violation_s, 2),
               std::to_string(redist.redist_claw_backs),
               std::to_string(redist.redist_regrants),
               std::to_string(redist.redist_subsystem_shifts),
               format_double(redist.redist_reclaimed_w, 0),
               format_double(redist.redist_granted_w, 0)});
  }
  ctx.print(t);
  std::cout << "Redistribution improved the makespan in " << improved
            << " of " << scenarios.size() << " scenarios with "
            << violation_regressions
            << " violation-seconds regressions: claw-backs only reclaim "
               "watts the caps guarantee are not being drawn, so the true "
               "cluster draw never rises above what static allocation "
               "already admitted.\n";

  constexpr int kMinImproved = 4;
  const bool pass = improved >= kMinImproved && violation_regressions == 0;
  std::cerr << (pass ? "pass" : "FAIL") << ": makespan improved in "
            << improved << " of " << scenarios.size() << " scenarios (floor "
            << kMinImproved << "), " << violation_regressions
            << " violation-seconds regressions (bound 0)\n";
  return pass ? 0 : 1;
}

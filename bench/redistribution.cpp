// Runtime power redistribution vs static CLIP allocation, across the shared
// resilience scenario catalog (bench/resilience_scenarios.hpp). Each scenario
// runs the Table II job stream through the resilient queue twice — once with
// launch-time allocation only, once with the redistribution loop enabled
// (docs/power-redistribution.md) — against byte-identical FaultPlans, and
// reports the makespan delta plus the redistribution activity (claw-backs,
// re-grants, PKG→DRAM shifts) that bought it. The ground-truth
// violation-seconds column shows the safety half of the contract: clawing
// and re-granting watts never pushes the true cluster draw above the bound
// any longer than static allocation does. `--json` additionally writes
// BENCH_redist.json (schema in bench/README.md), which
// scripts/regression_gate.sh gates on.
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "resilience_scenarios.hpp"
#include "runtime/queue.hpp"
#include "util/strings.hpp"

using namespace clip;

namespace {

std::string json_row(const bench::Scenario& s,
                     const runtime::QueueReport& stat,
                     const runtime::QueueReport& redist) {
  std::ostringstream os;
  os << "    {\"scenario\": \"" << s.name << "\", \"faults\": " << s.plan.size()
     << ", \"static_makespan_s\": " << format_double(stat.makespan_s, 3)
     << ", \"redist_makespan_s\": " << format_double(redist.makespan_s, 3)
     << ", \"makespan_delta_s\": "
     << format_double(stat.makespan_s - redist.makespan_s, 3)
     << ", \"static_violation_s\": " << format_double(stat.violation_s, 3)
     << ", \"redist_violation_s\": " << format_double(redist.violation_s, 3)
     << ", \"completed\": " << redist.jobs_completed()
     << ", \"claw_backs\": " << redist.redist_claw_backs
     << ", \"regrants\": " << redist.redist_regrants
     << ", \"subsystem_shifts\": " << redist.redist_subsystem_shifts
     << ", \"regrants_rejected\": " << redist.redist_regrants_rejected
     << ", \"reclaimed_w\": " << format_double(redist.redist_reclaimed_w, 1)
     << ", \"granted_w\": " << format_double(redist.redist_granted_w, 1)
     << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchContext ctx(argc, argv);

  sim::SimExecutor ex = bench::make_exact_testbed();
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  const auto jobs = workloads::paper_benchmarks();
  const double budget = 700.0;

  runtime::QueueOptions stat_opt;
  stat_opt.cluster_budget = Watts(budget);
  runtime::QueueOptions redist_opt = stat_opt;
  redist_opt.redist.enabled = true;

  // Warm the knowledge DB so both arms schedule from cached profiles and
  // mid-run re-evaluations carry no phantom profiling cost.
  const double horizon =
      runtime::PowerAwareJobQueue(ex, sched, stat_opt).run(jobs).makespan_s;

  Table t({"scenario", "static (s)", "redist (s)", "delta (s)", "viol (s)",
           "claws", "regrants", "shifts", "reclaimed (W)", "granted (W)"});
  t.set_title("Runtime power redistribution vs static allocation under a " +
              format_double(budget, 0) + " W bound");

  std::vector<std::string> json_rows;
  int improved = 0;
  int violation_regressions = 0;
  for (const auto& s : bench::make_resilience_scenarios(horizon)) {
    runtime::PowerAwareJobQueue stat_queue(ex, sched, stat_opt);
    fault::FaultInjector stat_injector(s.plan, ex.spec().nodes);
    if (!s.plan.empty()) stat_queue.set_fault_injector(&stat_injector);
    const auto stat = stat_queue.run(jobs);

    runtime::PowerAwareJobQueue redist_queue(ex, sched, redist_opt);
    fault::FaultInjector redist_injector(s.plan, ex.spec().nodes);
    if (!s.plan.empty()) redist_queue.set_fault_injector(&redist_injector);
    const auto redist = redist_queue.run(jobs);

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
    json_rows.push_back(json_row(s, stat, redist));
  }
  ctx.print(t);
  std::cout << "Redistribution improved the makespan in " << improved
            << " of " << json_rows.size() << " scenarios with "
            << violation_regressions
            << " violation-seconds regressions: claw-backs only reclaim "
               "watts the caps guarantee are not being drawn, so the true "
               "cluster draw never rises above what static allocation "
               "already admitted.\n";

  if (ctx.json) {
    std::ofstream os("BENCH_redist.json");
    os << "{\n  \"budget_w\": " << format_double(budget, 0)
       << ",\n  \"jobs\": " << jobs.size()
       << ",\n  \"scenarios_improved\": " << improved
       << ",\n  \"violation_regressions\": " << violation_regressions
       << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i)
      os << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    os << "  ]\n}\n";
    std::cerr << "wrote BENCH_redist.json\n";
  }
  return 0;
}

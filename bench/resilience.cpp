// Resilience under a power bound: the Table II suite as a job stream while
// the substrate misbehaves. Each scenario replays a deterministic FaultPlan
// against the resilient queue (docs/robustness.md) and reports what the
// cluster salvaged: jobs completed, crash retries, guard claw-backs,
// violation-seconds above the budget, and makespan inflation relative to the
// fault-free run. `--json` additionally writes BENCH_resilience.json.
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

using bench::Scenario;

std::string json_row(const Scenario& s, const runtime::QueueReport& r,
                     double baseline_makespan) {
  std::ostringstream os;
  os << "    {\"scenario\": \"" << s.name << "\", \"faults\": " << s.plan.size()
     << ", \"jobs\": " << r.jobs.size()
     << ", \"completed\": " << r.jobs_completed()
     << ", \"failed\": " << r.jobs_failed << ", \"retries\": " << r.retries
     << ", \"crashed_nodes\": " << r.crashed_nodes.size()
     << ", \"caps_reprogrammed\": " << r.caps_reprogrammed
     << ", \"violation_s\": " << format_double(r.violation_s, 3)
     << ", \"violation_ws\": " << format_double(r.violation_ws, 1)
     << ", \"meter_reads_rejected\": " << r.meter_reads_rejected
     << ", \"makespan_s\": " << format_double(r.makespan_s, 3)
     << ", \"makespan_inflation\": "
     << format_double(r.makespan_s / baseline_makespan, 4) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchContext ctx(argc, argv);

  sim::SimExecutor ex = bench::make_exact_testbed();
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  const auto jobs = workloads::paper_benchmarks();
  const double budget = 700.0;

  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(budget);

  // Warm the knowledge DB so every scenario schedules from cached profiles
  // and the fault-free makespan is a fair inflation reference.
  const double horizon =
      runtime::PowerAwareJobQueue(ex, sched, opt).run(jobs).makespan_s;

  Table t({"scenario", "faults", "jobs", "completed", "failed", "retries",
           "caps re-capped", "violation (s)", "violation (Ws)",
           "makespan (s)", "inflation"});
  t.set_title("Resilience under a " + format_double(budget, 0) +
              " W bound: Table II suite vs injected faults");

  std::vector<std::string> json_rows;
  double baseline_makespan = horizon;
  for (const auto& s : bench::make_resilience_scenarios(horizon)) {
    runtime::PowerAwareJobQueue queue(ex, sched, opt);
    fault::FaultInjector injector(s.plan, ex.spec().nodes);
    if (!s.plan.empty()) queue.set_fault_injector(&injector);
    const auto r = queue.run(jobs);
    if (s.name == "fault-free") baseline_makespan = r.makespan_s;
    t.add_row({s.name, std::to_string(s.plan.size()),
               std::to_string(r.jobs.size()),
               std::to_string(r.jobs_completed()),
               std::to_string(r.jobs_failed), std::to_string(r.retries),
               std::to_string(r.caps_reprogrammed),
               format_double(r.violation_s, 2),
               format_double(r.violation_ws, 0),
               format_double(r.makespan_s, 1),
               format_double(r.makespan_s / baseline_makespan, 3) + "x"});
    json_rows.push_back(json_row(s, r, baseline_makespan));
  }
  ctx.print(t);
  std::cout
      << "Crashes cost retries, not jobs: the queue reclaims the dead "
         "node's watts and requeues with backoff, so the suite still "
         "finishes. The budget guard filters implausible meter readings "
         "(no false claw-backs under the meter storm) and bounds a cap "
         "violation to roughly its reaction latency instead of the full "
         "fault window.\n";

  if (ctx.json) {
    std::ofstream os("BENCH_resilience.json");
    os << "{\n  \"budget_w\": " << format_double(budget, 0)
       << ",\n  \"jobs\": " << jobs.size() << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i)
      os << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    os << "  ]\n}\n";
    std::cerr << "wrote BENCH_resilience.json\n";
  }
  return 0;
}

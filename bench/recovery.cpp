// Crash consistency of the journaled event loop (docs/robustness.md). For
// every scenario in the shared recovery catalog (resilience faults plus the
// degraded operating modes) the bench records a journaled reference run,
// kills the coordinator at five boundaries (start, quartiles, end) and
// recovers from the truncated journal; a recovery "fails" when the resumed
// run is not byte-identical to the reference (report fingerprint + timeline
// CSV). It then prices the journal in heap allocations: the
// ext_queue_throughput budget sweep (FCFS + backfill at five budgets) runs
// journal-off and journal-on, and the difference is the journal's cost. The
// bench exits 1 when a kill point fails to recover or that cost is above
// its pin; ctest pins its --csv output (BenchGolden.recovery).
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>

#include "alloc_count.hpp"
#include "bench_common.hpp"
#include "core/scheduler.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/timeline.hpp"
#include "resilience_scenarios.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "util/strings.hpp"

using namespace clip;

namespace {

/// Bit-exact textual fingerprint of one run: hexfloat report scalars, the
/// per-job table, and the whole timeline CSV.
std::string fingerprint(const runtime::QueueReport& r,
                        const obs::Timeline& timeline) {
  std::ostringstream os;
  os << std::hexfloat << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.retries << '|' << r.jobs_failed << '|'
     << r.caps_reprogrammed << '|' << r.violation_s << '|' << r.violation_ws;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes << ','
       << j.budget_w << ',' << j.attempts << ',' << j.completed;
  os << '\n' << timeline.to_csv_string();
  return os.str();
}

struct RunResult {
  runtime::QueueReport report;
  std::string fp;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchContext ctx(argc, argv);

  sim::SimExecutor ex = bench::make_exact_testbed();
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  const auto apps = workloads::paper_benchmarks();
  const double budget = 700.0;

  runtime::QueueOptions opt;
  opt.cluster_budget = Watts(budget);
  std::vector<runtime::QueueJob> jobs;
  for (const auto& a : apps) jobs.push_back({a, 0});

  // Warm the knowledge DB so the reference run and every recovery schedule
  // from identical cached profiles (profiling cost is billed once).
  const double horizon =
      runtime::QueueEventLoop(ex, sched, opt, jobs).run().makespan_s;

  const auto drive = [&](const fault::FaultPlan& plan,
                         runtime::Journal* journal,
                         runtime::Journal* resume) {
    runtime::QueueEventLoop loop(ex, sched, opt, jobs);
    obs::Timeline timeline;
    loop.set_timeline(&timeline);
    std::optional<fault::FaultInjector> injector;
    if (!plan.empty()) {
      injector.emplace(plan, ex.spec().nodes);
      loop.set_fault_injector(&*injector);
    }
    if (journal != nullptr) loop.set_journal(journal);
    RunResult out;
    out.report = resume != nullptr ? loop.recover(*resume) : loop.run();
    out.fp = fingerprint(out.report, timeline);
    return out;
  };

  Table t({"scenario", "faults", "records", "snapshots", "kills",
           "recovered", "failures", "completed", "makespan (s)"});
  t.set_title("Crash consistency at a " + format_double(budget, 0) +
              " W bound: kill + recover per scenario");

  int total_kills = 0;
  int total_failures = 0;
  for (const auto& s : bench::make_recovery_scenarios(horizon)) {
    // Dense snapshots here (the overhead sweep below keeps the default
    // cadence): the kill sweep must exercise mid-run restore + replay, not
    // just the restart path.
    runtime::Journal reference(runtime::JournalOptions{.snapshot_every = 8});
    const RunResult ref = drive(s.plan, &reference, nullptr);

    // Start, quartiles and end of the journal: the no-snapshot restart
    // path, mid-run snapshot restores and the nothing-to-replay case.
    std::vector<std::size_t> kills = {0, reference.size() / 4,
                                      reference.size() / 2,
                                      3 * reference.size() / 4,
                                      reference.size()};
    kills.erase(std::unique(kills.begin(), kills.end()), kills.end());

    int failures = 0;
    for (const std::size_t kill : kills) {
      runtime::Journal j = reference;
      j.truncate(kill);
      const RunResult rec = drive(s.plan, nullptr, &j);
      failures += rec.fp == ref.fp ? 0 : 1;
    }
    total_kills += static_cast<int>(kills.size());
    total_failures += failures;

    std::size_t snapshots = 0;
    for (const auto& r : reference.records())
      snapshots += r.kind == "snapshot" ? 1 : 0;
    t.add_row({s.name, std::to_string(s.plan.size()),
               std::to_string(reference.size()), std::to_string(snapshots),
               std::to_string(kills.size()),
               std::to_string(kills.size() - static_cast<std::size_t>(failures)),
               std::to_string(failures),
               std::to_string(ref.report.jobs_completed()),
               format_double(ref.report.makespan_s, 1)});
  }
  ctx.print(t);

  // Journal cost on the ext_queue_throughput workload, journal-off vs
  // journal-on. Each sweep repeats what that bench binary does per process —
  // a fresh scheduler characterizes the suite, then serial + FCFS + backfill
  // runs at five budgets — so the journal is priced against the whole
  // coordinator duty cycle, not just the inner event loop.
  std::size_t records = 0;  // of the last sweep run: journal-on
  const auto sweep = [&](bool journaled) {
    records = 0;
    core::ClipScheduler fresh(ex, workloads::training_benchmarks());
    for (const double b : {500.0, 600.0, 800.0, 1000.0, 1300.0}) {
      (void)runtime::run_serially(ex, fresh, Watts(b), apps);
      runtime::QueueOptions qo;
      qo.cluster_budget = Watts(b);
      for (const bool backfill : {false, true}) {
        qo.backfill = backfill;
        runtime::QueueEventLoop queue(ex, fresh, qo, jobs);
        runtime::Journal journal;
        if (journaled) queue.set_journal(&journal);
        (void)queue.run();
        records += journal.size();
      }
    }
  };
  const std::int64_t allocations = bench::extra_allocations(sweep);

  std::cout << "Every kill point recovers byte-identically ("
            << total_kills - total_failures << "/" << total_kills
            << " across the catalog): fold every snapshot's deltas in "
               "order, restore the latest, replay the suffix, resume. "
               "Journaling the ext_queue_throughput sweep costs "
            << allocations << " heap allocations for its " << records
            << " records.\n";

  // The journal's allocations over the sweep when the pin was set. A change
  // that moves the count, either way, re-pins it and says why.
  constexpr std::int64_t kMaxJournalAllocations = 292;
  const bool pass =
      total_failures == 0 && allocations <= kMaxJournalAllocations;
  std::cerr << (pass ? "pass" : "FAIL") << ": "
            << total_kills - total_failures << "/" << total_kills
            << " kill points recovered, journal " << allocations
            << " allocations for " << records << " records (pin "
            << kMaxJournalAllocations << ")\n";
  return pass ? 0 : 1;
}

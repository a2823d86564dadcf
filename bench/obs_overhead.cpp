// Cost of the live observability plane (docs/observability.md). Two claims:
//
//   Purity — attaching *everything* (ObsSession + MemorySink, Timeline,
//   Journal, per-job trace contexts, the loop-owned telemetry server, an
//   SLO pass over the recorded timeline) leaves the queue's report
//   byte-identical to a bare run: observers never steer decisions. The
//   bench also probes all four HTTP endpoints of the live server.
//
//   Cost — the queue duty cycle with telemetry + tracing on vs off. The
//   paper job mix is repeated 10x so one server instance serves a run with
//   hundreds of scheduling decisions (as in production, where the server
//   lives for an hours-long run) and its one-time socket set-up amortizes;
//   the median paired CPU-time ratio is reported as overhead_pct.
//
// `--json` writes BENCH_obs.json (schema in bench/README.md), which
// `scripts/regression_gate.sh --obs` gates on: identical reports, 4/4
// endpoints, overhead within its bound (default 3%).
#include <algorithm>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scheduler.hpp"
#include "obs/alerts.hpp"
#include "obs/session.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "runtime/queue.hpp"
#include "util/strings.hpp"

using namespace clip;

namespace {

/// Bit-exact textual fingerprint of one run: hexfloat report scalars plus
/// the per-job table. Trace ids are deliberately excluded — the live side
/// mints them, the bare side does not, and the contract under test is that
/// *decisions* (placement, caps, timing) are unchanged.
std::string fingerprint(const runtime::QueueReport& r) {
  std::ostringstream os;
  os << std::hexfloat << r.makespan_s << '|' << r.mean_turnaround_s << '|'
     << r.total_energy_j << '|' << r.retries << '|' << r.jobs_failed << '|'
     << r.caps_reprogrammed << '|' << r.violation_s << '|' << r.violation_ws;
  for (const auto& j : r.jobs)
    os << '\n'
       << j.app << ',' << j.start_s << ',' << j.end_s << ',' << j.nodes << ','
       << j.budget_w << ',' << j.attempts << ',' << j.completed;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchContext ctx(argc, argv);

  sim::SimExecutor ex = bench::make_exact_testbed();
  core::ClipScheduler sched(ex, workloads::training_benchmarks());
  const auto apps = workloads::paper_benchmarks();
  const double budget = 700.0;

  runtime::QueueOptions bare;
  bare.cluster_budget = Watts(budget);
  // 10x the paper mix: a long-lived run whose decision count dwarfs the
  // plane's per-run setup, so the ratio below converges to the marginal
  // per-decision cost rather than the server's set-up constant.
  std::vector<runtime::QueueJob> jobs;
  for (int rep = 0; rep < 10; ++rep)
    for (const auto& a : apps) jobs.push_back({a, 0});

  runtime::QueueOptions live = bare;
  live.trace.enabled = true;
  live.telemetry_port = 0;  // ephemeral: read back via telemetry_server()

  // Warm the knowledge DB so both sides schedule from identical cached
  // profiles and neither sweep pays the one-time profiling cost.
  (void)runtime::PowerAwareJobQueue(ex, sched, bare).run(jobs);

  // One queue pass with only the options toggled (no attachments): exactly
  // the "telemetry + tracing on vs off" duty cycle the gate bounds.
  const auto sweep = [&](bool plane) {
    runtime::QueueEventLoop loop(ex, sched, plane ? live : bare, jobs);
    return loop.run();
  };

  // Purity: the *fully* instrumented run — every attachment plus the SLO
  // pass — must make byte-for-byte the decisions the bare run makes.
  const std::string bare_fp = fingerprint(sweep(false));
  std::size_t alerts_fired = 0;
  std::string live_fp;
  int endpoints_ok = 0;
  {
    runtime::QueueEventLoop loop(ex, sched, live, jobs);
    obs::ObsSession session;
    obs::MemorySink sink;
    obs::Timeline timeline;
    runtime::Journal journal;
    session.set_sink(&sink);
    loop.set_observer(&session);
    loop.set_timeline(&timeline);
    loop.set_journal(&journal);
    live_fp = fingerprint(loop.run());
    const obs::AlertEngine engine(obs::AlertEngine::default_rules());
    for (const auto& o : engine.evaluate(timeline, &session.metrics()))
      alerts_fired += o.fired ? 1 : 0;
    // Endpoint probe: the loop owns the server until destruction, so the
    // finished run still answers one GET per endpoint.
    const obs::TelemetryServer* server = loop.telemetry_server();
    if (server != nullptr && server->port() > 0) {
      const auto ok = [&](const std::string& target,
                          const std::string& expect) {
        const std::string body = obs::http_body(
            obs::http_get("127.0.0.1", server->port(), target));
        return body.find(expect) != std::string::npos ? 1 : 0;
      };
      endpoints_ok += ok("/metrics", "queue_jobs_started");
      endpoints_ok += ok("/healthz", "ok mode=");
      endpoints_ok += ok("/status", "\"run_active\":false");
      endpoints_ok += ok("/timeline?series=queue.depth", "queue.depth");
    }
  }
  const bool identical = bare_fp == live_fp;

  const auto cpu_ms = [] {
    // Process CPU time, not steady_clock: co-tenant preemption inflates
    // wall-clock by more than the plane costs, and CPU time also charges
    // the accept thread's (idle) cycles to the side that owns them.
    timespec ts;
    // clip-lint: allow(D1) prices the obs plane in real CPU ms; a simulated clock has nothing to say here
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  // Same robust estimator as bench/recovery.cpp: adjacent off/on batch
  // pairs (host drift cancels within a pair), alternating order (the
  // second batch of a pair runs measurably slower), median of per-pair
  // ratios (a preempted pair is an outlier the median ignores). Escalate
  // sampling only while the estimate sits near the gate's 3% bound.
  constexpr int kSweepsPerSample = 4;
  constexpr int kPairs = 12;
  constexpr int kMaxRounds = 4;
  const auto time_one = [&](bool plane) {
    const double t0 = cpu_ms();
    for (int i = 0; i < kSweepsPerSample; ++i) (void)sweep(plane);
    return (cpu_ms() - t0) / kSweepsPerSample;
  };
  (void)sweep(false);  // warm both paths before timing either side
  (void)sweep(true);
  double off_ms = 0.0;
  double on_ms = 0.0;
  std::vector<double> ratios;
  const auto median_pct = [](std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double m = v.size() % 2 == 1
                         ? v[v.size() / 2]
                         : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    return (m - 1.0) * 100.0;
  };
  for (int round = 0; round < kMaxRounds; ++round) {
    for (int rep = 0; rep < kPairs; ++rep) {
      const bool off_first = (rep + round * kPairs) % 2 == 0;
      const double first = time_one(!off_first);
      const double second = time_one(off_first);
      const double off = off_first ? first : second;
      const double on = off_first ? second : first;
      off_ms = ratios.empty() ? off : std::min(off_ms, off);
      on_ms = ratios.empty() ? on : std::min(on_ms, on);
      if (off > 0.0) ratios.push_back(on / off);
    }
    if (median_pct(ratios) <= 2.0) break;
  }
  const double overhead_pct = std::max(0.0, median_pct(ratios));

  Table t({"check", "result"});
  t.set_title("Live observability plane at a " + format_double(budget, 0) +
              " W bound: purity and cost");
  t.add_row({"reports byte-identical", identical ? "yes" : "NO"});
  t.add_row({"endpoints responding", std::to_string(endpoints_ok) + "/4"});
  t.add_row({"alert rules evaluated",
             std::to_string(obs::AlertEngine::default_rules().size())});
  t.add_row({"alerts fired", std::to_string(alerts_fired)});
  t.add_row({"jobs per run", std::to_string(jobs.size())});
  t.add_row({"plane-off run (ms)", format_double(off_ms, 1)});
  t.add_row({"plane-on run (ms)", format_double(on_ms, 1)});
  t.add_row({"duty-cycle overhead", format_double(overhead_pct, 1) + "%"});
  ctx.print(t);

  std::cout << "Full instrumentation leaves the schedule byte-identical; "
               "telemetry + tracing cost "
            << format_double(overhead_pct, 1) << "% of the queue duty cycle ("
            << format_double(off_ms, 1) << " -> " << format_double(on_ms, 1)
            << " ms per " << jobs.size() << "-job run).\n";

  if (ctx.json) {
    std::ofstream os("BENCH_obs.json");
    os << "{\n  \"budget_w\": " << format_double(budget, 0)
       << ",\n  \"jobs\": " << jobs.size()
       << ",\n  \"identical_reports\": " << (identical ? 1 : 0)
       << ",\n  \"endpoints_ok\": " << endpoints_ok
       << ",\n  \"alert_rules\": " << obs::AlertEngine::default_rules().size()
       << ",\n  \"alerts_fired\": " << alerts_fired
       << ",\n  \"plane_off_ms\": " << format_double(off_ms, 1)
       << ",\n  \"plane_on_ms\": " << format_double(on_ms, 1)
       << ",\n  \"overhead_pct\": " << static_cast<int>(overhead_pct)
       << "\n}\n";
    std::cerr << "wrote BENCH_obs.json\n";
  }
  return identical && endpoints_ok == 4 ? 0 : 1;
}

// clipctl — the command-line front door of the framework (the paper's
// "user-friendly convenient power-bounded computing environment", §IV-A).
//
//   clipctl apps                         list the known applications
//   clipctl profile <app>                smart-profile + classify
//   clipctl schedule <app> <watts>       print the CLIP decision
//   clipctl script <app> <watts>         print the generated launch script
//   clipctl run <app> <watts>            schedule + execute + report
//   clipctl compare <app> <watts>        all methods side by side
//   clipctl trace <app> <watts> [out]    schedule + execute under the obs
//                                        layer: dumps a Chrome-trace JSON
//                                        (Perfetto-loadable, spans for every
//                                        pipeline stage + per-node power
//                                        counter tracks) and prints the
//                                        metrics summary table
//   clipctl metrics <app> <watts>        schedule + execute, then dump the
//                                        metrics registry in Prometheus text
//                                        exposition format
//   clipctl record <watts> <out-dir>     run the Table II job mix through the
//                    [--trace]           power-aware queue with the flight
//                                        recorder attached; persist the run
//                                        record (timeline/jobs/summary/spans
//                                        CSVs + metrics.prom) into <out-dir>.
//                                        --trace mints a causal trace id per
//                                        job (jobs.csv gains a trace_id
//                                        column; journal/timeline entries
//                                        carry trace= tokens)
//   clipctl report <run-dir>             render a recorded run as a
//                    [--json|--job N]    deterministic Markdown (or JSON)
//                                        report; --job N prints one job's
//                                        causal story instead (admit, launch,
//                                        claws, crashes, recovery replay)
//   clipctl journal <run-dir|file>       inspect a write-ahead journal:
//                                        salvage status, record/snapshot
//                                        counts, per-kind totals
//   clipctl recover <watts> <run-dir>    resume a crash-interrupted record
//                    [--trace]           run from its journal (fold its
//                                        snapshots + replay) and rewrite the
//                                        completed run record (--trace must
//                                        match the recording run's setting)
//   clipctl serve <watts> [--port N]     run the job mix with the read-only
//                    [--trace]           telemetry server attached, then keep
//                                        serving /metrics /healthz /status
//                                        /timeline until stdin closes
//   clipctl top <port> [--once]          live terminal view polling a serve
//                                        instance's /status endpoint
//   clipctl alerts <run-dir> [--json]    evaluate the SLO/alert rule catalog
//                    [--rules FILE]      over a recorded run's flight
//                                        recorder; exit 0 = quiet, 1 = fired
//                                        (a CI step can gate on it), 2 = error
//
// Applications are named as in Table II (e.g. SP-MZ, TeaLeaf, CoMD).
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "baselines/all_in.hpp"
#include "baselines/coordinated.hpp"
#include "baselines/lower_limit.hpp"
#include "core/scheduler.hpp"
#include "obs/obs.hpp"
#include "runtime/journal.hpp"
#include "runtime/launcher.hpp"
#include "runtime/queue.hpp"
#include "runtime/run_report.hpp"
#include "runtime/telemetry.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads/catalog.hpp"

// Journal::load reports salvage; the journal/recover subcommands must
// surface a torn tail to the operator rather than drop it on the floor.
// clip-lint: fallible(load)

using namespace clip;

namespace {

int usage() {
  std::cerr << "usage: clipctl apps\n"
               "       clipctl profile  <app>\n"
               "       clipctl schedule <app> <watts>\n"
               "       clipctl script   <app> <watts>\n"
               "       clipctl run      <app> <watts>\n"
               "       clipctl compare  <app> <watts>\n"
               "       clipctl trace    <app> <watts> [out.json]\n"
               "       clipctl metrics  <app> <watts>\n"
               "       clipctl record   <watts> <out-dir> [--trace]\n"
               "       clipctl report   <run-dir> [--json|--job N]\n"
               "       clipctl journal  <run-dir|journal-file>\n"
               "       clipctl recover  <watts> <run-dir> [--trace]\n"
               "       clipctl serve    <watts> [--port N] [--trace]\n"
               "       clipctl top      <port> [--once]\n"
               "       clipctl alerts   <run-dir> [--json] [--rules FILE]\n";
  return 2;
}

workloads::WorkloadSignature lookup_or_die(const std::string& name) {
  if (auto w = workloads::find_benchmark(name)) return *w;
  std::cerr << "unknown application '" << name
            << "' — try `clipctl apps`\n";
  std::exit(2);
}

// Numeric arguments are read whole (util/parse.hpp): "700W", "80abc" or
// "-1" is a usage error, never a prefix or a wrapped value.

double watts_or_die(const std::string& arg) {
  const auto v = parse_whole<double>(arg);
  if (v && std::isfinite(*v) && *v > 0.0) return *v;
  std::cerr << "'" << arg << "' is not a positive wattage\n";
  std::exit(usage());
}

/// A TCP port argument: a whole number in 1..65535.
std::optional<int> port_arg(const std::string& arg) {
  const auto port = parse_whole<int>(arg);
  if (port && *port >= 1 && *port <= 65535) return port;
  return std::nullopt;
}

/// Raw token after `"key":` in a flat JSON object (StatusSnapshot::to_json
/// emits no nesting), surrounding quotes stripped. "?" when absent.
std::string json_field(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = body.find(needle);
  if (pos == std::string::npos) return "?";
  const auto start = pos + needle.size();
  auto end = body.find_first_of(",}", start);
  if (end == std::string::npos) end = body.size();
  std::string v = body.substr(start, end - start);
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"')
    v = v.substr(1, v.size() - 2);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  sim::SimExecutor cluster{sim::MachineSpec{}};

  if (command == "apps") {
    Table t({"name", "parameters", "pattern", "scalability (Table II)"});
    t.set_title("Known applications");
    for (const auto& w : workloads::paper_benchmarks())
      t.add_row({w.name, w.parameters, workloads::to_string(w.pattern),
                 workloads::to_string(w.expected_class)});
    t.print(std::cout);
    return 0;
  }

  if (command == "record") {
    if (argc < 4) return usage();
    const Watts cluster_budget(watts_or_die(argv[2]));
    const std::filesystem::path dir(argv[3]);
    bool traced = false;
    for (int i = 4; i < argc; ++i) {
      if (std::string(argv[i]) == "--trace")
        traced = true;
      else
        return usage();
    }

    obs::ObsSession session;
    obs::MemorySink sink;
    session.set_sink(&sink);
    obs::Timeline timeline;
    core::ClipScheduler scheduler(cluster, workloads::training_benchmarks());
    scheduler.set_observer(&session);
    cluster.set_observer(&session);

    runtime::QueueOptions qopt;
    qopt.cluster_budget = cluster_budget;
    qopt.trace.enabled = traced;
    runtime::Journal journal;
    std::vector<runtime::QueueJob> jobs;
    for (const auto& w : workloads::paper_benchmarks()) jobs.push_back({w, 0});
    runtime::QueueEventLoop loop(cluster, scheduler, qopt, jobs);
    loop.set_observer(&session);
    loop.set_timeline(&timeline);
    loop.set_journal(&journal);
    const auto report = loop.run();

    try {
      runtime::write_run_record(dir, cluster_budget, report, timeline,
                                sink.spans(), &session.metrics());
      journal.save(dir / runtime::RunRecordFiles::kJournal);
    } catch (const std::exception& e) {
      std::cerr << "cannot write run record: " << e.what() << "\n";
      return 1;
    }
    std::cout << "recorded " << report.jobs.size() << " jobs ("
              << report.jobs_completed() << " completed, makespan "
              << format_double(report.makespan_s, 1) << " s) into "
              << dir.string() << "\nrender it with: clipctl report "
              << dir.string() << "\n";
    return 0;
  }
  if (command == "report") {
    if (argc < 3) return usage();
    const std::filesystem::path dir(argv[2]);
    bool json = false;
    std::optional<std::size_t> job;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json = true;
      } else if (arg == "--job" && i + 1 < argc) {
        job = parse_whole<std::size_t>(argv[++i]);
        if (!job) return usage();
      } else {
        return usage();
      }
    }
    try {
      if (job)
        std::cout << runtime::render_job_story(dir, *job);
      else
        std::cout << (json ? runtime::render_json_report(dir)
                           : runtime::render_markdown_report(dir));
    } catch (const std::exception& e) {
      std::cerr << "cannot render report: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (command == "journal") {
    if (argc < 3) return usage();
    std::filesystem::path path(argv[2]);
    if (std::filesystem::is_directory(path))
      path /= runtime::RunRecordFiles::kJournal;
    runtime::Journal journal;
    runtime::JournalLoadResult loaded;
    try {
      loaded = journal.load(path);
    } catch (const std::exception& e) {
      std::cerr << "cannot load journal: " << e.what() << "\n";
      return 1;
    }
    std::cout << "journal     : " << path.string() << "\n"
              << journal.describe();
    if (loaded.salvaged)
      std::cout << "salvaged    : dropped " << loaded.dropped_lines
                << " corrupt tail line(s) — " << loaded.gap << "\n";
    return 0;
  }
  if (command == "recover") {
    if (argc < 4) return usage();
    const Watts cluster_budget(watts_or_die(argv[2]));
    const std::filesystem::path dir(argv[3]);
    bool traced = false;
    for (int i = 4; i < argc; ++i) {
      if (std::string(argv[i]) == "--trace")
        traced = true;
      else
        return usage();
    }
    const auto path = dir / runtime::RunRecordFiles::kJournal;

    runtime::Journal journal;
    runtime::JournalLoadResult loaded;
    try {
      loaded = journal.load(path);
    } catch (const std::exception& e) {
      std::cerr << "cannot load journal: " << e.what() << "\n";
      return 1;
    }
    if (loaded.salvaged)
      std::cout << "salvaged journal: dropped " << loaded.dropped_lines
                << " corrupt tail line(s) — " << loaded.gap << "\n";

    // Mirror `record`'s configuration exactly: recover() verifies the
    // journal's begin record against it and refuses a mismatched resume.
    obs::ObsSession session;
    obs::MemorySink sink;
    session.set_sink(&sink);
    obs::Timeline timeline;
    core::ClipScheduler scheduler(cluster, workloads::training_benchmarks());
    scheduler.set_observer(&session);
    cluster.set_observer(&session);

    runtime::QueueOptions qopt;
    qopt.cluster_budget = cluster_budget;
    qopt.trace.enabled = traced;
    std::vector<runtime::QueueJob> jobs;
    for (const auto& w : workloads::paper_benchmarks()) jobs.push_back({w, 0});
    runtime::QueueEventLoop loop(cluster, scheduler, qopt, jobs);
    loop.set_observer(&session);
    loop.set_timeline(&timeline);

    runtime::QueueReport report;
    try {
      report = loop.recover(journal);
    } catch (const std::exception& e) {
      std::cerr << "cannot recover: " << e.what() << "\n";
      return 1;
    }
    try {
      runtime::write_run_record(dir, cluster_budget, report, timeline,
                                sink.spans(), &session.metrics());
      journal.save(path);
    } catch (const std::exception& e) {
      std::cerr << "cannot write run record: " << e.what() << "\n";
      return 1;
    }
    std::cout << "recovered " << report.jobs.size() << " jobs ("
              << report.jobs_completed() << " completed, makespan "
              << format_double(report.makespan_s, 1) << " s) into "
              << dir.string() << "\nrender it with: clipctl report "
              << dir.string() << "\n";
    return 0;
  }

  if (command == "serve") {
    if (argc < 3) return usage();
    const Watts cluster_budget(watts_or_die(argv[2]));
    int port = 0;
    bool traced = false;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace") {
        traced = true;
      } else if (arg == "--port" && i + 1 < argc) {
        const auto p = port_arg(argv[++i]);
        if (!p) return usage();
        port = *p;
      } else {
        return usage();
      }
    }

    obs::ObsSession session;
    obs::Timeline timeline;
    core::ClipScheduler scheduler(cluster, workloads::training_benchmarks());
    scheduler.set_observer(&session);
    cluster.set_observer(&session);

    runtime::QueueOptions qopt;
    qopt.cluster_budget = cluster_budget;
    qopt.telemetry_port = port;  // 0 = ephemeral, printed below
    qopt.trace.enabled = traced;
    std::vector<runtime::QueueJob> jobs;
    for (const auto& w : workloads::paper_benchmarks()) jobs.push_back({w, 0});
    runtime::QueueEventLoop loop(cluster, scheduler, qopt, jobs);
    loop.set_observer(&session);
    loop.set_timeline(&timeline);

    runtime::QueueReport report;
    try {
      report = loop.run();
    } catch (const std::exception& e) {
      std::cerr << "run failed: " << e.what() << "\n";
      return 1;
    }
    const obs::TelemetryServer* server = loop.telemetry_server();
    if (server == nullptr) {
      std::cerr << "telemetry server did not start\n";
      return 1;
    }
    std::cout << "ran " << report.jobs.size() << " jobs ("
              << report.jobs_completed() << " completed, makespan "
              << format_double(report.makespan_s, 1)
              << " s)\nserving http://127.0.0.1:" << server->port()
              << "  endpoints: /metrics /healthz /status "
                 "/timeline?series=NAME\ntry: clipctl top "
              << server->port() << " --once\npress Ctrl-D to stop\n";
    // Serve until stdin closes: blocking on the pipe needs no clock and no
    // polling, so the command stays clip-lint D1 clean.
    std::string line;
    while (std::getline(std::cin, line)) {
    }
    return 0;
  }
  if (command == "top") {
    if (argc < 3) return usage();
    const auto parsed_port = port_arg(argv[2]);
    if (!parsed_port) return usage();
    const int port = *parsed_port;
    bool once = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--once")
        once = true;
      else
        return usage();
    }
    for (;;) {
      std::string body;
      try {
        body = obs::http_body(obs::http_get("127.0.0.1", port, "/status"));
      } catch (const std::exception& e) {
        std::cerr << "cannot reach telemetry server on port " << port << ": "
                  << e.what() << "\n";
        return 1;
      }
      std::ostringstream view;
      view << "clip cluster @ 127.0.0.1:" << port << "\n"
           << "  sim time   : " << json_field(body, "now_s") << " s\n"
           << "  mode       : " << json_field(body, "mode") << "\n"
           << "  run active : " << json_field(body, "run_active") << "\n"
           << "  waiting    : " << json_field(body, "queue_depth") << "\n"
           << "  running    : " << json_field(body, "running_jobs") << "\n"
           << "  completed  : " << json_field(body, "jobs_completed") << "\n"
           << "  failed     : " << json_field(body, "jobs_failed") << "\n"
           << "  free power : " << json_field(body, "free_watts") << " W\n"
           << "  journal seq: " << json_field(body, "journal_seq") << "\n";
      if (once) {
        std::cout << view.str();
        return 0;
      }
      // Home + clear per refresh gives the classic top(1) repaint.
      std::cout << "\x1b[H\x1b[2J" << view.str() << "(Ctrl-C to quit)\n"
                << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    }
  }
  if (command == "alerts") {
    if (argc < 3) return usage();
    const std::filesystem::path dir(argv[2]);
    bool json = false;
    std::optional<std::filesystem::path> rules_path;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json = true;
      } else if (arg == "--rules" && i + 1 < argc) {
        rules_path = argv[++i];
      } else {
        return usage();
      }
    }

    obs::Timeline timeline;
    try {
      timeline.load_csv(dir / runtime::RunRecordFiles::kTimeline);
    } catch (const std::exception& e) {
      std::cerr << "cannot load run record: " << e.what() << "\n";
      return 2;
    }
    std::vector<obs::AlertRule> rules;
    if (rules_path) {
      std::ifstream in(*rules_path);
      if (!in.good()) {
        std::cerr << "cannot open rules file: " << rules_path->string()
                  << "\n";
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      try {
        rules = obs::AlertEngine::parse_rules(text.str(),
                                              rules_path->string());
      } catch (const std::exception& e) {
        std::cerr << "cannot parse rules: " << e.what() << "\n";
        return 2;
      }
    } else {
      rules = obs::AlertEngine::default_rules();
    }
    const obs::AlertEngine engine(std::move(rules));
    const auto outcomes = engine.evaluate(timeline);
    std::cout << (json ? obs::AlertEngine::render_json(outcomes)
                       : obs::AlertEngine::render_table(outcomes));
    return obs::AlertEngine::exit_code(outcomes);
  }

  if (argc < 3) return usage();
  const auto app = lookup_or_die(argv[2]);

  if (command == "profile") {
    core::SmartProfiler profiler(cluster);
    const core::ScalabilityClassifier classifier;
    const auto p = profiler.profile(app);
    std::cout << "application : " << app.name << " " << app.parameters
              << "\nhalf/all    : "
              << format_double(p.perf_ratio_half_over_all, 3)
              << "\nclass       : "
              << workloads::to_string(classifier.classify(p))
              << "\naffinity    : "
              << parallel::to_string(p.preferred_affinity)
              << "\nnode BW     : " << format_double(p.node_bw_gbps, 1)
              << " GB/s (intensity "
              << format_double(p.memory_intensity, 2) << ")"
              << "\nprofile cost: "
              << format_double(p.profiling_cost.value(), 2) << " s\n";
    return 0;
  }

  if (argc < 4) return usage();
  const Watts budget(watts_or_die(argv[3]));
  core::ClipScheduler clip(cluster, workloads::training_benchmarks());

  if (command == "schedule") {
    const auto d = clip.schedule(app, budget);
    std::cout << d.describe() << "\npredicted node time: "
              << format_double(d.predicted_node_time.value(), 2) << " s\n";
    return 0;
  }
  if (command == "script") {
    runtime::Launcher launcher(cluster, workloads::training_benchmarks());
    runtime::JobSpec spec;
    spec.app = app;
    spec.cluster_budget = budget;
    std::cout << launcher.plan_script(spec);
    return 0;
  }
  if (command == "run") {
    const auto d = clip.schedule(app, budget);
    const auto m = cluster.run(app, d.cluster);
    std::cout << d.describe() << "\nexecuted: "
              << format_double(m.time.value(), 2) << " s at "
              << format_double(m.avg_power.value(), 1) << " W ("
              << format_double(m.energy.value() / 1000.0, 2) << " kJ)\n";
    return 0;
  }
  if (command == "trace") {
    // Observe one decision end-to-end: sink attached after construction so
    // the trace shows this schedule() alone, not the training sweep.
    obs::ObsSession session;
    obs::MemorySink sink;
    session.set_sink(&sink);
    clip.set_observer(&session);
    cluster.set_observer(&session);

    const auto d = clip.schedule(app, budget);
    const auto m = cluster.run(app, d.cluster);

    // Per-node power counter tracks from the power-meter series (noise off:
    // the trace should show the planned operating point, not meter jitter).
    runtime::TelemetryOptions topt;
    topt.noise_sigma = 0.0;
    const runtime::Telemetry telemetry(topt);
    const auto counters = runtime::Telemetry::to_trace_counters(
        telemetry.record(m, d.cluster.node.threads));

    const std::filesystem::path out =
        argc >= 5 ? std::filesystem::path(argv[4])
                  : std::filesystem::path("clip_trace.json");
    try {
      obs::write_chrome_trace(out, sink.spans(), counters);
    } catch (const std::exception& e) {
      std::cerr << "cannot write trace: " << e.what() << "\n";
      return 1;
    }

    std::cout << d.describe() << "\nexecuted: "
              << format_double(m.time.value(), 2) << " s at "
              << format_double(m.avg_power.value(), 1) << " W\n\n";
    session.metrics().summary_table().print(std::cout);
    std::cout << "\ntrace: " << out.string() << " (" << sink.span_count()
              << " spans) — load it at https://ui.perfetto.dev or "
                 "chrome://tracing\n";
    return 0;
  }
  if (command == "metrics") {
    obs::ObsSession session;
    clip.set_observer(&session);
    cluster.set_observer(&session);
    const auto d = clip.schedule(app, budget);
    (void)cluster.run(app, d.cluster);
    std::cout << session.metrics().render_prometheus();
    return 0;
  }
  if (command == "compare") {
    baselines::AllInScheduler all_in(cluster.spec());
    baselines::LowerLimitScheduler lower(cluster.spec());
    baselines::CoordinatedScheduler coordinated(cluster);
    Table t({"method", "nodes", "threads", "time (s)", "power (W)"});
    t.set_title(app.name + " @" + format_double(budget.value(), 0) + " W");
    auto row = [&](const std::string& name, const sim::ClusterConfig& cfg) {
      const auto m = cluster.run_exact(app, cfg);
      t.add_row({name, std::to_string(cfg.nodes),
                 std::to_string(cfg.node.threads),
                 format_double(m.time.value(), 2),
                 format_double(m.avg_power.value(), 1)});
    };
    row("All-In", all_in.plan(app, budget));
    row("Lower Limit", lower.plan(app, budget));
    row("Coordinated", coordinated.plan(app, budget));
    row("CLIP", clip.schedule(app, budget).cluster);
    t.print(std::cout);
    return 0;
  }
  return usage();
}

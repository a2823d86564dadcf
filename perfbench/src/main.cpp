// clip_perfbench — the repository benchmark's measuring program; run.py
// builds and drives it (README.md here).
//
//   clip_perfbench --workload <paper-eval|queue-mixed|queue-faults>
//                  --seed N --seconds S --trace 0|1 [--figures-out DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// both print a human-readable table first and one JSON object last.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/session.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double time_s(const std::function<void()>& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string figures_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace") a.trace = std::stoi(value()) != 0;
    else if (arg == "--figures-out") a.figures_out = value();
    else throw std::invalid_argument("unknown argument: " + arg);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// The host probe: a fixed kernel of the program's kinds of work
/// (transcendental floating point, an ordered map, short strings, heap
/// allocation, and a pass over a buffer larger than the caches), timed
/// before each iteration. Throughput is expressed in ops per probe
/// duration, which cancels most of the host's speed drift. The buffer is
/// allocated and touched before set-up, so it adds a constant to the peak
/// resident size, which peak_rss_mb subtracts.
class Probe {
 public:
  Probe() : buffer_(std::size_t{1} << 21, 1) {}  // 16 MiB, resident

  [[nodiscard]] double mib() const {
    return static_cast<double>(buffer_.size() * sizeof(buffer_[0])) /
           (1024.0 * 1024.0);
  }

  double time_s() {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < buffer_.size(); i += 8) buffer_[i] += i;
    std::map<std::string, double> m;
    std::vector<std::vector<double>> blocks;
    double x = 1.0;
    for (int i = 0; i < 20000; ++i) {
      x = std::exp(std::log(x + 1.5) * 0.75) + std::sqrt(x) * 1e-3;
      m["key-" + std::to_string((i * 7919) % 512)] += x;
      if (i % 16 == 0)
        blocks.emplace_back(static_cast<std::size_t>(64 + i % 256), x);
      if (blocks.size() > 64) blocks.erase(blocks.begin());
    }
    volatile double sink = x + static_cast<double>(m.size() + blocks.size());
    (void)sink;
    return seconds_since(t0);
  }

 private:
  std::vector<std::uint64_t> buffer_;
};

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Counters that must repeat exactly between runs and modes.
const char* const kCounters[] = {
    "sim.runs",          "sim.node_solves",      "sim.exact_cache_hits",
    "sim.exact_cache_misses", "sim.batch_runs",  "scheduler.schedules",
    "scheduler.constrained_schedules",           "scheduler.db_hits",
    "scheduler.db_misses",    "profiler.samples", "queue.jobs_started",
    "queue.retries",     "queue.jobs_failed",    "fault.injected",
    "fault.meter_reads_rejected",                "journal.records",
    "journal.snapshots", "journal.replayed",     "redist.ticks",
    "bench.oracle_evals"};

std::map<std::string, std::uint64_t> counters(clip::obs::ObsSession& s) {
  std::map<std::string, std::uint64_t> out;
  for (const char* name : kCounters) {
    const clip::obs::Counter* c = s.metrics().find_counter(name);
    out[name] = c == nullptr ? 0 : c->value();
  }
  return out;
}

std::map<std::string, std::uint64_t> minus(
    const std::map<std::string, std::uint64_t>& a,
    const std::map<std::string, std::uint64_t>& b) {
  auto d = a;
  for (auto& [k, v] : d) v -= b.at(k);
  return d;
}

/// Ops of `now` whose row differs from the reference's.
std::size_t differing(const Outcome& ref, const Outcome& now) {
  if (ref.rows.size() != now.rows.size()) return ref.rows.size();
  std::size_t n = 0;
  for (std::size_t i = 0; i < ref.rows.size(); ++i)
    n += ref.rows[i] == now.rows[i] ? 0 : 1;
  return n;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct E2eMetric {
  const char* name;
  const char* unit;
};
// The ten end-to-end metrics. The first three apply to every workload and
// are the ones BENCHMARK.json gates; the others apply to some workloads.
constexpr E2eMetric kE2e[] = {
    {"setup_s", "s"},          {"throughput", "op/probe"},
    {"peak_rss_mb", "MiB"},    {"recover_s", "s"},
    {"sim_makespan_s", "sim_s"}, {"sim_turnaround_s", "sim_s"},
    {"sim_energy_mj", "MJ"},   {"violation_s", "sim_s"},
    {"clip_gain_pct", "%"},    {"oracle_gap_pct", "%"},
};
constexpr int kGated = 3;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

int run(const Args& args) {
  Probe probe;

  // Set-up, several times; the median is setup_s. Each covers generating
  // the inputs, building the testbed and scheduler, characterising the
  // apps, the fault-free horizon run (queue-faults) and one warm-up
  // iteration.
  std::vector<double> setups;
  std::unique_ptr<Workload> wl;
  for (int k = 0; k < kSetups; ++k) {
    wl.reset();
    setups.push_back(time_s([&] {
      wl = make_workload(args.workload, args.seed);
      wl->iterate(nullptr);
    }));
  }
  const Outcome reference = wl->outcome();
  std::vector<std::string> errors;
  wl->check(errors);
  const std::string hash = fnv1a_hex(reference.rows);
  std::string fingerprint = hash;
  if (const char* golden = golden_hash(args.workload, args.seed);
      golden != nullptr && hash != golden)
    errors.push_back("fingerprint " + hash + " differs from the golden " +
                     golden);
  if (!args.figures_out.empty())
    for (const auto& [name, text] : wl->figures())
      std::ofstream(std::filesystem::path(args.figures_out) / (name + ".csv"))
          << text;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto account = [&](const Outcome& o) {
    attempted += reference.rows.size();
    failed += std::max(differing(reference, o), o.program_failed);
  };

  std::vector<Metric> printed;

  const auto start = Clock::now();
  const auto more = [&](std::size_t done) {
    return done < 3 || seconds_since(start) < args.seconds;
  };
  if (!args.trace) {
    // Each iteration is timed against the host probe runs just before and
    // just after it, and the throughput is taken from the median of those
    // ratios: the host is shared, its speed drifts by tens of percent over
    // seconds, and the adjacent probes see the same drift.
    std::vector<double> iter_s, probe_s{probe.time_s()}, ratio;
    std::vector<double> recover_s, recover_iter_s;
    while (more(iter_s.size())) {
      iter_s.push_back(time_s([&] { wl->iterate(nullptr); }));
      probe_s.push_back(probe.time_s());
      ratio.push_back(iter_s.back() /
                      (0.5 * (probe_s[probe_s.size() - 2] + probe_s.back())));
      account(wl->outcome());
      double recover_total = 0.0;
      for (const double t : wl->recover_times()) {
        recover_s.push_back(t);
        recover_total += t;
      }
      recover_iter_s.push_back(recover_total);
    }
    const double ops = static_cast<double>(reference.rows.size());
    const std::map<std::string, double> results = wl->results();
    for (const E2eMetric& m : kE2e) {
      const std::string name = m.name;
      double v = NAN;
      if (name == "setup_s") v = median(setups);
      else if (name == "throughput") v = ops / median(ratio);
      else if (name == "peak_rss_mb") v = peak_rss_mib() - probe.mib();
      else if (name == "recover_s" && !recover_s.empty()) v = median(recover_s);
      else if (results.count(name) != 0) v = results.at(name);
      printed.push_back({name, v, m.unit});
    }
    std::cout << "iterations " << iter_s.size() << " of " << ops
              << " ops: seconds median " << median(iter_s) << ", max "
              << quantile(iter_s, 1.0) << "; host probe median "
              << median(probe_s) * 1e3 << " ms; raw throughput "
              << ops / median(iter_s) << " op/s; setups " << setups.size()
              << '\n';
    // The cuts differ in how much they replay, so the spread that shows the
    // host's noise is that of each iteration's total recovery time.
    if (!recover_s.empty())
      std::cout << "recoveries " << recover_s.size() << ": seconds median "
                << median(recover_s) << "; per-iteration total IQR/median "
                << (quantile(recover_iter_s, 0.75) -
                    quantile(recover_iter_s, 0.25)) /
                       median(recover_iter_s)
                << '\n';
  } else {
    LayerSink sink;
    for (const char* name : {"clip.schedule", "clip.schedule_constrained",
                             "queue.try_start", "bench.oracle_plan"})
      sink.keep_samples(name);
    clip::obs::ObsSession session;
    session.set_sink(&sink);
    std::vector<double> traced_s, untraced_s;
    std::map<std::string, std::uint64_t> first_delta;
    Outcome traced;
    while (more(traced_s.size())) {
      untraced_s.push_back(time_s([&] { wl->iterate(nullptr); }));
      account(wl->outcome());
      const auto before = counters(session);
      traced_s.push_back(time_s([&] {
        const clip::obs::ScopedSpan root(&session, "bench.iteration", "bench");
        wl->iterate(&session);
      }));
      traced = wl->outcome();
      account(traced);
      if (differing(reference, traced) != 0)
        errors.push_back("traced output differs from the untraced output");
      const auto delta = minus(counters(session), before);
      if (first_delta.empty()) first_delta = delta;
      else if (delta != first_delta)
        errors.push_back("counters differ between traced iterations");
    }
    // The same counters with a session but no sink (nothing traced).
    clip::obs::ObsSession counting;
    wl->iterate(&counting);
    if (counters(counting) != first_delta)
      errors.push_back("counters differ between traced and untraced runs");

    LayerInputs in;
    in.sink = &sink;
    in.metrics = &session.metrics();
    in.iterations = static_cast<int>(traced_s.size());
    in.traced_iter_s = median(traced_s);
    in.untraced_iter_s = median(untraced_s);
    for (double t : traced_s) in.traced_total_s += t;
    in.extra = wl->layer_extras();
    printed = layer_metrics(in);
    // The header's fingerprint is the traced rows', for comparison with an
    // untraced run's.
    fingerprint = fnv1a_hex(traced.rows);
    // Every span's totals per iteration, for the notes' layer split.
    for (const auto& [name, t] : sink.all())
      std::cout << "span " << name << ": " << t.count / traced_s.size()
                << " per iteration, total "
                << t.total_us / 1e3 / static_cast<double>(traced_s.size())
                << " ms, self "
                << t.self_us / 1e3 / static_cast<double>(traced_s.size())
                << " ms\n";
  }
  if (errors.size() > 20) errors.resize(20);
  for (const std::string& e : errors)
    std::cout << "CHECK FAILED: " << e << '\n';

  // The human-readable table: every metric by name and unit.
  std::cout << "workload " << args.workload << ", seed " << args.seed
            << ", fingerprint " << fingerprint << ", attempted " << attempted
            << ", failed " << failed << '\n';
  for (const Metric& m : printed)
    std::cout << "  " << m.name << " = "
              << (std::isnan(m.value) ? std::string("n/a")
                                      : json_number(m.value))
              << ' ' << m.unit << '\n';

  // The last line: gated end-to-end metrics, or every per-layer metric.
  std::string json = std::string("{\"correct\": ") +
                     (errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  const std::size_t n = args.trace ? printed.size() : kGated;
  for (std::size_t i = 0; i < n; ++i)
    json += std::string(i == 0 ? "" : ", ") + "\"" + printed[i].name +
            "\": {\"value\": " + json_number(printed[i].value) +
            ", \"unit\": \"" + printed[i].unit + "\"}";
  std::cout << json << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "clip_perfbench: " << e.what() << '\n';
    return 2;
  }
}

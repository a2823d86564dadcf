#include "runtime/queue.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>

#include "obs/telemetry_server.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

// The event loop's journaled state: every mutation of these fields must
// reach the journal on some intra-file path, or a crash between the
// mutation and the next record makes recovery diverge. clip-analyze's J1
// rule enforces the pairing function-by-function.
// clip-lint: journaled(state_, attempts_, eligible_s_, node_busy_, enforcement_pending_, enforcements_, retry_wakeups_, pending_claws_, running_, mode_, effective_budget_)

namespace clip::runtime {

namespace {

/// Simulated-seconds wait times: 0.125 s … ~2000 s.
const obs::HistogramSpec& wait_s_spec() {
  static const obs::HistogramSpec spec =
      obs::HistogramSpec::exponential(0.125, 2.0, 14);
  return spec;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate_options(const QueueOptions& options) {
  CLIP_REQUIRE(options.cluster_budget.value() > 0.0,
               "cluster_budget must be positive (got " +
                   format_double(options.cluster_budget.value(), 3) + " W)");
  CLIP_REQUIRE(options.min_node_power_w > 0.0,
               "min_node_power_w must be positive (got " +
                   format_double(options.min_node_power_w, 3) + " W)");
  CLIP_REQUIRE(
      options.min_node_power_w <= options.cluster_budget.value(),
      "min_node_power_w (" + format_double(options.min_node_power_w, 3) +
          " W) exceeds cluster_budget (" +
          format_double(options.cluster_budget.value(), 3) + " W)");
  options.retry.validate();
  options.guard.validate();
  options.redist.validate();
}

/// Budget watchdog; the plausibility ceiling defaults to what the machine
/// can physically draw (a healthy node never exceeds it, a spiking meter
/// usually will).
fault::BudgetGuard make_guard(const QueueOptions& options,
                              sim::SimExecutor& executor) {
  fault::BudgetGuardOptions guard_opts = options.guard;
  if (guard_opts.max_plausible_node_w >= 1e9)
    guard_opts.max_plausible_node_w = executor.spec().max_node_w() * 1.5;
  return fault::BudgetGuard(guard_opts, options.cluster_budget);
}

// --- snapshot serialization helpers ---------------------------------------
// Doubles render via obs::format_exact so a restore parses the exact bits;
// tokens are `key=value` separated by spaces, list values use ',' (entries),
// ':' (fields), '/' and ';' (ids) — all characters format_exact never emits.

// A journal payload is assembled piece by piece into one reused buffer and
// copied out at its exact size. An operator+ chain regrows its string at
// every doubling and makes a temporary per number, which cost more than
// appending the record (bench/recovery prices the journal).
void put(std::string& out, std::string_view piece) { out += piece; }
void put(std::string& out, const char* piece) { out += piece; }
void put(std::string& out, double v) { obs::append_exact(out, v); }
void put(std::string& out, bool) = delete;  // spell flags out as "1"/"0"
template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

template <typename... Pieces>
std::string payload(const Pieces&... pieces) {
  thread_local std::string buffer;
  buffer.clear();
  (put(buffer, pieces), ...);
  return buffer;
}

double parse_double(std::string_view s, const char* what) {
  double v = 0.0;
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  CLIP_REQUIRE(!s.empty() && r.ec == std::errc() &&
                   r.ptr == s.data() + s.size(),
               std::string("bad snapshot ") + what + ": '" + std::string(s) +
                   "'");
  return v;
}

long long parse_int(std::string_view s, const char* what) {
  long long v = 0;
  const auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  CLIP_REQUIRE(!s.empty() && r.ec == std::errc() &&
                   r.ptr == s.data() + s.size(),
               std::string("bad snapshot ") + what + ": '" + std::string(s) +
                   "'");
  return v;
}

/// An integer field that must lie in [lo, hi]: an index or enum a restored
/// snapshot feeds back into the loop's tables.
long long parse_bounded(std::string_view s, long long lo, long long hi,
                        const char* what) {
  const long long v = parse_int(s, what);
  CLIP_REQUIRE(v >= lo && v <= hi,
               std::string("snapshot ") + what + " out of range: " +
                   std::to_string(v) + " not in [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "]");
  return v;
}

/// The text up to the next `sep` (or the end), consumed with its `sep`.
std::string_view next_field(std::string_view& in, char sep) {
  const std::size_t at = in.find(sep);
  const std::string_view field = in.substr(0, at);
  in.remove_prefix(at == std::string_view::npos ? in.size() : at + 1);
  return field;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (!s.empty()) out.push_back(next_field(s, sep));
  return out;
}

std::string join_ints(const std::vector<int>& v, char sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out.push_back(sep);
    out += std::to_string(v[i]);
  }
  return out;
}

std::string bits(const std::vector<bool>& v) {
  std::string out(v.size(), '0');
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i]) out[i] = '1';
  return out;
}

void restore_bits(std::vector<bool>& v, std::string_view s,
                  const char* what) {
  CLIP_REQUIRE(s.size() == v.size(), std::string("snapshot bitstring '") +
                                         what + "' size mismatch");
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = s[i] == '1';
}

using Tokens = std::map<std::string_view, std::string_view, std::less<>>;

/// A snapshot's `key=value` tokens, viewing the payload (which must outlive
/// the map).
Tokens parse_tokens(std::string_view payload) {
  Tokens out;
  while (!payload.empty()) {
    const std::string_view token = next_field(payload, ' ');
    const std::size_t eq = token.find('=');
    CLIP_REQUIRE(eq != std::string_view::npos && eq > 0,
                 "malformed snapshot token: '" + std::string(token) + "'");
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

std::string_view tok(const Tokens& m, std::string_view key) {
  const auto it = m.find(key);
  CLIP_REQUIRE(it != m.end(),
               "snapshot is missing token '" + std::string(key) + "'");
  return it->second;
}

/// The journal's snapshot encoding, named in every `begin` record:
/// snapshots carry job-row and timeline deltas that recovery folds in
/// order. A journal without it was written with whole-state snapshots.
constexpr std::string_view kSnapshotFormat = "snapfmt=2";

}  // namespace

const char* to_string(DegradedMode mode) {
  switch (mode) {
    case DegradedMode::kNormal:
      return "NORMAL";
    case DegradedMode::kMeterBlackout:
      return "METER_BLACKOUT";
    case DegradedMode::kBudgetBrownout:
      return "BUDGET_BROWNOUT";
  }
  return "?";
}

PowerAwareJobQueue::PowerAwareJobQueue(sim::SimExecutor& executor,
                                       core::ClipScheduler& scheduler,
                                       QueueOptions options)
    : executor_(&executor), scheduler_(&scheduler), options_(options) {
  validate_options(options);
}

QueueReport PowerAwareJobQueue::run(
    const std::vector<workloads::WorkloadSignature>& jobs) {
  std::vector<QueueJob> wrapped;
  wrapped.reserve(jobs.size());
  for (const auto& j : jobs) wrapped.push_back(QueueJob{j, 0});
  return run(wrapped);
}

QueueReport PowerAwareJobQueue::run(const std::vector<QueueJob>& jobs) {
  QueueEventLoop loop(*executor_, *scheduler_, options_, jobs);
  loop.set_observer(obs_);
  loop.set_fault_injector(injector_);
  loop.set_timeline(timeline_);
  loop.set_journal(journal_);
  return loop.run();
}

QueueEventLoop::QueueEventLoop(sim::SimExecutor& executor,
                               core::ClipScheduler& scheduler,
                               QueueOptions options, std::vector<QueueJob> jobs)
    : executor_(&executor),
      scheduler_(&scheduler),
      options_(options),
      jobs_(std::move(jobs)),
      total_nodes_(executor.spec().nodes),
      total_budget_(options.cluster_budget.value()),
      guard_(make_guard(options, executor)),
      detector_(options.redist),
      redistributor_(options.redist),
      effective_budget_(options.cluster_budget.value()) {
  validate_options(options_);
  CLIP_REQUIRE(!jobs_.empty(), "queue needs at least one job");
  for (const auto& job : jobs_)
    CLIP_REQUIRE(job.requested_nodes >= 0 &&
                     job.requested_nodes <= total_nodes_,
                 "job '" + job.app.name + "' requested_nodes (" +
                     std::to_string(job.requested_nodes) +
                     ") exceeds the cluster's " +
                     std::to_string(total_nodes_) + " nodes");
  report_.jobs.resize(jobs_.size());
  // clip-lint: allow(J1) constructor pre-init: the "begin"+"admit" records written by run_fresh() re-derive this exact state, so nothing existed to lose yet
  state_.assign(jobs_.size(), State::kPending);
  attempts_.assign(jobs_.size(), 0);
  eligible_s_.assign(jobs_.size(), 0.0);
  node_alive_.assign(static_cast<std::size_t>(total_nodes_), true);
  node_busy_.assign(static_cast<std::size_t>(total_nodes_), false);
  enforcement_pending_.assign(static_cast<std::size_t>(total_nodes_), false);
  redist_on_ = options_.redist.enabled;
  next_tick_s_ = options_.redist.period_s;
}

QueueEventLoop::~QueueEventLoop() = default;

obs::TelemetryServer* QueueEventLoop::telemetry_server() const {
  return telemetry_.get();
}

std::string QueueEventLoop::trace_suffix(std::size_t j) const {
  return j < traces_.size() ? " trace=" + traces_[j].hex() : std::string();
}

void QueueEventLoop::publish_status(bool run_active) {
  if (telemetry_ == nullptr) return;
  obs::StatusSnapshot snap;
  snap.now_s = now_;
  int waiting = 0;
  int done = 0;
  for (const State s : state_) {
    if (s == State::kPending) ++waiting;
    if (s == State::kDone) ++done;
  }
  snap.queue_depth = waiting;
  snap.running_jobs = static_cast<int>(running_.size());
  snap.free_watts = free_power();
  snap.mode = to_string(mode_);
  snap.journal_seq =
      journal_ != nullptr ? static_cast<std::uint64_t>(journal_->size()) : 0;
  snap.jobs_completed = done;
  snap.jobs_failed = report_.jobs_failed;
  snap.run_active = run_active;
  telemetry_->publish(snap);
}

int QueueEventLoop::free_nodes() const {
  int free = 0;
  for (int n = 0; n < total_nodes_; ++n)
    if (node_alive_[static_cast<std::size_t>(n)] &&
        !node_busy_[static_cast<std::size_t>(n)])
      ++free;
  return free;
}

double QueueEventLoop::free_power() const {
  double used = 0.0;
  for (const auto& r : running_) used += r.power_w;
  return effective_budget_ - used;
}

std::vector<int> QueueEventLoop::active_node_ids() const {
  std::vector<int> ids;
  for (const auto& r : running_)
    ids.insert(ids.end(), r.node_ids.begin(), r.node_ids.end());
  return ids;
}

double QueueEventLoop::true_cluster_power(double t) const {
  double watts = 0.0;
  for (const auto& r : running_) watts += r.true_power_w;
  return watts + injector_->cap_excess_w(active_node_ids(), t);
}

// Fault windows active at `t` for the flight recorder's `fault.active`
// series (crashes and degrades are permanent; meter faults, cap violations,
// blackouts and budget cuts are windowed — claw-backs truncate the cap
// violations in place).
int QueueEventLoop::faults_active_at(double t) const {
  int active = 0;
  for (const auto& c : plan_->crashes)
    if (c.at_s <= t) ++active;
  for (const auto& d : plan_->degrades)
    if (d.at_s <= t) ++active;
  for (const auto& f : plan_->meter_faults)
    if (f.at_s <= t && t < f.at_s + f.duration_s) ++active;
  for (const auto& v : plan_->cap_violations)
    if (v.at_s <= t && t < v.at_s + v.duration_s) ++active;
  for (const auto& b : plan_->meter_blackouts)
    if (b.at_s <= t && t < b.at_s + b.duration_s) ++active;
  for (const auto& c : plan_->budget_cuts)
    if (c.at_s <= t && t < c.at_s + c.duration_s) ++active;
  return active;
}

bool QueueEventLoop::try_start(std::size_t j, int nodes_avail,
                               double watts_avail) {
  obs::ScopedSpan span(action_obs(), "queue.try_start", "runtime");
  span.arg("app", jobs_[j].app.name);
  // active() gate: hex-formatting the ids costs two string allocations, and
  // every admission pass calls try_start until the cluster is full — an
  // inert span must not pay that (bench/obs_overhead prices the tracing-on
  // duty cycle).
  if (span.active() && j < traces_.size()) {
    span.arg("trace_id", traces_[j].hex());
    span.arg("span_id", traces_[j].span_hex("queue"));
  }
  span.arg("free_nodes", nodes_avail);
  span.arg("free_watts", watts_avail);
  // A predefined decomposition cannot shrink: a rigid job asking for more
  // nodes than are free is rejected below, whatever its plan. Once its app
  // is characterized the plan has no other effect, so it is skipped
  // (docs/performance.md, "Admission"); on a knowledge-DB miss the job
  // still plans first, so characterization happens on its first attempt.
  if (jobs_[j].requested_nodes > nodes_avail &&
      scheduler_->knows(jobs_[j].app))
    return false;

  // Shape the job as if the free watts were all its own...
  const core::ScheduleDecision ideal =
      scheduler_->schedule(jobs_[j].app, Watts(watts_avail));
  // ...then constrain to the free nodes (or the job's own MPI launch
  // line) with a proportional power slice.
  const int nodes_wanted =
      jobs_[j].requested_nodes > 0 ? jobs_[j].requested_nodes
                                   : ideal.cluster.nodes;
  if (nodes_wanted > nodes_avail && jobs_[j].requested_nodes > 0)
    return false;  // a predefined decomposition cannot shrink
  const int nodes_used = std::min(nodes_wanted, nodes_avail);
  const double slice =
      watts_avail * nodes_used / std::max(ideal.cluster.nodes, nodes_used);
  if (slice < options_.min_node_power_w * nodes_used) return false;

  const core::ScheduleDecision constrained =
      nodes_used == ideal.cluster.nodes
          ? ideal
          : scheduler_->schedule_constrained(jobs_[j].app, Watts(slice),
                                             nodes_used);
  const sim::Measurement m =
      executor_->run_exact(jobs_[j].app, constrained.cluster);
  CLIP_ENSURE(m.avg_power.value() <= slice * 1.01 + 1.0,
              "job exceeded its power slice");

  Running r;
  r.job_index = j;
  r.start_s = now_;
  const double duration =
      m.time.value() + constrained.profiling_cost.value();
  r.end_s = now_ + duration;
  r.node_ids.reserve(static_cast<std::size_t>(nodes_used));
  for (int n = 0; n < total_nodes_ &&
                  static_cast<int>(r.node_ids.size()) < nodes_used;
       ++n)
    if (node_alive_[static_cast<std::size_t>(n)] &&
        !node_busy_[static_cast<std::size_t>(n)])
      r.node_ids.push_back(n);
  // Reserve the job's full slice, not its measured draw: the RAPL caps
  // guarantee the slice is never exceeded, and only reserving the caps
  // keeps the cluster-wide bound airtight under transients.
  r.power_w = slice;
  r.true_power_w = m.avg_power.value();
  r.energy_j = m.energy.value();
  r.config = constrained.cluster;
  r.prof_s = constrained.profiling_cost.value();
  r.full_energy_j = m.energy.value();
  r.frac_done = 0.0;
  r.change_s = now_;
  r.ff_remaining = duration;
  if (injector_ != nullptr) {
    // Degrades stretch the run; a held node's crash aborts it.
    const fault::RunResolution res =
        injector_->resolve(now_, duration, r.node_ids);
    r.end_s = res.end_s;
    r.crashed = res.crashed;
    r.crashed_node = res.crashed_node;
  }
  for (int n : r.node_ids) node_busy_[static_cast<std::size_t>(n)] = true;

  auto& out = report_.jobs[j];
  out.app = jobs_[j].app.name;
  out.parameters = jobs_[j].app.parameters;
  out.submit_s = 0.0;
  out.start_s = now_;
  out.end_s = r.end_s;
  out.nodes = nodes_used;
  out.budget_w = slice;
  out.power_w = m.avg_power.value();
  out.attempts = ++attempts_[j];
  out.completed = !r.crashed;
  out.crashed_node = -1;
  if (timeline_ != nullptr) {
    timeline_->event("job", now_, "start " + out.app + " nodes=" +
                                      std::to_string(nodes_used) +
                                      trace_suffix(j));
    const double per_node_cap = slice / nodes_used;
    const double per_node_power = m.avg_power.value() / nodes_used;
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".cap_w", now_, per_node_cap);
      timeline_->record(prefix + ".power_w", now_, per_node_power);
    }
  }
  // Optimistic accounting at start, exactly as the fault-free queue always
  // did (same FP operations in the same order, so an empty plan reproduces
  // the report bit-for-bit); a crash abort adjusts the energy term. For a
  // crashed run r.end_s is already the abort instant, so the node-seconds
  // term needs no adjustment, and a degraded run's stretch is billed here.
  report_.total_energy_j += m.energy.value();
  report_.node_seconds_used += nodes_used * (r.end_s - now_);
  running_.push_back(std::move(r));
  state_[j] = State::kRunning;
  obs::count(action_obs(), "queue.jobs_started");
  obs::observe(action_obs(), "queue.job_wait_s", wait_s_spec(), out.wait_s());
  if (journal_ != nullptr) {
    const Running& rr = running_.back();
    jlog("launch", payload("job=", j, " attempt=", attempts_[j], " nodes=",
                           join_ints(rr.node_ids, '/'), " slice=",
                           rr.power_w, " end=", rr.end_s, " crashed=",
                           rr.crashed ? "1" : "0", trace_suffix(j)));
  }
  return true;
}

void QueueEventLoop::start_eligible() {
  // BUDGET_BROWNOUT pauses admission: the launch pass is skipped until the
  // cut window ends (the gauges below keep tracking the paused queue).
  if (!admission_paused_) {
    // Host-time cost of one admission pass, recorded only while the live
    // telemetry plane is up: queue metrics stay a deterministic function
    // of the workload otherwise (same-seed runs fingerprint identically).
    // Metrics-only — never the timeline, whose contents must stay a
    // function of simulated time. Feeds the p99 SLO rule in obs/alerts.hpp.
    obs::ScopedTimer timer(telemetry_ != nullptr ? action_obs() : nullptr,
                           "queue.decision_latency_us");
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (state_[j] != State::kPending) continue;
      if (eligible_s_[j] > now_) continue;  // still backing off after a crash
      // No free node, or too few watts to wake one: no job can start, and
      // a job that does not start frees nothing, so the pass ends.
      const int nodes_avail = free_nodes();
      const double watts_avail = free_power();
      if (nodes_avail < 1 || watts_avail < options_.min_node_power_w) break;
      const bool ok = try_start(j, nodes_avail, watts_avail);
      if (!ok && !options_.backfill) break;  // strict FCFS: head blocks
    }
  }
  std::size_t waiting = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j)
    if (state_[j] == State::kPending) ++waiting;
  obs::gauge_set(action_obs(), "queue.depth", static_cast<double>(waiting));
  obs::gauge_set(action_obs(), "queue.running",
                 static_cast<double>(running_.size()));
  if (timeline_ != nullptr) {
    timeline_->record("queue.depth", now_, static_cast<double>(waiting));
    timeline_->record("queue.running", now_,
                      static_cast<double>(running_.size()));
    timeline_->record("budget.free_w", now_, free_power());
  }
  // Steady-state publishing is throttled: /status is a monitoring view, not
  // a ledger, so a few-steps-stale snapshot is fine and the O(jobs) state
  // scan plus the server mutex stay off the per-decision path
  // (bench/obs_overhead prices exactly this duty cycle). Run start, mode
  // transitions and finalize() still publish unconditionally.
  if (telemetry_ != nullptr && (publish_tick_++ & 0xF) == 0)
    publish_status(true);
}

// Announce fault events whose time has arrived: counters/spans once per
// event, crashes also retire the node from the pool.
void QueueEventLoop::apply_fault_events() {
  bool fired = false;
  for (std::size_t i = 0; i < crash_seen_.size(); ++i) {
    const auto& c = plan_->crashes[i];
    if (crash_seen_[i] || c.at_s > now_) continue;
    crash_seen_[i] = true;
    fired = true;
    obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
    span.arg("kind", "crash");
    span.arg("node", c.node);
    obs::count(action_obs(), "fault.injected");
    obs::count(action_obs(), "fault.crashes");
    if (timeline_ != nullptr)
      timeline_->event("fault", now_,
                       "crash node=" + std::to_string(c.node));
    if (node_alive_[static_cast<std::size_t>(c.node)]) {
      node_alive_[static_cast<std::size_t>(c.node)] = false;
      report_.crashed_nodes.push_back(c.node);
    }
  }
  for (std::size_t i = 0; i < degrade_seen_.size(); ++i) {
    const auto& d = plan_->degrades[i];
    if (degrade_seen_[i] || d.at_s > now_) continue;
    degrade_seen_[i] = true;
    fired = true;
    obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
    span.arg("kind", "degrade");
    span.arg("node", d.node);
    obs::count(action_obs(), "fault.injected");
    obs::count(action_obs(), "fault.degrades");
    if (timeline_ != nullptr)
      timeline_->event("fault", now_,
                       "degrade node=" + std::to_string(d.node));
  }
  for (std::size_t i = 0; i < meter_seen_.size(); ++i) {
    const auto& f = plan_->meter_faults[i];
    if (meter_seen_[i] || f.at_s > now_) continue;
    meter_seen_[i] = true;
    fired = true;
    obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
    span.arg("kind", std::string("meter-") + to_string(f.kind));
    span.arg("node", f.node);
    obs::count(action_obs(), "fault.injected");
    obs::count(action_obs(), "fault.meter_faults");
    if (timeline_ != nullptr)
      timeline_->event("fault", now_,
                       std::string("meter-") + to_string(f.kind) +
                           " node=" + std::to_string(f.node));
  }
  for (std::size_t i = 0; i < capviol_seen_.size(); ++i) {
    const auto& v = plan_->cap_violations[i];
    if (capviol_seen_[i] || v.at_s > now_) continue;
    capviol_seen_[i] = true;
    fired = true;
    obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
    span.arg("kind", "cap-violation");
    span.arg("node", v.node);
    obs::count(action_obs(), "fault.injected");
    obs::count(action_obs(), "fault.cap_violations");
    if (timeline_ != nullptr)
      timeline_->event("fault", now_,
                       "cap-violation node=" + std::to_string(v.node));
  }
  for (std::size_t i = 0; i < blackout_seen_.size(); ++i) {
    const auto& b = plan_->meter_blackouts[i];
    if (blackout_seen_[i] || b.at_s > now_) continue;
    blackout_seen_[i] = true;
    fired = true;
    obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
    span.arg("kind", "meter-blackout");
    obs::count(action_obs(), "fault.injected");
    obs::count(action_obs(), "fault.blackouts");
    if (timeline_ != nullptr)
      timeline_->event("fault", now_,
                       "meter-blackout for " +
                           format_double(b.duration_s, 1) + "s");
  }
  for (std::size_t i = 0; i < cut_seen_.size(); ++i) {
    const auto& c = plan_->budget_cuts[i];
    if (cut_seen_[i] || c.at_s > now_) continue;
    cut_seen_[i] = true;
    fired = true;
    obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
    span.arg("kind", "budget-cut");
    obs::count(action_obs(), "fault.injected");
    obs::count(action_obs(), "fault.budget_cuts");
    if (timeline_ != nullptr)
      timeline_->event("fault", now_,
                       "budget-cut to " + format_double(c.factor, 2) +
                           "x for " + format_double(c.duration_s, 1) + "s");
  }
  if (timeline_ != nullptr && fired)
    timeline_->record("fault.active", now_,
                      static_cast<double>(faults_active_at(now_)));
}

// Claw back a violated cap on `node` (re-coordination took effect).
void QueueEventLoop::claw_back(int node) {
  const int truncated = injector_->truncate_cap_violations(node, now_);
  if (truncated == 0) return;  // window already over
  report_.caps_reprogrammed += truncated;
  obs::ScopedSpan span(action_obs(), "budget.reprogram", "fault");
  span.arg("node", node);
  obs::count(action_obs(), "budget.caps_reprogrammed",
             static_cast<std::uint64_t>(truncated));
  if (timeline_ != nullptr) {
    timeline_->event("fault", now_, "claw-back node=" + std::to_string(node));
    timeline_->record("fault.active", now_,
                      static_cast<double>(faults_active_at(now_)));
  }
  if (journal_ != nullptr)
    jlog("guard-claw",
         payload("node=", node, " windows=", truncated, " t=", now_));
}

// The guard's sampling pass: read every active node's meter (corrupted by
// the injector, filtered for plausibility), detect cluster overshoot, and
// schedule claw-backs with the actuation latency. METER_BLACKOUT freezes
// the pass entirely: there is nothing trustworthy to read.
void QueueEventLoop::guard_sample() {
  if (meters_dark_) return;
  if (!guard_.options().enabled || running_.empty()) return;
  double observed = 0.0;
  for (const auto& r : running_) {
    const double per_node_truth =
        r.true_power_w / static_cast<double>(r.node_ids.size());
    const double per_node_expected =
        r.power_w / static_cast<double>(r.node_ids.size());
    for (int n : r.node_ids) {
      const double truth =
          per_node_truth + injector_->cap_excess_w({n}, now_);
      if (timeline_ != nullptr)
        timeline_->record("node" + std::to_string(n) + ".power_w", now_,
                          truth);
      observed += guard_.filter_reading(
          injector_->observed_node_power(n, now_, truth),
          per_node_expected);
    }
  }
  if (!guard_.overshoot(observed)) return;
  obs::count(action_obs(), "budget.overshoot_events");
  for (int n : injector_->violating_nodes(active_node_ids(), now_)) {
    if (enforcement_pending_[static_cast<std::size_t>(n)]) continue;
    if (guard_.options().reaction_s <= 0.0) {
      claw_back(n);
    } else {
      enforcement_pending_[static_cast<std::size_t>(n)] = true;
      enforcements_.push_back({now_ + guard_.options().reaction_s, n});
      if (journal_ != nullptr)
        jlog("enforce-scheduled",
             payload("node=", n, " at=", enforcements_.back().at_s));
    }
  }
}

// Work fraction job `r` has completed by `t` (fault-free-equivalent work
// over total), chained through the re-base points.
double QueueEventLoop::frac_at(const Running& r, double t) const {
  if (r.ff_remaining <= 0.0) return 1.0;
  const double done = injector_ != nullptr
                          ? injector_->work_done_s(r.change_s, t, r.node_ids)
                          : t - r.change_s;
  const double seg = std::clamp(done / r.ff_remaining, 0.0, 1.0);
  return r.frac_done + seg * (1.0 - r.frac_done);
}

// Where job `r` would finish if its remaining work ran at measurement
// `m1`'s pace (resolved against faults from `now` onward).
double QueueEventLoop::projected_end(const Running& r,
                                     const sim::Measurement& m1) const {
  const double frac = frac_at(r, now_);
  const double ff_rem =
      std::max((1.0 - frac) * (m1.time.value() + r.prof_s), 0.0);
  if (injector_ == nullptr) return now_ + ff_rem;
  return injector_->resolve(now_, ff_rem, r.node_ids).end_s;
}

// Re-base job `r` onto a new configuration/slice at `now`: convert its
// elapsed time into work progress, re-resolve the remainder against the
// fault plan (which may newly hit — or dodge — a crash), and adjust the
// optimistic energy / node-seconds bills by the delta on the unfinished
// fraction.
void QueueEventLoop::rebase_running(Running& r, const sim::ClusterConfig& cfg,
                                    const sim::Measurement& m1,
                                    double new_slice) {
  const double frac = frac_at(r, now_);
  const double ff_rem =
      std::max((1.0 - frac) * (m1.time.value() + r.prof_s), 0.0);
  double new_end = now_ + ff_rem;
  bool crashed = false;
  int crashed_node = -1;
  if (injector_ != nullptr) {
    const fault::RunResolution res =
        injector_->resolve(now_, ff_rem, r.node_ids);
    new_end = res.end_s;
    crashed = res.crashed;
    crashed_node = res.crashed_node;
  }
  const double energy_delta =
      (1.0 - frac) * (m1.energy.value() - r.full_energy_j);
  report_.total_energy_j += energy_delta;
  r.energy_j += energy_delta;
  r.full_energy_j = m1.energy.value();
  report_.node_seconds_used +=
      static_cast<double>(r.node_ids.size()) * (new_end - r.end_s);
  r.config = cfg;
  r.power_w = new_slice;
  r.true_power_w = m1.avg_power.value();
  r.end_s = new_end;
  r.crashed = crashed;
  r.crashed_node = crashed_node;
  r.frac_done = frac;
  r.change_s = now_;
  r.ff_remaining = ff_rem;
  auto& out = report_.jobs[r.job_index];
  out.end_s = new_end;
  out.budget_w = new_slice;
  out.power_w = r.true_power_w;
  out.completed = !crashed;
  if (timeline_ != nullptr) {
    const double n_nodes = static_cast<double>(r.node_ids.size());
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".cap_w", now_, new_slice / n_nodes);
      timeline_->record(prefix + ".power_w", now_, r.true_power_w / n_nodes);
    }
  }
}

// Actuate one claw-back whose reaction latency elapsed. If the placement
// it targeted is gone (completed, or crash-aborted — the race the attempt
// tag catches), its watts are already back in the free pool and the claw
// dissolves without effect.
void QueueEventLoop::apply_claw(const PendingClaw& c) {
  Running* r = nullptr;
  for (auto& cand : running_)
    if (cand.job_index == c.job) r = &cand;
  if (r == nullptr || attempts_[c.job] != c.attempt) {
    if (journal_ != nullptr)
      jlog("claw-dissolve", payload("job=", c.job, " reason=gone"));
    return;
  }
  const int n_nodes = static_cast<int>(r->node_ids.size());
  const double floor_w =
      std::max(options_.min_node_power_w * n_nodes,
               r->true_power_w + options_.redist.headroom_frac * r->power_w);
  const double claw = std::min(c.watts, r->power_w - floor_w);
  if (claw <= 0.0) {
    // A re-grant since the decision ate the slack.
    if (journal_ != nullptr)
      jlog("claw-dissolve", payload("job=", c.job, " reason=eaten"));
    return;
  }
  r->power_w -= claw;
  report_.jobs[r->job_index].budget_w = r->power_w;
  ++report_.redist_claw_backs;
  report_.redist_reclaimed_w += claw;
  obs::count(action_obs(), "redist.claw_backs");
  if (timeline_ != nullptr) {
    timeline_->event("redist", now_,
                     "claw " + report_.jobs[r->job_index].app +
                         " w=" + format_double(claw, 1));
    const double per_node_cap = r->power_w / n_nodes;
    for (int n : r->node_ids)
      timeline_->record("node" + std::to_string(n) + ".cap_w", now_,
                        per_node_cap);
  }
  if (journal_ != nullptr)
    jlog("claw-actuate", payload("job=", c.job, " w=", claw));
}

// The redistribution tick: sample, size claw-backs, and hill-climb
// memory-phase jobs one PKG→DRAM step.
void QueueEventLoop::redist_tick() {
  obs::count(action_obs(), "redist.ticks");
  for (const auto& r : running_) {
    const double n_nodes = static_cast<double>(r.node_ids.size());
    const double per_node_truth = r.true_power_w / n_nodes;
    const double per_node_expected = r.power_w / n_nodes;
    for (int n : r.node_ids) {
      double truth = per_node_truth;
      double observed = truth;
      if (injector_ != nullptr) {
        truth += injector_->cap_excess_w({n}, now_);
        observed = injector_->observed_node_power(n, now_, truth);
      }
      detector_.observe(n, now_,
                        guard_.filter_reading(observed, per_node_expected));
    }
  }
  double slack_total = 0.0;
  for (const auto& r : running_) {
    if (r.crashed) continue;  // its watts come back at the abort instant
    bool claw_pending = false;
    for (const auto& c : pending_claws_)
      claw_pending = claw_pending || c.job == r.job_index;
    if (claw_pending) continue;
    const int n_nodes = static_cast<int>(r.node_ids.size());
    const double cap_per_node = r.power_w / n_nodes;
    double slack = 0.0;
    for (int n : r.node_ids) slack += detector_.node_slack_w(n, cap_per_node);
    slack_total += slack;
    const double floor_w =
        std::max(options_.min_node_power_w * n_nodes,
                 r.true_power_w + options_.redist.headroom_frac * r.power_w);
    const double claw = redistributor_.claw_w(r.power_w, slack, floor_w);
    if (claw <= 0.0) continue;
    pending_claws_.push_back({now_ + options_.redist.reaction_s, r.job_index,
                              attempts_[r.job_index], claw});
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "claw-scheduled " + report_.jobs[r.job_index].app +
                           " w=" + format_double(claw, 1));
    if (journal_ != nullptr)
      jlog("claw-scheduled",
           payload("job=", r.job_index, " at=", pending_claws_.back().at_s,
                   " w=", claw));
  }
  if (timeline_ != nullptr)
    timeline_->record("redist.slack_w", now_, slack_total);
  if (journal_ != nullptr)
    jlog("tick", payload("t=", now_, " slack=", slack_total));
  if (!options_.redist.subsystem_split) return;
  for (auto& r : running_) {
    if (r.crashed) continue;
    const PhaseSignal sig = SlackDetector::phase_at(
        jobs_[r.job_index].app, r.start_s, r.end_s, now_);
    if (!sig.memory_bound) continue;
    const sim::ClusterConfig shifted = sim::shift_pkg_to_dram(
        r.config, Watts(options_.redist.shift_step_w), Watts(1.0));
    if (shifted.node.cpu_cap.value() == r.config.node.cpu_cap.value() &&
        shifted.node.mem_level == r.config.node.mem_level)
      continue;  // already fully shifted
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, shifted);
    if (m1.avg_power.value() > r.power_w * 1.01 + 1.0)
      continue;  // must keep fitting the reserved slice
    const double gain = r.end_s - projected_end(r, m1);
    if (gain < options_.redist.min_gain_s) continue;
    rebase_running(r, shifted, m1, r.power_w);
    ++report_.redist_subsystem_shifts;
    obs::count(action_obs(), "redist.subsystem_shifts");
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "shift " + report_.jobs[r.job_index].app +
                           " pkg->dram w=" +
                           format_double(options_.redist.shift_step_w, 1));
    if (journal_ != nullptr)
      jlog("shift", payload("job=", r.job_index, " t=", now_));
  }
}

// Re-grant the free pool to the running job whose completion improves the
// most. Queued jobs own the free watts first: while anyone is pending
// (even in crash backoff) the pool stays untouched. METER_BLACKOUT freezes
// re-grants: a grant is justified by measured slack, and there are no
// measurements.
void QueueEventLoop::try_regrant() {
  if (meters_dark_) return;
  for (std::size_t j = 0; j < jobs_.size(); ++j)
    if (state_[j] == State::kPending) return;
  const double free_w = free_power();
  if (free_w < options_.redist.min_grant_w || running_.empty()) return;
  struct Eval {
    sim::ClusterConfig cfg;
    sim::Measurement m;
    double slice;
  };
  std::vector<RegrantCandidate> candidates;
  std::vector<Eval> evals;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const Running& r = running_[i];
    if (r.crashed) continue;  // boosting a doomed placement buys nothing
    const double slice = r.power_w + free_w;
    const core::ScheduleDecision boosted = scheduler_->schedule_constrained(
        jobs_[r.job_index].app, Watts(slice),
        static_cast<int>(r.node_ids.size()));
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, boosted.cluster);
    if (m1.avg_power.value() > slice * 1.01 + 1.0) continue;
    candidates.push_back({i, free_w, r.end_s - projected_end(r, m1)});
    evals.push_back({boosted.cluster, m1, slice});
  }
  const RegrantCandidate* best = redistributor_.pick(candidates);
  if (best == nullptr) return;
  Running& r = running_[best->job];
  // The guard admits the grant against the larger of the reservations and
  // the true draw: during an active cap violation the cluster is already
  // over budget, and re-granting then would widen the violation.
  double reserved = 0.0;
  for (const auto& other : running_) reserved += other.power_w;
  if (injector_ != nullptr)
    reserved = std::max(reserved, true_cluster_power(now_));
  if (!guard_.admit_regrant(reserved, best->grant_w)) {
    obs::count(action_obs(), "redist.regrants_rejected");
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "regrant-rejected " + report_.jobs[r.job_index].app +
                           " w=" + format_double(best->grant_w, 1));
    if (journal_ != nullptr)
      jlog("grant-reject", payload("job=", r.job_index, " w=", best->grant_w));
    return;
  }
  const Eval& e = evals[static_cast<std::size_t>(best - candidates.data())];
  rebase_running(r, e.cfg, e.m, e.slice);
  ++report_.redist_regrants;
  report_.redist_granted_w += best->grant_w;
  obs::count(action_obs(), "redist.regrants");
  if (timeline_ != nullptr)
    timeline_->event("redist", now_,
                     "regrant " + report_.jobs[r.job_index].app +
                         " w=" + format_double(best->grant_w, 1));
  if (journal_ != nullptr)
    jlog("grant", payload("job=", r.job_index, " w=", best->grant_w));
}

// Process the single earliest finished run due at `now` (one per pass, so
// a simultaneous completion sees the freed resources of the previous one —
// exactly how the fault-free queue always behaved).
bool QueueEventLoop::finish_one_due() {
  auto next = running_.end();
  for (auto it = running_.begin(); it != running_.end(); ++it)
    if (it->end_s <= now_ &&
        (next == running_.end() || it->end_s < next->end_s))
      next = it;
  if (next == running_.end()) return false;
  const Running r = *next;
  running_.erase(next);
  for (int n : r.node_ids) node_busy_[static_cast<std::size_t>(n)] = false;
  const std::size_t j = r.job_index;
  if (timeline_ != nullptr)
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".power_w", now_, 0.0);
      timeline_->record(prefix + ".cap_w", now_, 0.0);
    }
  if (!r.crashed) {
    state_[j] = State::kDone;
    if (timeline_ != nullptr)
      timeline_->event("job", now_,
                       "finish " + report_.jobs[j].app + trace_suffix(j));
    if (journal_ != nullptr)
      jlog("complete", payload("job=", j, " t=", now_, trace_suffix(j)));
    return true;
  }
  // Crash abort: replace the optimistic energy bill with the watts the
  // partial execution truly drew (nodes and watts were freed above), then
  // retry or fail.
  const double elapsed = r.end_s - r.start_s;
  report_.total_energy_j += r.true_power_w * elapsed - r.energy_j;
  auto& out = report_.jobs[j];
  out.crashed_node = r.crashed_node;
  out.completed = false;
  if (timeline_ != nullptr)
    timeline_->event("job", now_,
                     "crash " + out.app +
                         " node=" + std::to_string(r.crashed_node) +
                         trace_suffix(j));
  if (attempts_[j] >= options_.retry.max_attempts) {
    state_[j] = State::kFailed;
    ++report_.jobs_failed;
    obs::count(action_obs(), "queue.jobs_failed");
    if (timeline_ != nullptr)
      timeline_->event("job", now_, "fail " + out.app + trace_suffix(j));
    if (journal_ != nullptr)
      jlog("fail", payload("job=", j, " t=", now_, trace_suffix(j)));
    return true;
  }
  state_[j] = State::kPending;
  eligible_s_[j] = now_ + options_.retry.backoff_s(attempts_[j]);
  retry_wakeups_.push_back(eligible_s_[j]);
  ++report_.retries;
  obs::ScopedSpan span(action_obs(), "queue.requeue", "runtime");
  span.arg("app", out.app);
  span.arg("crashed_node", r.crashed_node);
  if (span.active() && j < traces_.size()) {
    span.arg("trace_id", traces_[j].hex());
    span.arg("span_id", traces_[j].span_hex("queue"));
  }
  obs::count(action_obs(), "queue.retries");
  if (timeline_ != nullptr)
    timeline_->event("job", now_, "requeue " + out.app + trace_suffix(j));
  if (journal_ != nullptr)
    jlog("crash-requeue",
         payload("job=", j, " node=", r.crashed_node, " eligible=",
                 eligible_s_[j], trace_suffix(j)));
  return true;
}

void QueueEventLoop::prepare_run() {
  CLIP_REQUIRE(!started_,
               "QueueEventLoop is single-shot: construct a fresh loop per run");
  started_ = true;
  plan_ = injector_ != nullptr ? &injector_->plan() : nullptr;
  crash_seen_.assign(plan_ != nullptr ? plan_->crashes.size() : 0, false);
  degrade_seen_.assign(plan_ != nullptr ? plan_->degrades.size() : 0, false);
  meter_seen_.assign(plan_ != nullptr ? plan_->meter_faults.size() : 0, false);
  capviol_seen_.assign(plan_ != nullptr ? plan_->cap_violations.size() : 0,
                       false);
  blackout_seen_.assign(plan_ != nullptr ? plan_->meter_blackouts.size() : 0,
                        false);
  cut_seen_.assign(plan_ != nullptr ? plan_->budget_cuts.size() : 0, false);
  wakeups_ =
      injector_ != nullptr ? injector_->wakeups() : std::vector<double>{};
  wakeup_idx_ = 0;
  mode_faults_on_ = plan_ != nullptr && (!plan_->meter_blackouts.empty() ||
                                         !plan_->budget_cuts.empty());
  if (options_.trace.enabled && traces_.empty()) {
    // One draw per job in submission order: ids are a pure function of
    // (seed, job index), so a recovery constructed with the same options
    // re-mints exactly the ids the dying run journaled.
    Rng trace_rng(options_.trace.seed);
    traces_.reserve(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      traces_.push_back(obs::TraceContext::make(trace_rng));
      report_.jobs[j].trace_id = traces_[j].hex();
    }
  }
  if (options_.telemetry_port >= 0 && telemetry_ == nullptr) {
    obs::TelemetryServerOptions server_options;
    server_options.port = options_.telemetry_port;
    server_options.metrics = obs_ != nullptr ? &obs_->metrics() : nullptr;
    server_options.timeline = timeline_;
    telemetry_ = std::make_unique<obs::TelemetryServer>(server_options);
    publish_status(true);
  }
}

QueueReport QueueEventLoop::run() {
  prepare_run();
  return run_fresh();
}

QueueReport QueueEventLoop::run_fresh() {
  if (journal_ != nullptr) {
    // begin + admit ARE the genesis state: together they determine the
    // pre-init loop exactly, so no snapshot is written here. A journal cut
    // before the first periodic snapshot recovers by restarting (still
    // byte-identical — the loop is deterministic).
    jlog("begin", begin_payload());
    jlog("admit", admits_payload());
  }
  init_pass();
  main_loop();
  finalize();
  return report_;
}

QueueReport QueueEventLoop::recover(Journal& journal) {
  journal_ = &journal;
  prepare_run();
  obs::count(obs_, "journal.recoveries");
  // The journal prefix must describe this very run — a recovery against the
  // wrong jobs, options or attachments must fail loudly, not diverge. The
  // check is prefix-tolerant: a journal torn before these records exist is a
  // legitimate early death, not a mismatch.
  const auto& records = journal.records();
  if (!records.empty()) {
    // The snapshot format first: a journal written in another encoding
    // must be refused as such, not misread or blamed on the configuration.
    std::string_view format = records[0].payload;
    format = format.substr(0, format.find(' '));
    if (!format.starts_with("snapfmt=")) format = "none";
    CLIP_REQUIRE(records[0].kind != "begin" || format == kSnapshotFormat,
                 "journal snapshot format is '" + std::string(format) +
                     "' but this build reads only " +
                     std::string(kSnapshotFormat) +
                     " (delta snapshots); recover it with the build that "
                     "wrote it");
    CLIP_REQUIRE(records[0].kind == "begin" &&
                     records[0].payload == begin_payload(),
                 "journal was written by a different run configuration");
  }
  if (records.size() > 1)
    CLIP_REQUIRE(records[1].kind == "admit" &&
                     records[1].payload == admits_payload(),
                 "journal admits do not match this job stream");
  const std::optional<std::size_t> snap = journal.last_snapshot();
  if (!snap.has_value()) {
    // The coordinator died before the first periodic snapshot: nothing to
    // restore, the run starts over and re-journals from scratch.
    journal.clear();
    return run_fresh();
  }
  restore_state(*snap);
  replay_cursor_ = *snap + 1;
  replay_limit_ = records.size();
  replaying_ = replay_cursor_ < replay_limit_;
  records_since_snapshot_ = 0;
  rederive_running();
  if (!init_done_) init_pass();
  main_loop();
  finalize();
  return report_;
}

void QueueEventLoop::init_pass() {
  if (injector_ != nullptr) {
    while (wakeup_idx_ < wakeups_.size() && wakeups_[wakeup_idx_] <= now_)
      ++wakeup_idx_;
    apply_fault_events();  // t = 0 events precede the first placement
    if (mode_faults_on_) update_mode();
  }
  start_eligible();
  if (injector_ != nullptr) guard_sample();
  init_done_ = true;
}

void QueueEventLoop::main_loop() {
  for (;;) {
    maybe_snapshot();
    // 1. Due injector events: cap claw-backs whose latency elapsed, then
    //    newly arrived plan events (crashes must retire nodes before any
    //    start at this instant), then expired retry backoffs.
    bool acted = false;
    if (injector_ != nullptr) {
      for (auto it = enforcements_.begin(); it != enforcements_.end();) {
        if (it->at_s <= now_) {
          enforcement_pending_[static_cast<std::size_t>(it->node)] = false;
          claw_back(it->node);
          it = enforcements_.erase(it);
          acted = true;
        } else {
          ++it;
        }
      }
      while (wakeup_idx_ < wakeups_.size() && wakeups_[wakeup_idx_] <= now_) {
        ++wakeup_idx_;
        acted = true;
      }
      for (auto it = retry_wakeups_.begin(); it != retry_wakeups_.end();) {
        if (*it <= now_) {
          it = retry_wakeups_.erase(it);
          acted = true;
        } else {
          ++it;
        }
      }
      if (acted) {
        apply_fault_events();
        if (mode_faults_on_) update_mode();
      }
    }
    // 1b. Due redistribution work: claw-backs whose reaction latency
    //     elapsed, then the periodic slack-sampling tick (frozen while the
    //     meters are dark — stale samples must not drive claw-backs).
    if (redist_on_) {
      for (auto it = pending_claws_.begin(); it != pending_claws_.end();) {
        if (it->at_s <= now_) {
          apply_claw(*it);
          it = pending_claws_.erase(it);
          acted = true;
        } else {
          ++it;
        }
      }
      if (!running_.empty() && next_tick_s_ <= now_ && !meters_dark_) {
        redist_tick();
        acted = true;
      }
      while (next_tick_s_ <= now_) next_tick_s_ += options_.redist.period_s;
    }

    // 2. Due completions, one per pass with a start pass after each.
    if (finish_one_due()) {
      start_eligible();
      if (injector_ != nullptr) guard_sample();
      if (redist_on_) try_regrant();
      continue;
    }
    // 3. An event without a completion still frees or consumes capacity
    //    (crashed node gone, cap clawed back, retry eligible): start pass.
    if (acted) {
      start_eligible();
      if (injector_ != nullptr) guard_sample();
      if (redist_on_) try_regrant();
      continue;
    }

    // 4. Nothing due at `now`: advance to the next instant anything happens.
    bool any_pending = false;
    double next = kInf;
    for (const auto& r : running_) next = std::min(next, r.end_s);
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (state_[j] != State::kPending) continue;
      any_pending = true;
      if (eligible_s_[j] > now_) next = std::min(next, eligible_s_[j]);
    }
    if (injector_ != nullptr && (!running_.empty() || any_pending)) {
      if (wakeup_idx_ < wakeups_.size())
        next = std::min(next, wakeups_[wakeup_idx_]);
      for (const auto& e : enforcements_) next = std::min(next, e.at_s);
    }
    if (redist_on_) {
      if (!running_.empty()) next = std::min(next, next_tick_s_);
      for (const auto& c : pending_claws_) next = std::min(next, c.at_s);
    }
    if (next == kInf) break;
    if (injector_ != nullptr)
      guard_.account(next - now_, true_cluster_power(now_));
    now_ = next;
  }
}

void QueueEventLoop::finalize() {
  // Jobs still pending when nothing can ever happen again (every node dead,
  // or the budget unreachable) are failures, not hangs. Without an injector
  // this is unreachable: a lone job always fits an idle cluster.
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (state_[j] != State::kPending) continue;
    CLIP_ENSURE(injector_ != nullptr,
                "job never started: " + jobs_[j].app.name);
    auto& out = report_.jobs[j];
    out.app = jobs_[j].app.name;
    out.parameters = jobs_[j].app.parameters;
    out.attempts = attempts_[j];
    out.completed = false;
    state_[j] = State::kFailed;
    ++report_.jobs_failed;
    obs::count(action_obs(), "queue.jobs_failed");
    if (journal_ != nullptr)
      jlog("fail", payload("job=", j, " reason=stranded"));
  }

  report_.makespan_s = 0.0;
  double turnaround = 0.0;
  for (const auto& r : report_.jobs) {
    report_.makespan_s = std::max(report_.makespan_s, r.end_s);
    turnaround += r.turnaround_s();
  }
  report_.mean_turnaround_s = turnaround / static_cast<double>(jobs_.size());
  report_.node_seconds_available = report_.makespan_s * total_nodes_;
  report_.violation_s = guard_.violation_s();
  report_.violation_ws = guard_.violation_ws();
  report_.meter_reads_rejected = guard_.rejected_reads();
  if (injector_ != nullptr) {
    obs::gauge_set(obs_, "budget.violation_s", report_.violation_s);
    obs::gauge_set(obs_, "budget.violation_ws", report_.violation_ws);
    if (report_.meter_reads_rejected > 0)
      obs::count(action_obs(), "fault.meter_reads_rejected",
                 report_.meter_reads_rejected);
  }
  report_.redist_regrants_rejected = guard_.regrants_rejected();
  if (redist_on_) {
    obs::gauge_set(obs_, "redist.reclaimed_w", report_.redist_reclaimed_w);
    obs::gauge_set(obs_, "redist.granted_w", report_.redist_granted_w);
  }
  if (timeline_ != nullptr)
    timeline_->record("budget.violation_s", report_.makespan_s,
                      report_.violation_s);
  if (journal_ != nullptr)
    jlog("end", payload("makespan=", report_.makespan_s, " violation_s=",
                        report_.violation_s));
  publish_status(false);
}

// --- degraded-mode state machine (docs/robustness.md) ----------------------
// Only ever called when the plan contains blackout or budget-cut windows
// (mode_faults_on_), so every other run never touches this path.

void QueueEventLoop::update_mode() {
  const double factor = injector_->budget_cut_factor(now_);
  const bool dark = injector_->meters_blacked_out(now_);
  if (factor != applied_factor_) {
    effective_budget_ =
        factor == 1.0 ? total_budget_ : total_budget_ * factor;
    guard_.set_budget(Watts(effective_budget_));
    if (factor < applied_factor_) brownout_clawback();
    applied_factor_ = factor;
  }
  meters_dark_ = dark;
  admission_paused_ = factor < 1.0;
  const DegradedMode next_mode =
      factor < 1.0
          ? DegradedMode::kBudgetBrownout
          : (dark ? DegradedMode::kMeterBlackout : DegradedMode::kNormal);
  if (next_mode == mode_) return;
  mode_ = next_mode;
  obs::count(action_obs(), "mode.transitions");
  obs::gauge_set(action_obs(), "mode.current", static_cast<double>(mode_));
  if (timeline_ != nullptr) {
    timeline_->event("mode", now_, to_string(mode_));
    timeline_->record("mode.current", now_, static_cast<double>(mode_));
  }
  if (journal_ != nullptr)
    jlog("mode", payload("to=", to_string(mode_), " t=", now_, " factor=",
                         factor));
  publish_status(true);
}

// Entering BUDGET_BROWNOUT: the facility cut the budget under the running
// reservations, so claw every live job back proportionally (never below the
// queue's minimum viable reservation — a residual overage then shows up
// honestly as violation-seconds against the cut budget).
void QueueEventLoop::brownout_clawback() {
  double reserved = 0.0;
  for (const auto& r : running_) reserved += r.power_w;
  if (reserved <= effective_budget_) return;
  const double ratio = effective_budget_ / reserved;
  for (auto& r : running_) {
    if (r.crashed) continue;
    const int n_nodes = static_cast<int>(r.node_ids.size());
    const double floor_w = options_.min_node_power_w * n_nodes;
    const double new_slice = std::max(r.power_w * ratio, floor_w);
    if (new_slice >= r.power_w) continue;
    const core::ScheduleDecision cut = scheduler_->schedule_constrained(
        jobs_[r.job_index].app, Watts(new_slice), n_nodes);
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, cut.cluster);
    const double clawed = r.power_w - new_slice;
    rebase_running(r, cut.cluster, m1, new_slice);
    obs::count(action_obs(), "mode.brownout_claws");
    if (timeline_ != nullptr)
      timeline_->event("mode", now_,
                       "brownout-claw " + report_.jobs[r.job_index].app +
                           " w=" + format_double(clawed, 1));
    if (journal_ != nullptr)
      jlog("brownout-claw", payload("job=", r.job_index, " w=", new_slice));
  }
}

// --- journaling -------------------------------------------------------------

void QueueEventLoop::jlog(std::string_view kind, std::string payload) {
  if (journal_ == nullptr) return;
  append_or_verify(kind, std::move(payload));
  ++records_since_snapshot_;
}

void QueueEventLoop::append_or_verify(std::string_view kind,
                                      std::string payload) {
  if (replay_cursor_ < replay_limit_) {
    const JournalRecord& expect = journal_->records()[replay_cursor_];
    if (expect.kind == kind && expect.payload == payload) {
      ++replay_cursor_;
      if (replay_cursor_ >= replay_limit_) replaying_ = false;
      obs::count(obs_, "journal.replayed");
      return;
    }
    // The surviving suffix diverges from re-execution — corruption the CRC
    // could not catch. Salvage: truncate it, log the gap, append fresh.
    journal_->truncate(replay_cursor_);
    replay_limit_ = replay_cursor_;
    replaying_ = false;
    obs::count(obs_, "journal.gaps");
    if (timeline_ != nullptr)
      timeline_->event("journal", now_,
                       "gap: replay diverged at seq " +
                           std::to_string(journal_->size() + 1));
  }
  journal_->append(kind, std::move(payload));
  obs::count(obs_, "journal.records");
}

void QueueEventLoop::emit_snapshot() {
  if (journal_ == nullptr) return;
  append_or_verify("snapshot", serialize_state());
  records_since_snapshot_ = 0;
  obs::count(obs_, "journal.snapshots");
}

void QueueEventLoop::maybe_snapshot() {
  if (journal_ == nullptr) return;
  if (records_since_snapshot_ < journal_->options().snapshot_every) return;
  emit_snapshot();
}

std::string QueueEventLoop::begin_payload() const {
  std::string os(kSnapshotFormat);
  os += " budget=" + obs::format_exact(total_budget_) +
        " nodes=" + std::to_string(total_nodes_) +
        " jobs=" + std::to_string(jobs_.size());
  os += options_.backfill ? " backfill=1" : " backfill=0";
  os += redist_on_ ? " redist=1" : " redist=0";
  os += injector_ != nullptr ? " injector=1" : " injector=0";
  os += timeline_ != nullptr ? " timeline=1" : " timeline=0";
  // Token appended only when tracing is on: journals written before tracing
  // existed (or with it off) keep their exact bytes, while a traced journal
  // recovered with a different trace configuration fails the begin check
  // loudly instead of diverging record by record.
  if (options_.trace.enabled)
    os += " traceseed=" + std::to_string(options_.trace.seed);
  return os;
}

std::string QueueEventLoop::admits_payload() const {
  // One record for the whole job stream (rather than one per job): admits
  // are static config, and per-record cost is what the recovery bench
  // bounds. Recovery compares this payload verbatim, it never splits it.
  std::string os;
  os.reserve(40 * jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (j > 0) os += ';';
    os += "job=";
    os += std::to_string(j);
    os += " app=";
    os += journal_escape(jobs_[j].app.name);
    os += " nodes=";
    os += std::to_string(jobs_[j].requested_nodes);
  }
  return os;
}

QueueEventLoop::JobRow QueueEventLoop::job_row(State state, int attempts,
                                               double eligible_s,
                                               const QueuedJobResult& r) {
  JobRow row;
  row.state = state;
  row.attempts = attempts;
  row.nodes = r.nodes;
  row.report_attempts = r.attempts;
  row.crashed_node = r.crashed_node;
  row.completed = r.completed;
  row.doubles = {std::bit_cast<std::uint64_t>(eligible_s),
                 std::bit_cast<std::uint64_t>(r.submit_s),
                 std::bit_cast<std::uint64_t>(r.start_s),
                 std::bit_cast<std::uint64_t>(r.end_s),
                 std::bit_cast<std::uint64_t>(r.budget_w),
                 std::bit_cast<std::uint64_t>(r.power_w)};
  return row;
}

QueueEventLoop::JobRow QueueEventLoop::job_row(std::size_t j) const {
  return job_row(state_[j], attempts_[j], eligible_s_[j], report_.jobs[j]);
}

std::string QueueEventLoop::serialize_state() {
  // Snapshots fire every JournalOptions::snapshot_every records, making this
  // the journal's hot path; build the payload with direct appends into one
  // reserved string (ostringstream's << machinery dominated the journal-on
  // overhead priced by bench/recovery.cpp). The job table and the flight
  // record go in as deltas against the previous snapshot, so a snapshot
  // costs what changed rather than the whole run so far.
  std::string os;
  os.reserve(1024 + 224 * running_.size());
  const auto num = [&os](long long v) { os += std::to_string(v); };
  const auto dbl = [&os](double v) { obs::append_exact(os, v); };
  os += "init=";
  os += init_done_ ? '1' : '0';
  os += " now=";
  dbl(now_);
  os += " mode=";
  num(static_cast<int>(mode_));
  os += " ebud=";
  dbl(effective_budget_);
  os += " factor=";
  dbl(applied_factor_);
  os += " dark=";
  os += meters_dark_ ? '1' : '0';
  os += " pause=";
  os += admission_paused_ ? '1' : '0';
  os += " alive=";
  os += bits(node_alive_);
  os += " busy=";
  os += bits(node_busy_);
  os += " pend=";
  os += bits(enforcement_pending_);
  os += " seen.crash=";
  os += bits(crash_seen_);
  os += " seen.degrade=";
  os += bits(degrade_seen_);
  os += " seen.meter=";
  os += bits(meter_seen_);
  os += " seen.capviol=";
  os += bits(capviol_seen_);
  os += " seen.blackout=";
  os += bits(blackout_seen_);
  os += " seen.cut=";
  os += bits(cut_seen_);
  os += " widx=";
  num(static_cast<long long>(wakeup_idx_));
  os += " tick=";
  dbl(next_tick_s_);
  os += " enf=";
  for (std::size_t i = 0; i < enforcements_.size(); ++i) {
    if (i > 0) os += ',';
    dbl(enforcements_[i].at_s);
    os += ':';
    num(enforcements_[i].node);
  }
  os += " retry=";
  for (std::size_t i = 0; i < retry_wakeups_.size(); ++i) {
    if (i > 0) os += ',';
    dbl(retry_wakeups_[i]);
  }
  os += " claw=";
  for (std::size_t i = 0; i < pending_claws_.size(); ++i) {
    if (i > 0) os += ',';
    dbl(pending_claws_[i].at_s);
    os += ':';
    num(static_cast<long long>(pending_claws_[i].job));
    os += ':';
    num(pending_claws_[i].attempt);
    os += ':';
    dbl(pending_claws_[i].watts);
  }
  os += " run.n=";
  num(static_cast<long long>(running_.size()));
  for (std::size_t k = 0; k < running_.size(); ++k) {
    const Running& r = running_[k];
    os += " run.";
    num(static_cast<long long>(k));
    os += '=';
    num(static_cast<long long>(r.job_index));
    os += ':';
    dbl(r.start_s);
    os += ':';
    dbl(r.end_s);
    os += ':';
    dbl(r.power_w);
    os += ':';
    dbl(r.true_power_w);
    os += ':';
    dbl(r.energy_j);
    os += ':';
    os += r.crashed ? '1' : '0';
    os += ':';
    num(r.crashed_node);
    os += ':';
    dbl(r.prof_s);
    os += ':';
    dbl(r.full_energy_j);
    os += ':';
    dbl(r.frac_done);
    os += ':';
    dbl(r.change_s);
    os += ':';
    dbl(r.ff_remaining);
    os += " ids.";
    num(static_cast<long long>(k));
    os += '=';
    os += join_ints(r.node_ids, '/');
    os += " cfg.";
    num(static_cast<long long>(k));
    os += '=';
    num(r.config.nodes);
    os += ':';
    num(r.config.node.threads);
    os += ':';
    num(static_cast<int>(r.config.node.affinity));
    os += ':';
    num(static_cast<int>(r.config.node.mem_level));
    os += ':';
    dbl(r.config.node.cpu_cap.value());
    os += ':';
    dbl(r.config.node.mem_cap.value());
    os += " ovr.";
    num(static_cast<long long>(k));
    os += '=';
    if (r.config.cpu_cap_overrides.empty()) {
      os += '-';
    } else {
      for (std::size_t i = 0; i < r.config.cpu_cap_overrides.size(); ++i) {
        if (i > 0) os += ';';
        dbl(r.config.cpu_cap_overrides[i].value());
      }
    }
  }
  // Rows of the jobs whose state, attempts, eligibility or report row
  // changed since the previous snapshot, against a baseline that starts as
  // the constructor left every job: the state recovery's fold starts from.
  if (snap_rows_.empty())
    snap_rows_.assign(jobs_.size(),
                      job_row(State::kPending, 0, 0.0, QueuedJobResult{}));
  os += " rows=";
  const std::size_t rows_at = os.size();
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const JobRow row = job_row(j);
    if (row == snap_rows_[j]) continue;
    snap_rows_[j] = row;
    const QueuedJobResult& out = report_.jobs[j];
    if (os.size() > rows_at) os += ',';
    num(static_cast<long long>(j));
    os += ':';
    os += static_cast<char>('0' + static_cast<int>(state_[j]));
    os += ':';
    num(attempts_[j]);
    os += ':';
    dbl(eligible_s_[j]);
    os += ':';
    dbl(out.submit_s);
    os += ':';
    dbl(out.start_s);
    os += ':';
    dbl(out.end_s);
    os += ':';
    num(out.nodes);
    os += ':';
    dbl(out.budget_w);
    os += ':';
    dbl(out.power_w);
    os += ':';
    num(out.attempts);
    os += ':';
    os += out.completed ? '1' : '0';
    os += ':';
    num(out.crashed_node);
  }
  if (os.size() == rows_at) os += '-';
  os += " acc=";
  dbl(report_.total_energy_j);
  os += ':';
  dbl(report_.node_seconds_used);
  os += " racc=";
  num(report_.retries);
  os += ':';
  num(report_.jobs_failed);
  os += ':';
  num(report_.caps_reprogrammed);
  os += " cn=";
  if (report_.crashed_nodes.empty())
    os += '-';
  else
    os += join_ints(report_.crashed_nodes, '/');
  os += " racc2=";
  num(report_.redist_claw_backs);
  os += ':';
  num(report_.redist_regrants);
  os += ':';
  num(report_.redist_subsystem_shifts);
  os += ':';
  dbl(report_.redist_reclaimed_w);
  os += ':';
  dbl(report_.redist_granted_w);
  os += " guard=";
  dbl(guard_.violation_s());
  os += ':';
  dbl(guard_.violation_ws());
  os += ':';
  num(guard_.rejected_reads());
  os += ':';
  num(guard_.regrants_rejected());
  os += ':';
  dbl(guard_.budget_w());
  os += " vends=";
  if (injector_ == nullptr) {
    os += '-';
  } else {
    const std::vector<double>& ends = injector_->violation_ends();
    for (std::size_t i = 0; i < ends.size(); ++i) {
      if (i > 0) os += ',';
      dbl(ends[i]);
    }
  }
  os += " det=";
  if (!redist_on_) {
    os += '-';
  } else {
    bool first = true;
    for (const std::string& name : detector_.samples().series_names()) {
      // Series are named node<N>.power_w — the node id is embedded.
      const int node = std::atoi(name.c_str() + 4);
      for (const auto& p : detector_.samples().samples(name)) {
        if (!first) os += ',';
        first = false;
        num(node);
        os += ':';
        dbl(p.t_s);
        os += ':';
        dbl(p.value);
      }
    }
  }
  os += " tl=";
  if (timeline_ != nullptr)
    timeline_->write_delta(os, snap_mark_);
  else
    os += '-';
  return os;
}

void QueueEventLoop::restore_state(std::size_t snap) {
  const std::vector<JournalRecord>& records = journal_->records();
  const long long last_job = static_cast<long long>(jobs_.size()) - 1;
  const long long last_node = total_nodes_ - 1;

  // The job table and the flight record: every snapshot's deltas, folded in
  // order onto the state the constructor left.
  Tokens m;
  for (std::size_t i = 0; i <= snap; ++i) {
    if (records[i].kind != "snapshot") continue;
    m = parse_tokens(records[i].payload);
    std::string_view rows = tok(m, "rows");
    if (rows == "-") rows = {};
    for (const std::string_view row : split(rows, ',')) {
      const std::vector<std::string_view> f = split(row, ':');
      CLIP_REQUIRE(f.size() == 13, "malformed snapshot job row: '" +
                                       std::string(row) + "'");
      const auto j = static_cast<std::size_t>(
          parse_bounded(f[0], 0, last_job, "job row index"));
      // clip-lint: allow(J1) restore_state is the journal's inverse: it rebuilds state FROM snapshot records during recover(), so journaling here would recurse
      state_[j] = static_cast<State>(parse_bounded(f[1], 0, 3, "job state"));
      attempts_[j] = static_cast<int>(parse_int(f[2], "attempts"));
      eligible_s_[j] = parse_double(f[3], "eligible_s");
      QueuedJobResult& out = report_.jobs[j];
      out.submit_s = parse_double(f[4], "report submit");
      out.start_s = parse_double(f[5], "report start");
      out.end_s = parse_double(f[6], "report end");
      out.nodes = static_cast<int>(parse_int(f[7], "report nodes"));
      out.budget_w = parse_double(f[8], "report budget");
      out.power_w = parse_double(f[9], "report power");
      out.attempts = static_cast<int>(parse_int(f[10], "report attempts"));
      out.completed = parse_int(f[11], "report completed") != 0;
      out.crashed_node =
          static_cast<int>(parse_int(f[12], "report crash node"));
    }
    if (timeline_ != nullptr) {
      const std::string_view tl = tok(m, "tl");
      CLIP_REQUIRE(tl != "-", "snapshot has no timeline but one is attached");
      timeline_->apply_delta(tl);
    }
  }
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    // Strings are re-derived, not serialized: a job has its names set from
    // the instant its first placement started.
    if (attempts_[j] > 0) {
      report_.jobs[j].app = jobs_[j].app.name;
      report_.jobs[j].parameters = jobs_[j].app.parameters;
    }
  }
  // The next snapshot's deltas start from here, as the dying run's did.
  snap_rows_.resize(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) snap_rows_[j] = job_row(j);
  if (timeline_ != nullptr) snap_mark_ = timeline_->mark();

  // Everything else the latest snapshot (whose tokens `m` holds) carries
  // whole.
  init_done_ = parse_int(tok(m, "init"), "init flag") != 0;
  now_ = parse_double(tok(m, "now"), "now");
  mode_ = static_cast<DegradedMode>(parse_bounded(
      tok(m, "mode"), 0, static_cast<int>(DegradedMode::kBudgetBrownout),
      "mode"));
  effective_budget_ = parse_double(tok(m, "ebud"), "effective budget");
  applied_factor_ = parse_double(tok(m, "factor"), "budget factor");
  meters_dark_ = parse_int(tok(m, "dark"), "dark flag") != 0;
  admission_paused_ = parse_int(tok(m, "pause"), "pause flag") != 0;

  restore_bits(node_alive_, tok(m, "alive"), "alive");
  restore_bits(node_busy_, tok(m, "busy"), "busy");
  restore_bits(enforcement_pending_, tok(m, "pend"), "pend");
  restore_bits(crash_seen_, tok(m, "seen.crash"), "seen.crash");
  restore_bits(degrade_seen_, tok(m, "seen.degrade"), "seen.degrade");
  restore_bits(meter_seen_, tok(m, "seen.meter"), "seen.meter");
  restore_bits(capviol_seen_, tok(m, "seen.capviol"), "seen.capviol");
  restore_bits(blackout_seen_, tok(m, "seen.blackout"), "seen.blackout");
  restore_bits(cut_seen_, tok(m, "seen.cut"), "seen.cut");

  wakeup_idx_ =
      static_cast<std::size_t>(parse_int(tok(m, "widx"), "wakeup index"));
  next_tick_s_ = parse_double(tok(m, "tick"), "next tick");

  enforcements_.clear();
  for (const std::string_view e : split(tok(m, "enf"), ',')) {
    const std::vector<std::string_view> f = split(e, ':');
    CLIP_REQUIRE(f.size() == 2, "malformed snapshot enforcement: '" +
                                    std::string(e) + "'");
    enforcements_.push_back(
        {parse_double(f[0], "enforcement at"),
         static_cast<int>(
             parse_bounded(f[1], 0, last_node, "enforcement node"))});
  }
  retry_wakeups_.clear();
  for (const std::string_view w : split(tok(m, "retry"), ','))
    retry_wakeups_.push_back(parse_double(w, "retry wakeup"));
  pending_claws_.clear();
  for (const std::string_view c : split(tok(m, "claw"), ',')) {
    const std::vector<std::string_view> f = split(c, ':');
    CLIP_REQUIRE(f.size() == 4,
                 "malformed snapshot claw: '" + std::string(c) + "'");
    pending_claws_.push_back(
        {parse_double(f[0], "claw at"),
         static_cast<std::size_t>(parse_int(f[1], "claw job")),
         static_cast<int>(parse_int(f[2], "claw attempt")),
         parse_double(f[3], "claw watts")});
  }

  running_.clear();
  const std::size_t run_n =
      static_cast<std::size_t>(parse_int(tok(m, "run.n"), "running count"));
  for (std::size_t k = 0; k < run_n; ++k) {
    const std::string key = std::to_string(k);
    const std::vector<std::string_view> f = split(tok(m, "run." + key), ':');
    CLIP_REQUIRE(f.size() == 13, "malformed snapshot running record");
    Running r;
    r.job_index = static_cast<std::size_t>(
        parse_bounded(f[0], 0, last_job, "running job index"));
    r.start_s = parse_double(f[1], "running start");
    r.end_s = parse_double(f[2], "running end");
    r.power_w = parse_double(f[3], "running slice");
    r.true_power_w = parse_double(f[4], "running draw");
    r.energy_j = parse_double(f[5], "running energy");
    r.crashed = parse_int(f[6], "running crashed") != 0;
    r.crashed_node = static_cast<int>(parse_int(f[7], "running crash node"));
    r.prof_s = parse_double(f[8], "running prof_s");
    r.full_energy_j = parse_double(f[9], "running full energy");
    r.frac_done = parse_double(f[10], "running frac");
    r.change_s = parse_double(f[11], "running change_s");
    r.ff_remaining = parse_double(f[12], "running ff_remaining");
    for (const std::string_view id : split(tok(m, "ids." + key), '/'))
      r.node_ids.push_back(
          static_cast<int>(parse_bounded(id, 0, last_node, "node id")));
    const std::vector<std::string_view> cf = split(tok(m, "cfg." + key), ':');
    CLIP_REQUIRE(cf.size() == 6, "malformed snapshot running config");
    r.config.nodes = static_cast<int>(parse_int(cf[0], "config nodes"));
    r.config.node.threads =
        static_cast<int>(parse_int(cf[1], "config threads"));
    r.config.node.affinity =
        static_cast<parallel::AffinityPolicy>(parse_bounded(
            cf[2], 0, static_cast<int>(parallel::AffinityPolicy::kScatter),
            "config affinity"));
    r.config.node.mem_level = static_cast<sim::MemPowerLevel>(
        parse_bounded(cf[3], 0, static_cast<int>(sim::MemPowerLevel::kL3),
                      "config mem level"));
    r.config.node.cpu_cap = Watts(parse_double(cf[4], "config cpu cap"));
    r.config.node.mem_cap = Watts(parse_double(cf[5], "config mem cap"));
    const std::string_view ovr = tok(m, "ovr." + key);
    if (ovr != "-")
      for (const std::string_view o : split(ovr, ';'))
        r.config.cpu_cap_overrides.push_back(
            Watts(parse_double(o, "config cap override")));
    running_.push_back(std::move(r));
  }

  {
    const std::vector<std::string_view> f = split(tok(m, "acc"), ':');
    CLIP_REQUIRE(f.size() == 2, "malformed snapshot accounting");
    report_.total_energy_j = parse_double(f[0], "total energy");
    report_.node_seconds_used = parse_double(f[1], "node seconds");
  }
  {
    const std::vector<std::string_view> f = split(tok(m, "racc"), ':');
    CLIP_REQUIRE(f.size() == 3, "malformed snapshot resilience accounting");
    report_.retries = static_cast<int>(parse_int(f[0], "retries"));
    report_.jobs_failed = static_cast<int>(parse_int(f[1], "jobs failed"));
    report_.caps_reprogrammed =
        static_cast<int>(parse_int(f[2], "caps reprogrammed"));
  }
  report_.crashed_nodes.clear();
  {
    const std::string_view cn = tok(m, "cn");
    if (cn != "-")
      for (const std::string_view n : split(cn, '/'))
        report_.crashed_nodes.push_back(
            static_cast<int>(parse_int(n, "crashed node")));
  }
  {
    const std::vector<std::string_view> f = split(tok(m, "racc2"), ':');
    CLIP_REQUIRE(f.size() == 5,
                 "malformed snapshot redistribution accounting");
    report_.redist_claw_backs =
        static_cast<int>(parse_int(f[0], "claw backs"));
    report_.redist_regrants = static_cast<int>(parse_int(f[1], "regrants"));
    report_.redist_subsystem_shifts =
        static_cast<int>(parse_int(f[2], "shifts"));
    report_.redist_reclaimed_w = parse_double(f[3], "reclaimed watts");
    report_.redist_granted_w = parse_double(f[4], "granted watts");
  }
  {
    const std::vector<std::string_view> f = split(tok(m, "guard"), ':');
    CLIP_REQUIRE(f.size() == 5, "malformed snapshot guard state");
    guard_.restore_counters(
        parse_double(f[0], "violation_s"), parse_double(f[1], "violation_ws"),
        static_cast<std::uint64_t>(parse_int(f[2], "rejected reads")),
        static_cast<std::uint64_t>(parse_int(f[3], "rejected regrants")));
    guard_.set_budget(Watts(parse_double(f[4], "guard budget")));
  }
  {
    const std::string_view ve = tok(m, "vends");
    if (injector_ != nullptr) {
      CLIP_REQUIRE(ve != "-",
                   "snapshot has no injector state but one is attached");
      std::vector<double> ends;
      for (const std::string_view v : split(ve, ','))
        ends.push_back(parse_double(v, "violation end"));
      injector_->restore_violation_ends(ends);
    }
  }
  if (redist_on_) {
    const std::string_view det = tok(m, "det");
    CLIP_REQUIRE(det != "-",
                 "snapshot has no detector samples but redistribution is on");
    for (const std::string_view entry : split(det, ',')) {
      const std::vector<std::string_view> f = split(entry, ':');
      CLIP_REQUIRE(f.size() == 3, "malformed snapshot detector sample: '" +
                                      std::string(entry) + "'");
      detector_.observe(static_cast<int>(parse_int(f[0], "detector node")),
                        parse_double(f[1], "detector t"),
                        parse_double(f[2], "detector draw"));
    }
  }
}

// In-flight placements were resolved against the fault plan when they
// launched or last re-based; the snapshot stores that resolution. Re-derive
// each from the restored change_s / ff_remaining via FaultInjector::resolve
// (pure over the immutable crash/degrade schedule) and require bit-equality
// — a recovery against the wrong fault plan fails here, loudly.
void QueueEventLoop::rederive_running() {
  if (injector_ == nullptr) return;
  for (const Running& r : running_) {
    const fault::RunResolution res =
        injector_->resolve(r.change_s, r.ff_remaining, r.node_ids);
    CLIP_ENSURE(res.end_s == r.end_s && res.crashed == r.crashed &&
                    res.crashed_node == r.crashed_node,
                "recovered placement does not re-derive under the fault plan "
                "(job " + std::to_string(r.job_index) + ")");
  }
}

QueueReport run_serially(
    sim::SimExecutor& executor, core::ClipScheduler& scheduler,
    Watts cluster_budget,
    const std::vector<workloads::WorkloadSignature>& jobs) {
  CLIP_REQUIRE(!jobs.empty(), "need at least one job");
  QueueReport report;
  double now = 0.0;
  for (const auto& job : jobs) {
    const core::ScheduleDecision d =
        scheduler.schedule(job, cluster_budget);
    const sim::Measurement m = executor.run_exact(job, d.cluster);
    QueuedJobResult r;
    r.app = job.name;
    r.parameters = job.parameters;
    r.submit_s = 0.0;
    r.start_s = now;
    now += m.time.value() + d.profiling_cost.value();
    r.end_s = now;
    r.nodes = d.cluster.nodes;
    r.budget_w = cluster_budget.value();
    r.power_w = m.avg_power.value();
    report.total_energy_j += m.energy.value();
    report.node_seconds_used += r.nodes * (r.end_s - r.start_s);
    report.jobs.push_back(std::move(r));
  }
  report.makespan_s = now;
  double turnaround = 0.0;
  for (const auto& r : report.jobs) turnaround += r.turnaround_s();
  report.mean_turnaround_s =
      turnaround / static_cast<double>(jobs.size());
  report.node_seconds_available =
      report.makespan_s * executor.spec().nodes;
  return report;
}

}  // namespace clip::runtime

#include "runtime/queue.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <limits>
#include <numeric>
#include <optional>

#include "obs/telemetry_server.hpp"
#include "obs/timeline.hpp"
#include "runtime/journal.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

// The event loop's journaled state: every mutation of these fields must
// reach the journal on some intra-file path, or a crash between the
// mutation and the next record makes recovery diverge. clip-analyze's J1
// rule enforces the pairing function-by-function.
// clip-lint: journaled(state_, eligible_s_, enforcements_, retry_wakeups_, pending_claws_, running_, applied_factor_, meters_dark_)

namespace clip::runtime {

namespace {

/// Simulated-seconds wait times: 0.125 s … ~2000 s.
const obs::HistogramSpec& wait_s_spec() {
  static const obs::HistogramSpec spec =
      obs::HistogramSpec::exponential(0.125, 2.0, 14);
  return spec;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `options`, once every field has been checked (throws naming the field).
const QueueOptions& validate_options(const QueueOptions& options) {
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
  options.guard.validate();
  options.redist.validate();
  return options;
}

// --- journal payloads and timeline labels ----------------------------------
// A payload or label is rendered piece by piece into one reused buffer and
// copied out at its exact size. An operator+ chain regrows its string at
// every doubling and makes a temporary per number, which cost more than
// appending the record (bench/recovery prices the journal). QueueEventLoop::
// jlog renders the pieces only when a journal is attached, so a piece that
// costs something to render is passed as its inputs.
void put(std::string& out, std::string_view piece) { out += piece; }
void put(std::string& out, const char* piece) { out += piece; }
void put(std::string& out, double v) { obs::append_exact(out, v); }
void put(std::string& out, bool) = delete;  // spell flags out as "1"/"0"
template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}
/// Node ids, joined by '/'.
void put(std::string& out, const std::vector<int>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += '/';
    put(out, ids[i]);
  }
}
/// A piece rendered by calling it.
template <std::invocable F>
void put(std::string& out, const F& make) {
  put(out, make());
}

/// Job `job`'s " trace=<16hex>" suffix; nothing when tracing is off. One
/// piece renders it into journal payloads and timeline labels alike, so
/// both stay greppable by one token.
struct TraceOf {
  const std::vector<obs::TraceContext>& traces;
  std::size_t job;
};
void put(std::string& out, const TraceOf& t) {
  if (t.job >= t.traces.size()) return;
  out += " trace=";
  out += t.traces[t.job].hex();
}

template <typename... Pieces>
std::string render(const Pieces&... pieces) {
  thread_local std::string buffer;
  buffer.clear();
  (put(buffer, pieces), ...);
  return buffer;
}

// --- snapshots ---------------------------------------------------------------
// A snapshot is `key=value` tokens separated by spaces. A value is fields
// joined by ':', or a list of such entries joined by ',', '/' or ';'.
// Doubles render via obs::append_exact, so a restore parses the exact bits,
// and it never emits any of these separators.
// QueueEventLoop::snapshot_fields lists every token once; the two classes
// below drive it in each direction.

/// An index or enum field: a reader refuses a value outside [lo, hi] by
/// `name`, so a restored snapshot never indexes past one of the loop's
/// tables.
template <typename T>
struct Ranged {
  T& value;
  long long lo;
  long long hi;
  const char* name;
};
template <typename T>
Ranged<T> ranged(T& value, long long lo, long long hi, const char* name) {
  return {value, lo, hi, name};
}

/// What a list token holds when it has no entries to write: nothing
/// (kEmpty), '-' (kDash), or '-' because the state it would hold belongs to
/// an attachment this loop does not have (kAbsent), which a reader skips.
enum class Blank { kEmpty, kDash, kAbsent };

/// Renders a snapshot. Snapshots fire every JournalOptions::snapshot_every
/// records, which makes this the journal's hot path: every field is
/// appended straight into one reserved string.
class SnapshotWriter {
 public:
  static constexpr bool kReads = false;
  explicit SnapshotWriter(std::string& out) : out_(out) {}

  template <typename... Fields>
  void token(std::string_view key, const Fields&... fields) {
    open(key);
    (*this)(fields...);
  }
  /// One entry per item, each written by `each(item)` through operator().
  template <typename T, typename Each>
  void list(std::string_view key, char sep, std::vector<T>& items,
            const Each& each, Blank blank = Blank::kEmpty) {
    open(key);
    if (blank == Blank::kAbsent || (blank == Blank::kDash && items.empty())) {
      out_ += '-';
      return;
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out_ += sep;
      first_ = true;
      each(items[i]);
    }
  }
  /// The points appended since `mark`, which advances.
  void timeline(std::string_view key, const obs::Timeline* timeline,
                obs::TimelineMark& mark) {
    open(key);
    if (timeline != nullptr)
      timeline->write_delta(out_, mark);
    else
      out_ += '-';
  }
  /// The current entry's next fields.
  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (field(fields), ...);
  }

 private:
  void open(std::string_view key) {
    if (!out_.empty()) out_ += ' ';
    out_ += key;
    out_ += '=';
    first_ = true;
  }
  template <typename T>
  void field(const T& v) {
    if (!first_) out_ += ':';
    first_ = false;
    write(v);
  }
  template <typename T>
  void write(const T& v) {  // doubles and integers, as journal payloads
    put(out_, v);
  }
  void write(bool v) { out_ += v ? '1' : '0'; }
  void write(Watts v) { put(out_, v.value()); }
  template <typename T>
  void write(const Ranged<T>& r) {
    put(out_, static_cast<long long>(r.value));
  }

  std::string& out_;
  bool first_ = true;
};

/// Restores a snapshot, looking each token up by key. Errors name the token
/// and the field's position in it; a Ranged field names itself.
class SnapshotReader {
 public:
  static constexpr bool kReads = true;
  explicit SnapshotReader(std::string_view payload) : payload_(payload) {}

  template <typename... Fields>
  void token(std::string_view key, Fields&&... fields) {
    begin(key, value(key), 0);
    (*this)(std::forward<Fields>(fields)...);
    end();
  }
  template <typename T, typename Each>
  void list(std::string_view key, char sep, std::vector<T>& items,
            const Each& each, Blank blank = Blank::kEmpty) {
    if (blank == Blank::kAbsent) return;
    std::string_view entries = value(key);
    items.clear();
    if (blank == Blank::kDash && entries == "-") return;
    for (std::size_t e = 1; !entries.empty(); ++e) {
      const std::size_t at = entries.find(sep);
      begin(key, entries.substr(0, at), e);
      entries.remove_prefix(at == std::string_view::npos ? entries.size()
                                                         : at + 1);
      each(items.emplace_back());
      end();
    }
  }
  void timeline(std::string_view key, obs::Timeline* timeline,
                const obs::TimelineMark&) {
    if (timeline == nullptr) return;
    const std::string_view delta = value(key);
    CLIP_REQUIRE(delta != "-", "snapshot has no timeline but one is attached");
    timeline->apply_delta(delta);
  }
  template <typename... Fields>
  void operator()(Fields&&... fields) {
    (get(std::forward<Fields>(fields)), ...);
  }

 private:
  std::string_view value(std::string_view key) const {
    // Values hold no spaces, so " key=" can only start a token.
    std::size_t at = 0;
    if (!payload_.starts_with(key) || payload_.substr(key.size(), 1) != "=") {
      std::string needle(" ");
      needle.append(key).push_back('=');
      at = payload_.find(needle);
      CLIP_REQUIRE(at != std::string_view::npos,
                   "snapshot is missing token '" + std::string(key) + "'");
      ++at;
    }
    const std::size_t from = at + key.size() + 1;
    return payload_.substr(from, payload_.find(' ', from) - from);
  }
  void begin(std::string_view key, std::string_view entry, std::size_t e) {
    key_ = key;
    rest_ = entry;
    entry_ = e;
    field_ = 0;
    done_ = false;
  }
  void end() {
    ++field_;
    CLIP_REQUIRE(done_, "malformed snapshot " + where() + ": unexpected");
  }
  std::string where() const {
    return "token '" + std::string(key_) + "'" +
           (entry_ > 0 ? " entry " + std::to_string(entry_) : "") +
           " field " + std::to_string(field_);
  }
  std::string_view field() {
    ++field_;
    CLIP_REQUIRE(!done_, "malformed snapshot " + where() + ": missing");
    const std::size_t at = rest_.find(':');
    done_ = at == std::string_view::npos;
    const std::string_view f = rest_.substr(0, at);
    rest_.remove_prefix(done_ ? rest_.size() : at + 1);
    return f;
  }
  template <typename T>
  void parse(T& v) {
    const std::string_view s = field();
    const std::optional<T> parsed = parse_whole<T>(s);
    CLIP_REQUIRE(parsed.has_value(),
                 "bad snapshot " + where() + ": '" + std::string(s) + "'");
    v = *parsed;
  }
  template <typename T>
  void get(T& v) {  // doubles and integers
    parse(v);
  }
  void get(bool& v) {
    const std::string_view s = field();
    CLIP_REQUIRE(s == "0" || s == "1",
                 "bad snapshot " + where() + ": '" + std::string(s) + "'");
    v = s == "1";
  }
  void get(Watts& v) {
    double w = 0.0;
    parse(w);
    v = Watts(w);
  }
  template <typename T>
  void get(Ranged<T> r) {
    long long v = 0;
    parse(v);
    CLIP_REQUIRE(v >= r.lo && v <= r.hi,
                 std::string("snapshot ") + r.name + " out of range: " +
                     std::to_string(v) + " not in [" + std::to_string(r.lo) +
                     ", " + std::to_string(r.hi) + "]");
    r.value = static_cast<T>(v);
  }

  std::string_view payload_;
  std::string_view key_;
  std::string_view rest_;
  std::size_t entry_ = 0;
  int field_ = 0;
  bool done_ = false;
};

/// The journal's snapshot encoding, named in every `begin` record:
/// snapshots carry job-row and timeline deltas that recovery folds in
/// order, the fault plan as one cursor, and no state derived from other
/// tokens. A journal without it was written in an earlier encoding.
constexpr std::string_view kSnapshotFormat = "snapfmt=4";

/// A job's report row before its first placement: no attempts yet.
QueuedJobResult unplaced_row() {
  QueuedJobResult row;
  row.attempts = 0;
  return row;
}

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

QueueEventLoop::QueueEventLoop(sim::SimExecutor& executor,
                               core::ClipScheduler& scheduler,
                               QueueOptions options, std::vector<QueueJob> jobs)
    : executor_(&executor),
      scheduler_(&scheduler),
      options_(validate_options(options)),
      jobs_(std::move(jobs)),
      total_nodes_(executor.spec().nodes),
      // A healthy node never draws above the machine's max node power; a
      // spiking meter usually reads more.
      guard_(options.guard, options.cluster_budget,
             executor.spec().max_node_w() * 1.5) {
  CLIP_REQUIRE(!jobs_.empty(), "queue needs at least one job");
  for (const auto& job : jobs_)
    CLIP_REQUIRE(job.requested_nodes >= 0 &&
                     job.requested_nodes <= total_nodes_,
                 "job '" + job.app.name + "' requested_nodes (" +
                     std::to_string(job.requested_nodes) +
                     ") exceeds the cluster's " +
                     std::to_string(total_nodes_) + " nodes");
  report_.jobs.assign(jobs_.size(), unplaced_row());
  // clip-lint: allow(J1) constructor pre-init: the "begin"+"admit" records written by run_fresh() re-derive this exact state, so nothing existed to lose yet
  state_.assign(jobs_.size(), State::kPending);
  eligible_s_.assign(jobs_.size(), 0.0);
  next_tick_s_ = options_.redist.period_s;
}

QueueEventLoop::~QueueEventLoop() = default;

obs::TelemetryServer* QueueEventLoop::telemetry_server() const {
  return telemetry_.get();
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
  snap.mode = to_string(mode());
  snap.journal_seq =
      journal_ != nullptr ? static_cast<std::uint64_t>(journal_->size()) : 0;
  snap.jobs_completed = done;
  snap.jobs_failed = report_.jobs_failed;
  snap.run_active = run_active;
  telemetry_->publish(snap);
}

DegradedMode QueueEventLoop::mode() const {
  if (applied_factor_ < 1.0) return DegradedMode::kBudgetBrownout;
  return meters_dark_ ? DegradedMode::kMeterBlackout : DegradedMode::kNormal;
}

// Every node is free but the ones a placement holds and the crashed ones no
// placement holds any more (a crashed placement keeps its nodes until its
// abort instant is processed).
int QueueEventLoop::free_nodes() const {
  int held = 0;
  int crashed_held = 0;
  for (const auto& r : running_) {
    held += static_cast<int>(r.node_ids.size());
    for (const int c : report_.crashed_nodes)
      crashed_held += static_cast<int>(
          std::count(r.node_ids.begin(), r.node_ids.end(), c));
  }
  const int crashed = static_cast<int>(report_.crashed_nodes.size());
  return total_nodes_ - held - (crashed - crashed_held);
}

double QueueEventLoop::free_power() const {
  double used = 0.0;
  for (const auto& r : running_) used += row_of(r).budget_w;
  return effective_budget() - used;
}

std::vector<int> QueueEventLoop::active_node_ids() const {
  std::vector<int> ids;
  for (const auto& r : running_)
    ids.insert(ids.end(), r.node_ids.begin(), r.node_ids.end());
  return ids;
}

double QueueEventLoop::true_cluster_power(double t) const {
  double watts = 0.0;
  for (const auto& r : running_) watts += row_of(r).power_w;
  return watts + injector_->cap_excess_w(active_node_ids(), t);
}

// Fault windows active at `t` for the flight recorder's `fault.active`
// series (crashes and degrades are permanent; meter faults, cap violations,
// blackouts and budget cuts are windowed). The windows are the plan's: a
// claw-back truncates a cap violation only in the injector
// (FaultInjector::violation_ends), so a clawed-back violation counts here
// until its planned end.
int QueueEventLoop::faults_active_at(double t) const {
  const fault::FaultPlan& plan = injector_->plan();
  int active = 0;
  for (const auto& c : plan.crashes)
    if (c.at_s <= t) ++active;
  for (const auto& d : plan.degrades)
    if (d.at_s <= t) ++active;
  for (const auto& f : plan.meter_faults)
    if (f.at_s <= t && t < f.at_s + f.duration_s) ++active;
  for (const auto& v : plan.cap_violations)
    if (v.at_s <= t && t < v.at_s + v.duration_s) ++active;
  for (const auto& b : plan.meter_blackouts)
    if (b.at_s <= t && t < b.at_s + b.duration_s) ++active;
  for (const auto& c : plan.budget_cuts)
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
  const double duration =
      m.time.value() + constrained.profiling_cost.value();
  // The lowest-numbered free nodes: neither crashed nor held.
  std::vector<bool> taken(static_cast<std::size_t>(total_nodes_), false);
  for (const int c : report_.crashed_nodes)
    taken[static_cast<std::size_t>(c)] = true;
  for (const auto& other : running_)
    for (const int n : other.node_ids)
      taken[static_cast<std::size_t>(n)] = true;
  r.node_ids.reserve(static_cast<std::size_t>(nodes_used));
  for (int n = 0; n < total_nodes_ &&
                  static_cast<int>(r.node_ids.size()) < nodes_used;
       ++n)
    if (!taken[static_cast<std::size_t>(n)]) r.node_ids.push_back(n);
  r.energy_j = m.energy.value();
  r.config = constrained.cluster;
  r.prof_s = constrained.profiling_cost.value();
  r.full_energy_j = m.energy.value();
  r.change_s = now_;
  r.ff_remaining = duration;

  auto& out = report_.jobs[j];
  out.app = jobs_[j].app.name;
  out.parameters = jobs_[j].app.parameters;
  out.start_s = now_;
  out.end_s = now_ + duration;
  out.nodes = nodes_used;
  // Reserve the job's full slice, not its measured draw: the RAPL caps
  // guarantee the slice is never exceeded, and only reserving the caps
  // keeps the cluster-wide bound airtight under transients.
  out.budget_w = slice;
  out.power_w = m.avg_power.value();
  ++out.attempts;
  out.completed = true;
  out.crashed_node = -1;
  if (injector_ != nullptr) {
    // Degrades stretch the run; a held node's crash aborts it.
    const fault::RunResolution res =
        injector_->resolve(now_, duration, r.node_ids);
    out.end_s = res.end_s;
    out.completed = !res.crashed;
    r.crashed_node = res.crashed_node;
  }
  if (timeline_ != nullptr) {
    timeline_->event("job", now_,
                     render("start ", out.app, " nodes=", nodes_used,
                            TraceOf{traces_, j}));
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
  // crashed run out.end_s is already the abort instant, so the node-seconds
  // term needs no adjustment, and a degraded run's stretch is billed here.
  report_.total_energy_j += m.energy.value();
  report_.node_seconds_used += nodes_used * (out.end_s - now_);
  running_.push_back(std::move(r));
  state_[j] = State::kRunning;
  obs::count(action_obs(), "queue.jobs_started");
  obs::observe(action_obs(), "queue.job_wait_s", wait_s_spec(), out.wait_s());
  jlog("launch", "job=", j, " attempt=", out.attempts, " nodes=",
       running_.back().node_ids, " slice=", out.budget_w, " end=", out.end_s,
       " crashed=", out.completed ? "0" : "1", TraceOf{traces_, j});
  return true;
}

void QueueEventLoop::start_eligible() {
  // BUDGET_BROWNOUT pauses admission: the launch pass is skipped until the
  // cut window ends (the gauges below keep tracking the paused queue).
  if (mode() != DegradedMode::kBudgetBrownout) {
    // Host-time cost of one admission pass, recorded only while the live
    // telemetry plane is up: queue metrics stay a deterministic function
    // of the workload otherwise (same-seed runs fingerprint identically).
    // Metrics-only — never the timeline, whose contents must stay a
    // function of simulated time. Feeds the p99 SLO rule in obs/alerts.hpp.
    obs::ScopedTimer timer(telemetry_ != nullptr ? action_obs() : nullptr,
                           "queue.decision_latency_us");
    // A refused start changes neither count, so both are re-read only
    // after a job starts.
    int nodes_avail = free_nodes();
    double watts_avail = free_power();
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (state_[j] != State::kPending) continue;
      if (eligible_s_[j] > now_) continue;  // still backing off after a crash
      // No free node, or too few watts to wake one: no job can start, and
      // a job that does not start frees nothing, so the pass ends.
      if (nodes_avail < 1 || watts_avail < options_.min_node_power_w) break;
      if (try_start(j, nodes_avail, watts_avail)) {
        nodes_avail = free_nodes();
        watts_avail = free_power();
      } else if (!options_.backfill) {
        break;  // strict FCFS: head blocks
      }
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
// event, crashes also retire the node from the pool. The due events are the
// next run of the time-sorted cursor. One batch can span several instants
// (while nothing runs or waits, the loop skips injector wake-ups, so a
// redistribution claw-back can carry time past planned events), and it is
// announced by kind, then in plan order — never in time order.
void QueueEventLoop::apply_fault_events() {
  const auto first =
      fault_events_.begin() + static_cast<std::ptrdiff_t>(fault_idx_);
  const auto last =
      std::find_if(first, fault_events_.end(),
                   [this](const FaultEvent& e) { return e.at_s > now_; });
  if (first == last) return;
  std::vector<FaultEvent> due(first, last);
  fault_idx_ += due.size();
  std::sort(due.begin(), due.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.kind != b.kind ? a.kind < b.kind : a.index < b.index;
            });
  for (const FaultEvent& e : due) announce_fault(e);
  if (timeline_ != nullptr)
    timeline_->record("fault.active", now_,
                      static_cast<double>(faults_active_at(now_)));
}

void QueueEventLoop::announce_fault(const FaultEvent& e) {
  const fault::FaultPlan& plan = injector_->plan();
  std::string what;  // the span's kind, and the label's first word
  std::string detail;
  int node = -1;
  switch (e.kind) {
    case FaultKind::kCrash:
      node = plan.crashes[e.index].node;
      what = "crash";
      obs::count(action_obs(), "fault.crashes");
      break;
    case FaultKind::kDegrade:
      node = plan.degrades[e.index].node;
      what = "degrade";
      obs::count(action_obs(), "fault.degrades");
      break;
    case FaultKind::kMeter: {
      const fault::MeterFault& f = plan.meter_faults[e.index];
      node = f.node;
      what = std::string("meter-") + to_string(f.kind);
      obs::count(action_obs(), "fault.meter_faults");
      break;
    }
    case FaultKind::kCapViolation:
      node = plan.cap_violations[e.index].node;
      what = "cap-violation";
      obs::count(action_obs(), "fault.cap_violations");
      break;
    case FaultKind::kBlackout:
      what = "meter-blackout";
      detail = " for " +
               format_double(plan.meter_blackouts[e.index].duration_s, 1) +
               "s";
      obs::count(action_obs(), "fault.blackouts");
      break;
    case FaultKind::kBudgetCut: {
      const fault::BudgetCut& c = plan.budget_cuts[e.index];
      what = "budget-cut";
      detail = " to " + format_double(c.factor, 2) + "x for " +
               format_double(c.duration_s, 1) + "s";
      obs::count(action_obs(), "fault.budget_cuts");
      break;
    }
  }
  obs::ScopedSpan span(action_obs(), "fault.inject", "fault");
  span.arg("kind", what);
  if (node >= 0) {
    span.arg("node", node);
    detail = " node=" + std::to_string(node);
  }
  obs::count(action_obs(), "fault.injected");
  if (timeline_ != nullptr) timeline_->event("fault", now_, what + detail);
  std::vector<int>& crashed = report_.crashed_nodes;
  if (e.kind == FaultKind::kCrash &&
      std::find(crashed.begin(), crashed.end(), node) == crashed.end())
    crashed.push_back(node);
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
  jlog("guard-claw", "node=", node, " windows=", truncated, " t=", now_);
}

// The guard's sampling pass: read every active node's meter (corrupted by
// the injector, filtered for plausibility), detect cluster overshoot, and
// schedule claw-backs with the actuation latency. METER_BLACKOUT freezes
// the pass entirely: there is nothing trustworthy to read.
void QueueEventLoop::guard_sample() {
  if (meters_dark_) return;
  if (running_.empty()) return;
  double observed = 0.0;
  for (const auto& r : running_) {
    const double per_node_truth =
        row_of(r).power_w / static_cast<double>(r.node_ids.size());
    const double per_node_expected =
        row_of(r).budget_w / static_cast<double>(r.node_ids.size());
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
    if (std::any_of(enforcements_.begin(), enforcements_.end(),
                    [n](const Enforcement& e) { return e.node == n; }))
      continue;  // a claw-back is already on its way
    if (guard_.options().reaction_s <= 0.0) {
      claw_back(n);
    } else {
      enforcements_.push_back({now_ + guard_.options().reaction_s, n});
      jlog("enforce-scheduled", "node=", n, " at=", enforcements_.back().at_s);
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
  QueuedJobResult& out = row_of(r);
  // The node-seconds bill moves by the change of the end: read the old end
  // before writing the new one.
  report_.node_seconds_used +=
      static_cast<double>(r.node_ids.size()) * (new_end - out.end_s);
  r.config = cfg;
  r.crashed_node = crashed_node;
  r.frac_done = frac;
  r.change_s = now_;
  r.ff_remaining = ff_rem;
  out.end_s = new_end;
  out.budget_w = new_slice;
  out.power_w = m1.avg_power.value();
  out.completed = !crashed;
  if (timeline_ != nullptr) {
    const double n_nodes = static_cast<double>(r.node_ids.size());
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".cap_w", now_, new_slice / n_nodes);
      timeline_->record(prefix + ".power_w", now_, out.power_w / n_nodes);
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
  if (r == nullptr || report_.jobs[c.job].attempts != c.attempt) {
    jlog("claw-dissolve", "job=", c.job, " reason=gone");
    return;
  }
  QueuedJobResult& out = row_of(*r);
  const int n_nodes = static_cast<int>(r->node_ids.size());
  const double floor_w =
      std::max(options_.min_node_power_w * n_nodes,
               out.power_w + kHeadroomFrac * out.budget_w);
  const double claw = std::min(c.watts, out.budget_w - floor_w);
  if (claw <= 0.0) {
    // A re-grant since the decision ate the slack.
    jlog("claw-dissolve", "job=", c.job, " reason=eaten");
    return;
  }
  out.budget_w -= claw;
  ++report_.redist_claw_backs;
  report_.redist_reclaimed_w += claw;
  obs::count(action_obs(), "redist.claw_backs");
  if (timeline_ != nullptr) {
    timeline_->event("redist", now_,
                     "claw " + out.app + " w=" + format_double(claw, 1));
    const double per_node_cap = out.budget_w / n_nodes;
    for (int n : r->node_ids)
      timeline_->record("node" + std::to_string(n) + ".cap_w", now_,
                        per_node_cap);
  }
  jlog("claw-actuate", "job=", c.job, " w=", claw);
}

// The redistribution tick: sample, size claw-backs, and hill-climb
// memory-phase jobs one PKG→DRAM step.
void QueueEventLoop::redist_tick() {
  obs::count(action_obs(), "redist.ticks");
  for (const auto& r : running_) {
    const double n_nodes = static_cast<double>(r.node_ids.size());
    const double per_node_truth = row_of(r).power_w / n_nodes;
    const double per_node_expected = row_of(r).budget_w / n_nodes;
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
    const QueuedJobResult& out = row_of(r);
    if (!out.completed) continue;  // its watts come back at the abort instant
    bool claw_pending = false;
    for (const auto& c : pending_claws_)
      claw_pending = claw_pending || c.job == r.job_index;
    if (claw_pending) continue;
    const int n_nodes = static_cast<int>(r.node_ids.size());
    const double cap_per_node = out.budget_w / n_nodes;
    double slack = 0.0;
    for (int n : r.node_ids) slack += detector_.node_slack_w(n, cap_per_node);
    slack_total += slack;
    const double floor_w =
        std::max(options_.min_node_power_w * n_nodes,
                 out.power_w + kHeadroomFrac * out.budget_w);
    const double claw = claw_w(out.budget_w, slack, floor_w);
    if (claw <= 0.0) continue;
    pending_claws_.push_back({now_ + options_.redist.reaction_s, r.job_index,
                              out.attempts, claw});
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "claw-scheduled " + out.app +
                           " w=" + format_double(claw, 1));
    jlog("claw-scheduled", "job=", r.job_index, " at=",
         pending_claws_.back().at_s, " w=", claw);
  }
  if (timeline_ != nullptr)
    timeline_->record("redist.slack_w", now_, slack_total);
  jlog("tick", "t=", now_, " slack=", slack_total);
  for (auto& r : running_) {
    const QueuedJobResult& out = row_of(r);
    if (!out.completed) continue;
    const PhaseSignal sig = SlackDetector::phase_at(
        jobs_[r.job_index].app, out.start_s, out.end_s, now_);
    if (!sig.memory_bound) continue;
    const sim::ClusterConfig shifted = sim::shift_pkg_to_dram(
        r.config, Watts(kShiftStepW), Watts(1.0));
    if (shifted.node.cpu_cap.value() == r.config.node.cpu_cap.value() &&
        shifted.node.mem_level == r.config.node.mem_level)
      continue;  // already fully shifted
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, shifted);
    if (m1.avg_power.value() > out.budget_w * 1.01 + 1.0)
      continue;  // must keep fitting the reserved slice
    const double gain = out.end_s - projected_end(r, m1);
    if (gain < kMinGainS) continue;
    rebase_running(r, shifted, m1, out.budget_w);
    ++report_.redist_subsystem_shifts;
    obs::count(action_obs(), "redist.subsystem_shifts");
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "shift " + out.app + " pkg->dram w=" +
                           format_double(kShiftStepW, 1));
    jlog("shift", "job=", r.job_index, " t=", now_);
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
  if (free_w < kMinGrantW || running_.empty()) return;
  struct Eval {
    sim::ClusterConfig cfg;
    sim::Measurement m;
    double slice;
  };
  std::vector<RegrantCandidate> candidates;
  std::vector<Eval> evals;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const Running& r = running_[i];
    const QueuedJobResult& out = row_of(r);
    if (!out.completed) continue;  // boosting a doomed placement buys nothing
    const double slice = out.budget_w + free_w;
    const core::ScheduleDecision boosted = scheduler_->schedule_constrained(
        jobs_[r.job_index].app, Watts(slice),
        static_cast<int>(r.node_ids.size()));
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, boosted.cluster);
    if (m1.avg_power.value() > slice * 1.01 + 1.0) continue;
    candidates.push_back({i, free_w, out.end_s - projected_end(r, m1)});
    evals.push_back({boosted.cluster, m1, slice});
  }
  const RegrantCandidate* best = pick_regrant(candidates);
  if (best == nullptr) return;
  Running& r = running_[best->job];
  // The guard admits the grant against the larger of the reservations and
  // the true draw: during an active cap violation the cluster is already
  // over budget, and re-granting then would widen the violation.
  double reserved = 0.0;
  for (const auto& other : running_) reserved += row_of(other).budget_w;
  if (injector_ != nullptr)
    reserved = std::max(reserved, true_cluster_power(now_));
  if (!guard_.admit_regrant(reserved, best->grant_w)) {
    obs::count(action_obs(), "redist.regrants_rejected");
    if (timeline_ != nullptr)
      timeline_->event("redist", now_,
                       "regrant-rejected " + row_of(r).app +
                           " w=" + format_double(best->grant_w, 1));
    jlog("grant-reject", "job=", r.job_index, " w=", best->grant_w);
    return;
  }
  const Eval& e = evals[static_cast<std::size_t>(best - candidates.data())];
  rebase_running(r, e.cfg, e.m, e.slice);
  ++report_.redist_regrants;
  report_.redist_granted_w += best->grant_w;
  obs::count(action_obs(), "redist.regrants");
  if (timeline_ != nullptr)
    timeline_->event("redist", now_,
                     "regrant " + row_of(r).app +
                         " w=" + format_double(best->grant_w, 1));
  jlog("grant", "job=", r.job_index, " w=", best->grant_w);
}

// Process the single earliest finished run due at `now` (one per pass, so
// a simultaneous completion sees the freed resources of the previous one —
// exactly how the fault-free queue always behaved).
bool QueueEventLoop::finish_one_due() {
  auto next = running_.end();
  for (auto it = running_.begin(); it != running_.end(); ++it)
    if (row_of(*it).end_s <= now_ &&
        (next == running_.end() || row_of(*it).end_s < row_of(*next).end_s))
      next = it;
  if (next == running_.end()) return false;
  const Running r = *next;
  running_.erase(next);
  const std::size_t j = r.job_index;
  auto& out = report_.jobs[j];
  if (timeline_ != nullptr)
    for (int n : r.node_ids) {
      const std::string prefix = "node" + std::to_string(n);
      timeline_->record(prefix + ".power_w", now_, 0.0);
      timeline_->record(prefix + ".cap_w", now_, 0.0);
    }
  if (out.completed) {
    state_[j] = State::kDone;
    if (timeline_ != nullptr)
      timeline_->event("job", now_,
                       render("finish ", out.app, TraceOf{traces_, j}));
    jlog("complete", "job=", j, " t=", now_, TraceOf{traces_, j});
    return true;
  }
  // Crash abort: replace the optimistic energy bill with the watts the
  // partial execution truly drew (nodes and watts were freed above), then
  // retry or fail.
  const double elapsed = out.end_s - out.start_s;
  report_.total_energy_j += out.power_w * elapsed - r.energy_j;
  out.crashed_node = r.crashed_node;
  if (timeline_ != nullptr)
    timeline_->event("job", now_,
                     render("crash ", out.app, " node=", r.crashed_node,
                            TraceOf{traces_, j}));
  if (out.attempts >= fault::kMaxAttempts) {
    state_[j] = State::kFailed;
    ++report_.jobs_failed;
    obs::count(action_obs(), "queue.jobs_failed");
    if (timeline_ != nullptr)
      timeline_->event("job", now_,
                       render("fail ", out.app, TraceOf{traces_, j}));
    jlog("fail", "job=", j, " t=", now_, TraceOf{traces_, j});
    return true;
  }
  state_[j] = State::kPending;
  eligible_s_[j] = now_ + fault::backoff_s(out.attempts);
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
    timeline_->event("job", now_,
                     render("requeue ", out.app, TraceOf{traces_, j}));
  jlog("crash-requeue", "job=", j, " node=", r.crashed_node, " eligible=",
       eligible_s_[j], TraceOf{traces_, j});
  return true;
}

void QueueEventLoop::prepare_run() {
  CLIP_REQUIRE(!started_,
               "QueueEventLoop is single-shot: construct a fresh loop per run");
  started_ = true;
  if (injector_ != nullptr) {
    const fault::FaultPlan& plan = injector_->plan();
    const auto add = [this](FaultKind kind, const auto& events) {
      for (std::size_t i = 0; i < events.size(); ++i)
        fault_events_.push_back({events[i].at_s, kind, i});
    };
    add(FaultKind::kCrash, plan.crashes);
    add(FaultKind::kDegrade, plan.degrades);
    add(FaultKind::kMeter, plan.meter_faults);
    add(FaultKind::kCapViolation, plan.cap_violations);
    add(FaultKind::kBlackout, plan.meter_blackouts);
    add(FaultKind::kBudgetCut, plan.budget_cuts);
    std::stable_sort(fault_events_.begin(), fault_events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.at_s < b.at_s;
                     });
    wakeups_ = injector_->wakeups();
  }
  if (options_.trace.enabled && traces_.empty()) {
    // One draw per job in submission order: ids are a pure function of
    // (seed, job index), so a recovery constructed with the same options
    // re-mints exactly the ids the dying run journaled.
    Rng trace_rng(kTraceSeed);
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
  // begin + admit ARE the genesis state: together they determine the
  // pre-init loop exactly, so no snapshot is written here. A journal cut
  // before the first periodic snapshot recovers by restarting (still
  // byte-identical — the loop is deterministic).
  jlog("begin", [this] { return begin_payload(); });
  jlog("admit", [this] { return admits_payload(); });
  if (injector_ != nullptr) {
    while (wakeup_idx_ < wakeups_.size() && wakeups_[wakeup_idx_] <= now_)
      ++wakeup_idx_;
    apply_fault_events();  // t = 0 events precede the first placement
    update_mode();
  }
  start_eligible();
  if (injector_ != nullptr) guard_sample();
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
                     " (delta snapshots with a fault cursor, no derived "
                     "state); recover it with the build that wrote it");
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
  records_since_snapshot_ = 0;
  rederive_running();
  // Snapshots are taken inside the main loop, after run_fresh's first
  // admission pass.
  main_loop();
  finalize();
  return report_;
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
        update_mode();
      }
    }
    // 1b. Due redistribution work: claw-backs whose reaction latency
    //     elapsed, then the periodic slack-sampling tick (frozen while the
    //     meters are dark — stale samples must not drive claw-backs).
    if (options_.redist.enabled) {
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
      if (options_.redist.enabled) try_regrant();
      continue;
    }
    // 3. An event without a completion still frees or consumes capacity
    //    (crashed node gone, cap clawed back, retry eligible): start pass.
    if (acted) {
      start_eligible();
      if (injector_ != nullptr) guard_sample();
      if (options_.redist.enabled) try_regrant();
      continue;
    }

    // 4. Nothing due at `now`: advance to the next instant anything happens.
    bool any_pending = false;
    double next = kInf;
    for (const auto& r : running_) next = std::min(next, row_of(r).end_s);
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
    if (options_.redist.enabled) {
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
    out.completed = false;
    state_[j] = State::kFailed;
    ++report_.jobs_failed;
    obs::count(action_obs(), "queue.jobs_failed");
    jlog("fail", "job=", j, " reason=stranded");
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
  if (options_.redist.enabled) {
    obs::gauge_set(obs_, "redist.reclaimed_w", report_.redist_reclaimed_w);
    obs::gauge_set(obs_, "redist.granted_w", report_.redist_granted_w);
  }
  if (timeline_ != nullptr)
    timeline_->record("budget.violation_s", report_.makespan_s,
                      report_.violation_s);
  jlog("end", "makespan=", report_.makespan_s, " violation_s=",
       report_.violation_s);
  publish_status(false);
}

// --- degraded-mode state machine (docs/robustness.md) ----------------------
// Without blackout or budget-cut windows in the plan the factor stays 1 and
// the meters stay lit, so the loop never leaves NORMAL and changes nothing.

void QueueEventLoop::update_mode() {
  const double factor = injector_->budget_cut_factor(now_);
  const DegradedMode before = mode();
  meters_dark_ = injector_->meters_blacked_out(now_);
  if (factor != applied_factor_) {
    const bool cut = factor < applied_factor_;
    applied_factor_ = factor;
    guard_.set_budget(Watts(effective_budget()));
    if (cut) brownout_clawback();
  }
  const DegradedMode after = mode();
  if (after == before) return;
  obs::count(action_obs(), "mode.transitions");
  obs::gauge_set(action_obs(), "mode.current", static_cast<double>(after));
  if (timeline_ != nullptr) {
    timeline_->event("mode", now_, to_string(after));
    timeline_->record("mode.current", now_, static_cast<double>(after));
  }
  jlog("mode", "to=", to_string(after), " t=", now_, " factor=", factor);
  publish_status(true);
}

// Entering BUDGET_BROWNOUT: the facility cut the budget under the running
// reservations, so claw every live job back proportionally (never below the
// queue's minimum viable reservation — a residual overage then shows up
// honestly as violation-seconds against the cut budget).
void QueueEventLoop::brownout_clawback() {
  double reserved = 0.0;
  for (const auto& r : running_) reserved += row_of(r).budget_w;
  const double budget = effective_budget();
  if (reserved <= budget) return;
  const double ratio = budget / reserved;
  for (auto& r : running_) {
    const QueuedJobResult& out = row_of(r);
    if (!out.completed) continue;
    const int n_nodes = static_cast<int>(r.node_ids.size());
    const double floor_w = options_.min_node_power_w * n_nodes;
    const double new_slice = std::max(out.budget_w * ratio, floor_w);
    if (new_slice >= out.budget_w) continue;
    const core::ScheduleDecision cut = scheduler_->schedule_constrained(
        jobs_[r.job_index].app, Watts(new_slice), n_nodes);
    const sim::Measurement m1 =
        executor_->run_exact(jobs_[r.job_index].app, cut.cluster);
    const double clawed = out.budget_w - new_slice;
    rebase_running(r, cut.cluster, m1, new_slice);
    obs::count(action_obs(), "mode.brownout_claws");
    if (timeline_ != nullptr)
      timeline_->event("mode", now_,
                       "brownout-claw " + out.app +
                           " w=" + format_double(clawed, 1));
    jlog("brownout-claw", "job=", r.job_index, " w=", new_slice);
  }
}

// --- journaling -------------------------------------------------------------

template <typename... Pieces>
void QueueEventLoop::jlog(std::string_view kind, const Pieces&... pieces) {
  if (journal_ == nullptr) return;
  append_or_verify(kind, render(pieces...));
  ++records_since_snapshot_;
}

void QueueEventLoop::append_or_verify(std::string_view kind,
                                      std::string payload) {
  if (replay_cursor_ < replay_limit_) {
    const JournalRecord& expect = journal_->records()[replay_cursor_];
    if (expect.kind == kind && expect.payload == payload) {
      ++replay_cursor_;
      obs::count(obs_, "journal.replayed");
      return;
    }
    // The surviving suffix diverges from re-execution — corruption the CRC
    // could not catch. Salvage: truncate it, log the gap, append fresh.
    journal_->truncate(replay_cursor_);
    replay_limit_ = replay_cursor_;
    obs::count(obs_, "journal.gaps");
    if (timeline_ != nullptr)
      timeline_->event("journal", now_,
                       "gap: replay diverged at seq " +
                           std::to_string(journal_->size() + 1));
  }
  journal_->append(kind, std::move(payload));
  obs::count(obs_, "journal.records");
}

void QueueEventLoop::maybe_snapshot() {
  if (journal_ == nullptr ||
      records_since_snapshot_ < journal_->options().snapshot_every)
    return;
  std::string snapshot;
  snapshot.reserve(1024 + 224 * running_.size());
  SnapshotWriter out(snapshot);
  snapshot_fields(out);
  append_or_verify("snapshot", std::move(snapshot));
  records_since_snapshot_ = 0;
  obs::count(obs_, "journal.snapshots");
}

std::string QueueEventLoop::begin_payload() const {
  std::string os(kSnapshotFormat);
  os += " budget=" + obs::format_exact(options_.cluster_budget.value()) +
        " nodes=" + std::to_string(total_nodes_) +
        " jobs=" + std::to_string(jobs_.size());
  os += options_.backfill ? " backfill=1" : " backfill=0";
  os += options_.redist.enabled ? " redist=1" : " redist=0";
  os += injector_ != nullptr ? " injector=1" : " injector=0";
  os += timeline_ != nullptr ? " timeline=1" : " timeline=0";
  // Token appended only when tracing is on: journals written before tracing
  // existed (or with it off) keep their exact bytes, while a traced journal
  // recovered with a different trace configuration fails the begin check
  // loudly instead of diverging record by record.
  if (options_.trace.enabled)
    os += " traceseed=" + std::to_string(kTraceSeed);
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

QueueEventLoop::JobRow QueueEventLoop::job_row(State state, double eligible_s,
                                               const QueuedJobResult& r) {
  JobRow row;
  row.state = state;
  row.nodes = r.nodes;
  row.attempts = r.attempts;
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

template <typename IO>
void QueueEventLoop::snapshot_fields(IO& io) {
  const long long last_node = total_nodes_ - 1;
  const auto last_job = static_cast<long long>(jobs_.size()) - 1;
  io.token("now", now_);
  io.token("factor", applied_factor_);
  io.token("dark", meters_dark_);
  io.token("faults", ranged(fault_idx_, 0,
                            static_cast<long long>(fault_events_.size()),
                            "fault cursor"));
  io.token("widx", ranged(wakeup_idx_, 0,
                          static_cast<long long>(wakeups_.size()),
                          "wakeup index"));
  io.token("tick", next_tick_s_);
  io.list("enf", ',', enforcements_, [&](Enforcement& e) {
    io(e.at_s, ranged(e.node, 0, last_node, "enforcement node"));
  });
  io.list("retry", ',', retry_wakeups_, [&](double& t) { io(t); });
  io.list("claw", ',', pending_claws_, [&](PendingClaw& c) {
    io(c.at_s, ranged(c.job, 0, last_job, "claw job index"), c.attempt,
       c.watts);
  });
  std::size_t run_n = running_.size();
  io.token("run.n", ranged(run_n, 0, total_nodes_, "running count"));
  // clip-lint: allow(J1) sizes running_ to the count just read (a write leaves it as it is); restoring rebuilds state from the journal, so appending to it here would recurse
  running_.resize(run_n);
  for (std::size_t k = 0; k < run_n; ++k) {
    Running& r = running_[k];
    sim::NodeConfig& node = r.config.node;
    const std::string n = std::to_string(k);
    io.token("run." + n,
             ranged(r.job_index, 0, last_job, "running job index"),
             r.energy_j, r.crashed_node, r.prof_s, r.full_energy_j,
             r.frac_done, r.change_s, r.ff_remaining);
    io.list("ids." + n, '/', r.node_ids,
            [&](int& id) { io(ranged(id, 0, last_node, "node id")); });
    io.token("cfg." + n, r.config.nodes, node.threads,
             ranged(node.affinity, 0,
                    static_cast<int>(parallel::AffinityPolicy::kScatter),
                    "config affinity"),
             ranged(node.mem_level, 0,
                    static_cast<int>(sim::MemPowerLevel::kL3),
                    "config mem level"),
             node.cpu_cap, node.mem_cap);
    io.list("ovr." + n, ';', r.config.cpu_cap_overrides,
            [&](Watts& w) { io(w); }, Blank::kDash);
  }
  row_delta(io);
  io.token("acc", report_.total_energy_j, report_.node_seconds_used);
  io.token("racc", report_.retries, report_.jobs_failed,
           report_.caps_reprogrammed);
  io.list("cn", '/', report_.crashed_nodes,
          [&](int& id) { io(ranged(id, 0, last_node, "crashed node")); },
          Blank::kDash);
  io.token("racc2", report_.redist_claw_backs, report_.redist_regrants,
           report_.redist_subsystem_shifts, report_.redist_reclaimed_w,
           report_.redist_granted_w);

  // The guard, the injector and the detector keep their state private: it
  // travels through locals, filled from them to write, handed back once
  // read.
  double violation_s = guard_.violation_s();
  double violation_ws = guard_.violation_ws();
  std::uint64_t rejected_reads = guard_.rejected_reads();
  std::uint64_t regrants_rejected = guard_.regrants_rejected();
  double guard_budget = guard_.budget_w();
  io.token("guard", violation_s, violation_ws, rejected_reads,
           regrants_rejected, guard_budget);
  std::vector<double> violation_ends;
  if (!IO::kReads && injector_ != nullptr)
    violation_ends = injector_->violation_ends();
  io.list("vends", ',', violation_ends, [&](double& end) { io(end); },
          injector_ != nullptr ? Blank::kEmpty : Blank::kAbsent);
  struct Sample {
    int node;
    double t_s;
    double draw_w;
  };
  std::vector<Sample> samples;
  if (!IO::kReads && options_.redist.enabled) {
    // Nodes in the order of their ids as text (10 before 2), the order the
    // token has always had.
    std::vector<int> nodes(static_cast<std::size_t>(detector_.node_bound()));
    std::iota(nodes.begin(), nodes.end(), 0);
    std::sort(nodes.begin(), nodes.end(), [](int a, int b) {
      return std::to_string(a) < std::to_string(b);
    });
    for (const int n : nodes)
      for (const SlackDetector::Sample& d : detector_.window(n))
        samples.push_back({n, d.t_s, d.draw_w});
  }
  io.list("det", ',', samples,
          [&](Sample& d) {
            io(ranged(d.node, 0, last_node, "detector node"), d.t_s,
               d.draw_w);
          },
          options_.redist.enabled ? Blank::kEmpty : Blank::kAbsent);
  io.timeline("tl", timeline_, snap_mark_);
  if (IO::kReads) {
    guard_.restore_counters(violation_s, violation_ws, rejected_reads,
                            regrants_rejected);
    guard_.set_budget(Watts(guard_budget));
    if (injector_ != nullptr) injector_->restore_violation_ends(violation_ends);
    for (const Sample& d : samples)
      detector_.observe(d.node, d.t_s, d.draw_w);
  }
}

template <typename IO>
void QueueEventLoop::row_delta(IO& io) {
  // Written: the jobs whose state, eligibility or report row changed since
  // the previous snapshot, against a baseline that starts as the
  // constructor left every job — the state recovery's fold starts from.
  std::vector<std::size_t> changed;
  if (!IO::kReads) {
    if (snap_rows_.empty())
      snap_rows_.assign(jobs_.size(),
                        job_row(State::kPending, 0.0, unplaced_row()));
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const JobRow row = job_row(state_[j], eligible_s_[j], report_.jobs[j]);
      if (row == snap_rows_[j]) continue;
      snap_rows_[j] = row;
      changed.push_back(j);
    }
  }
  const auto last_job = static_cast<long long>(jobs_.size()) - 1;
  io.list("rows", ',', changed, [&](std::size_t& j) {
    io(ranged(j, 0, last_job, "job row index"));
    QueuedJobResult& out = report_.jobs[j];
    io(ranged(state_[j], 0, static_cast<int>(State::kFailed), "job state"),
       eligible_s_[j], out.submit_s, out.start_s, out.end_s, out.nodes,
       out.budget_w, out.power_w, out.attempts, out.completed,
       out.crashed_node);
  }, Blank::kDash);
}

void QueueEventLoop::restore_state(std::size_t snap) {
  // The job table and the flight record: the deltas of every snapshot
  // before the latest, folded in order onto the state the constructor
  // left; the latest one's come back with the rest of its state.
  const std::vector<JournalRecord>& records = journal_->records();
  for (std::size_t i = 0; i < snap; ++i) {
    if (records[i].kind != "snapshot") continue;
    SnapshotReader in(records[i].payload);
    row_delta(in);
    in.timeline("tl", timeline_, snap_mark_);
  }
  SnapshotReader in(records[snap].payload);
  snapshot_fields(in);
  // Occupancy is read off the placements: no node may be held twice.
  std::vector<bool> held(static_cast<std::size_t>(total_nodes_), false);
  for (const Running& r : running_)
    for (const int n : r.node_ids) {
      CLIP_REQUIRE(!held[static_cast<std::size_t>(n)],
                   "snapshot holds node " + std::to_string(n) +
                       " in two running placements");
      held[static_cast<std::size_t>(n)] = true;
    }
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    // Strings are re-derived, not serialized: a job has its names set from
    // the instant its first placement started.
    if (report_.jobs[j].attempts > 0) {
      report_.jobs[j].app = jobs_[j].app.name;
      report_.jobs[j].parameters = jobs_[j].app.parameters;
    }
  }
  // The next snapshot's deltas start from here, as the dying run's did.
  snap_rows_.resize(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j)
    snap_rows_[j] = job_row(state_[j], eligible_s_[j], report_.jobs[j]);
  if (timeline_ != nullptr) snap_mark_ = timeline_->mark();
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
    CLIP_ENSURE(res.end_s == row_of(r).end_s &&
                    res.crashed == !row_of(r).completed &&
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

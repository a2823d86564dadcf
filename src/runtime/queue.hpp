// Power-aware job queue — operating the cluster on a stream of jobs.
//
// The paper's execution module launches single jobs "through our job
// scheduler" (§IV-B3); this queue is that scheduler: it packs multiple jobs
// onto the cluster at once while the *sum* of their power allocations never
// exceeds the cluster budget (the defining constraint of power-bounded
// computing — cf. POWsched [11], which shifts power between concurrent
// applications).
//
// Policy (FCFS with optional backfill), evaluated event-driven:
//   * an admission pass offers the start to each pending job in submission
//     order, and ends once no node is free or the free watts fall below
//     min_node_power_w;
//   * CLIP first shapes the job as if the free watts were all its own, then
//     is constrained to the free nodes with a proportional budget slice;
//   * a rigid job (QueueJob::requested_nodes) waits until that many nodes
//     are free, and without backfill it blocks every job behind it; once
//     its app is characterized it is not planned while it waits;
//   * completions free nodes and watts, unblocking the queue.
//
// Resilience (docs/robustness.md): with a fault::FaultInjector attached the
// queue survives an imperfect substrate. Node crashes abort the jobs holding
// them; the queue reclaims the dead node's watts, requeues the job under the
// RetryPolicy (bounded attempts, exponential backoff; crashed nodes leave
// the pool for good, so retries are structurally excluded from them) and
// marks jobs failed once attempts are exhausted. Thermal degradation
// stretches affected jobs. A BudgetGuard watches the (meter-corrupted,
// plausibility-filtered) cluster draw, detects overshoot from unenforced
// RAPL caps, claws the violating node's cap back after an actuation latency,
// and accounts violation-seconds. With no injector — or an empty FaultPlan —
// every decision, measurement and report field is byte-identical to the
// fault-free queue.
//
// Redistribution (docs/power-redistribution.md): with
// QueueOptions::redist.enabled the event loop additionally revisits launch
// allocations at runtime. A periodic tick feeds plausibility-filtered
// per-node power samples to a SlackDetector; slack above the headroom is
// clawed back after a reaction latency (returning the watts to the free
// pool, where queued jobs see them first), remaining free watts are
// re-granted to the running job whose completion improves the most (each
// candidate re-evaluated through the memoized evaluation engine), and
// memory-phase jobs trade PKG watts for DRAM bandwidth inside their slice.
// Disabled (the default), no tick ever fires and the run is byte-identical
// to the static-allocation queue.
//
// Crash consistency (docs/robustness.md): the event loop lives in
// QueueEventLoop, a single-shot class whose entire state can be serialized.
// With a Journal attached (runtime/journal.hpp) every state-changing event
// is journaled and the state is periodically snapshotted: each snapshot
// carries the job rows and flight-recorder points that changed since the
// previous one, plus the rest of the loop state whole.
// QueueEventLoop::recover takes a journal whose tail was lost with the
// dying coordinator, folds its snapshots in order, restores the latest
// one's state, replays the surviving suffix as verification, re-derives
// in-flight placements against the fault plan, and resumes — finishing
// with byte-identical reports, summaries and timelines to a run that never
// died. Degraded operating modes (METER_BLACKOUT,
// BUDGET_BROWNOUT) are driven by fault-plan entries and surfaced through
// the mode.* observability series.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "fault/budget_guard.hpp"
#include "fault/injector.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_context.hpp"
#include "runtime/redistribution.hpp"
#include "sim/executor.hpp"
#include "util/units.hpp"
#include "workloads/signature.hpp"

namespace clip::obs {
class TelemetryServer;
}

namespace clip::runtime {

class Journal;

/// Causal tracing of jobs through the coordinator (docs/observability.md).
/// Disabled (the default), no TraceContext is minted, no `trace=` token
/// appears in any journal record or timeline event, jobs.csv keeps its
/// legacy column set and the run is byte-identical to the untraced queue.
struct TraceOptions {
  bool enabled = false;
  /// Seed of the clip::Rng stream trace ids are drawn from; ids are a
  /// deterministic function of (seed, job order), so recovery re-derives
  /// the same ids the dying run assigned.
  std::uint64_t seed = 0x7C11u;
};

struct QueueOptions {
  Watts cluster_budget{1000.0};
  bool backfill = true;          ///< allow later jobs to jump a blocked head
  double min_node_power_w = 45.0;  ///< below this a node is not worth waking
  fault::RetryPolicy retry;        ///< crash-killed jobs: bounded retries
  fault::BudgetGuardOptions guard; ///< cluster-budget watchdog
  RedistributionOptions redist;    ///< runtime power redistribution (off)
  TraceOptions trace;              ///< causal per-job trace ids (off)
  /// Port for the embeddable read-only telemetry server
  /// (obs/telemetry_server.hpp) on 127.0.0.1: -1 (the default) starts no
  /// server and keeps the run byte-identical to the serverless queue;
  /// 0 binds an ephemeral port (read back via telemetry_server()->port()).
  int telemetry_port = -1;
};

/// A queue submission: the workload plus optional placement constraints.
struct QueueJob {
  workloads::WorkloadSignature app;
  /// 0 = let CLIP pick the node count; otherwise the job arrives with a
  /// predefined count (an MPI launch line) and is scheduled constrained.
  int requested_nodes = 0;
};

/// One job's trajectory through the queue.
struct QueuedJobResult {
  std::string app;
  std::string parameters;
  double submit_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  int nodes = 0;
  double budget_w = 0.0;   ///< power slice while running
  double power_w = 0.0;    ///< measured draw
  int attempts = 1;        ///< placements consumed (> 1 after crash retries)
  bool completed = true;   ///< false: retries exhausted or no nodes left
  int crashed_node = -1;   ///< node whose death last aborted the job
  std::string trace_id;    ///< 16-hex causal id; empty with tracing off
  [[nodiscard]] double turnaround_s() const { return end_s - submit_s; }
  [[nodiscard]] double wait_s() const { return start_s - submit_s; }
};

struct QueueReport {
  std::vector<QueuedJobResult> jobs;
  double makespan_s = 0.0;
  double mean_turnaround_s = 0.0;
  double total_energy_j = 0.0;
  double node_seconds_used = 0.0;
  double node_seconds_available = 0.0;  ///< makespan * cluster nodes

  // --- resilience accounting (all zero on a fault-free run) ---------------
  int retries = 0;               ///< crash-triggered requeues
  int jobs_failed = 0;           ///< submitted jobs that never completed
  std::vector<int> crashed_nodes;  ///< nodes lost, in crash order
  int caps_reprogrammed = 0;     ///< guard claw-backs of violated caps
  double violation_s = 0.0;      ///< seconds the true draw exceeded budget
  double violation_ws = 0.0;     ///< watt-seconds above the budget
  std::uint64_t meter_reads_rejected = 0;  ///< implausible readings filtered

  // --- redistribution accounting (all zero with redist disabled) ----------
  int redist_claw_backs = 0;       ///< slack claw-backs actuated
  int redist_regrants = 0;         ///< free-pool grants to running jobs
  int redist_subsystem_shifts = 0; ///< PKG→DRAM shifts applied
  std::uint64_t redist_regrants_rejected = 0;  ///< guard-refused re-grants
  double redist_reclaimed_w = 0.0; ///< total watts clawed back
  double redist_granted_w = 0.0;   ///< total watts re-granted

  [[nodiscard]] double node_utilization() const {
    return node_seconds_available > 0.0
               ? node_seconds_used / node_seconds_available
               : 0.0;
  }
  [[nodiscard]] std::size_t jobs_completed() const {
    std::size_t n = 0;
    for (const auto& j : jobs)
      if (j.completed) ++n;
    return n;
  }
};

/// Degraded operating modes of the event loop (docs/robustness.md). Entered
/// and left on fault-plan windows (fault::MeterBlackout, fault::BudgetCut);
/// with neither in the plan the machine never leaves kNormal and the run is
/// byte-identical to the queue before the modes existed.
enum class DegradedMode {
  kNormal = 0,
  /// Cluster power meters dark: the guard's sampling pass and the
  /// redistribution loop freeze (no claw-backs or re-grants on stale data);
  /// launches continue under the conservative static caps already granted.
  kMeterBlackout = 1,
  /// The facility cut the budget at runtime: running jobs are clawed back
  /// proportionally to fit the new budget and admission pauses until the
  /// cut window ends. Takes display precedence over a concurrent blackout.
  kBudgetBrownout = 2,
};
[[nodiscard]] const char* to_string(DegradedMode mode);

/// The queue's event loop as a single-shot, crash-consistent object: one
/// constructed instance runs one job stream exactly once (via run(), or
/// recover() to resume a prior instance's journal). All state lives in
/// members so the journal's snapshots can rebuild it; see the header
/// comment and runtime/journal.hpp for the recovery contract.
class QueueEventLoop {
 public:
  /// Validates options and jobs exactly as PowerAwareJobQueue does.
  QueueEventLoop(sim::SimExecutor& executor, core::ClipScheduler& scheduler,
                 QueueOptions options, std::vector<QueueJob> jobs);
  ~QueueEventLoop();  ///< out-of-line: owns the telemetry server by unique_ptr

  /// Attachments — same contracts as PowerAwareJobQueue's setters.
  void set_observer(obs::ObsSession* obs) { obs_ = obs; }
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  void set_timeline(obs::Timeline* timeline) { timeline_ = timeline; }
  /// Attach a write-ahead journal (nullptr detaches; not owned). Every
  /// state-changing event appends one record and the loop state is
  /// snapshotted every JournalOptions::snapshot_every records. With no
  /// journal attached every hook is one branch and the run is
  /// byte-identical to the unjournaled queue.
  void set_journal(Journal* journal) { journal_ = journal; }

  /// Run the job stream to completion (single-shot: throws on reuse).
  [[nodiscard]] QueueReport run();

  /// Resume a run whose coordinator died, from `journal` (also attaches
  /// it): fold every snapshot's job-row and timeline deltas in order,
  /// restore the latest snapshot's other state, replay the surviving
  /// suffix as verification against the loop's own re-derived decisions (a
  /// divergent suffix is truncated and reported as a journal gap),
  /// re-derive the restored in-flight placements against the fault plan,
  /// and run to completion. The loop must be constructed with the same
  /// executor, scheduler, options and jobs as the run that wrote the
  /// journal, and given fresh injector/timeline attachments (their state is
  /// restored from the snapshots). A journal whose `begin` does not name
  /// this build's snapshot format is refused with an error naming it. A
  /// journal with no snapshot yet restarts from scratch. Single-shot, like
  /// run().
  [[nodiscard]] QueueReport recover(Journal& journal);

  /// Mode the loop was in when it finished (kNormal unless a blackout or
  /// budget-cut window was still open at the end of the run).
  [[nodiscard]] DegradedMode mode() const { return mode_; }

  /// The loop-owned telemetry server: non-null only while a run started
  /// with QueueOptions::telemetry_port >= 0 is alive. Tests and `clipctl
  /// serve` read the bound port (and poke endpoints) through it.
  [[nodiscard]] obs::TelemetryServer* telemetry_server() const;

  /// The TraceContext minted for job `j` (invalid context when tracing is
  /// off or the run has not been prepared yet).
  [[nodiscard]] obs::TraceContext trace_of(std::size_t j) const {
    return j < traces_.size() ? traces_[j] : obs::TraceContext{};
  }

 private:
  struct Running {
    std::size_t job_index = 0;
    double start_s = 0.0;
    double end_s = 0.0;        ///< completion, or the abort instant if crashed
    std::vector<int> node_ids;
    double power_w = 0.0;      ///< reserved slice
    double true_power_w = 0.0; ///< exact measured draw
    double energy_j = 0.0;     ///< billed run energy (adjusted on abort/re-base)
    bool crashed = false;
    int crashed_node = -1;
    // --- redistribution bookkeeping (inert stores while redist is off) ----
    sim::ClusterConfig config;   ///< caps/threads the job currently runs under
    double prof_s = 0.0;         ///< profiling cost billed into the duration
    double full_energy_j = 0.0;  ///< full-run energy at the current config
    double frac_done = 0.0;      ///< work fraction done at the last re-base
    double change_s = 0.0;       ///< instant of the last re-base
    double ff_remaining = 0.0;   ///< fault-free work seconds left at change_s
  };
  enum class State { kPending, kRunning, kDone, kFailed };
  /// One job's row as snapshots carry it: queue state, attempts,
  /// eligibility and report row. Doubles are held as their bits, so -0.0
  /// and 0.0 differ, as their renderings do.
  struct JobRow {
    State state = State::kPending;
    int attempts = 0;
    int nodes = 0;
    int report_attempts = 0;
    int crashed_node = 0;
    bool completed = false;
    /// eligible_s, submit_s, start_s, end_s, budget_w, power_w
    std::array<std::uint64_t, 6> doubles{};
    bool operator==(const JobRow&) const = default;
  };
  struct Enforcement {
    double at_s;
    int node;
  };
  struct PendingClaw {
    double at_s;      ///< actuation instant (decision + reaction latency)
    std::size_t job;
    int attempt;      ///< placement the claw targets; a retry invalidates it
    double watts;
  };

  // --- the event loop (former PowerAwareJobQueue::run lambdas) ------------
  [[nodiscard]] int free_nodes() const;
  [[nodiscard]] double free_power() const;
  [[nodiscard]] std::vector<int> active_node_ids() const;
  [[nodiscard]] double true_cluster_power(double t) const;
  [[nodiscard]] int faults_active_at(double t) const;
  /// Offer the start to pending job `j`; `nodes_avail` and `watts_avail`
  /// are the free nodes and watts, which start_eligible has checked admit
  /// at least one node.
  bool try_start(std::size_t j, int nodes_avail, double watts_avail);
  void start_eligible();
  void apply_fault_events();
  void claw_back(int node);
  void guard_sample();
  [[nodiscard]] double frac_at(const Running& r, double t) const;
  [[nodiscard]] double projected_end(const Running& r,
                                     const sim::Measurement& m1) const;
  void rebase_running(Running& r, const sim::ClusterConfig& cfg,
                      const sim::Measurement& m1, double new_slice);
  void apply_claw(const PendingClaw& c);
  void redist_tick();
  void try_regrant();
  bool finish_one_due();
  void prepare_run();
  [[nodiscard]] QueueReport run_fresh();
  void init_pass();
  void main_loop();
  void finalize();

  // --- degraded-mode state machine ----------------------------------------
  void update_mode();
  void brownout_clawback();

  // --- live observability ---------------------------------------------------
  /// The obs session for *action-level* emissions (counters, spans,
  /// latency histograms tied to queue decisions). Returns nullptr while a
  /// journal suffix is being replayed during recover(), so replayed steps
  /// do not double-count actions the dying run already recorded; timeline
  /// and journal.* emissions deliberately bypass this (the timeline is
  /// re-built from the snapshot and journal counters describe recovery
  /// itself).
  [[nodiscard]] obs::ObsSession* action_obs() const {
    return replaying_ ? nullptr : obs_;
  }
  /// " trace=<16hex>" for job `j` when tracing is on; "" otherwise. The
  /// shared suffix format keeps journal payloads and timeline labels
  /// greppable by one token.
  [[nodiscard]] std::string trace_suffix(std::size_t j) const;
  /// Push a fresh StatusSnapshot into the telemetry server (one branch
  /// when no server is attached).
  void publish_status(bool run_active);

  // --- journaling ----------------------------------------------------------
  void jlog(std::string_view kind, std::string payload);
  void append_or_verify(std::string_view kind, std::string payload);
  void emit_snapshot();
  void maybe_snapshot();
  [[nodiscard]] std::string begin_payload() const;
  [[nodiscard]] std::string admits_payload() const;
  /// The next snapshot's payload. Advances the delta baselines: replayed
  /// and fresh snapshots alike go through here.
  [[nodiscard]] std::string serialize_state();
  /// Fold every snapshot in records [0, snap] in order, then restore
  /// record `snap`'s other state.
  void restore_state(std::size_t snap);
  [[nodiscard]] static JobRow job_row(State state, int attempts,
                                      double eligible_s,
                                      const QueuedJobResult& r);
  [[nodiscard]] JobRow job_row(std::size_t j) const;
  void rederive_running();

  sim::SimExecutor* executor_;
  core::ClipScheduler* scheduler_;
  QueueOptions options_;
  std::vector<QueueJob> jobs_;
  obs::ObsSession* obs_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  Journal* journal_ = nullptr;

  int total_nodes_;
  double total_budget_;
  fault::BudgetGuard guard_;
  SlackDetector detector_;
  Redistributor redistributor_;

  bool started_ = false;
  bool init_done_ = false;
  QueueReport report_;
  std::vector<State> state_;
  std::vector<int> attempts_;
  std::vector<double> eligible_s_;
  std::vector<Running> running_;
  std::vector<bool> node_alive_;
  std::vector<bool> node_busy_;
  double now_ = 0.0;
  const fault::FaultPlan* plan_ = nullptr;
  std::vector<bool> crash_seen_;
  std::vector<bool> degrade_seen_;
  std::vector<bool> meter_seen_;
  std::vector<bool> capviol_seen_;
  std::vector<bool> blackout_seen_;
  std::vector<bool> cut_seen_;
  std::vector<Enforcement> enforcements_;  ///< scheduled cap claw-backs
  std::vector<double> retry_wakeups_;      ///< backoff expiry instants
  std::vector<bool> enforcement_pending_;
  bool redist_on_ = false;
  std::vector<PendingClaw> pending_claws_;
  double next_tick_s_ = 0.0;
  std::vector<double> wakeups_;
  std::size_t wakeup_idx_ = 0;

  // Degraded-mode state. effective_budget_ == the facility budget unless a
  // BudgetCut window is active; free_power() is computed against it.
  bool mode_faults_on_ = false;
  DegradedMode mode_ = DegradedMode::kNormal;
  double effective_budget_;
  double applied_factor_ = 1.0;  ///< budget-cut factor currently applied
  bool meters_dark_ = false;
  bool admission_paused_ = false;

  // Journal replay window during recover(): records [replay_cursor_,
  // replay_limit_) are verified against re-derived events before the loop
  // starts appending fresh ones.
  std::size_t replay_cursor_ = 0;
  std::size_t replay_limit_ = 0;
  int records_since_snapshot_ = 0;
  // What the previous snapshot left, so the next carries only what changed:
  // every job's row and the flight recorder's mark. The rows are sized on
  // the first snapshot, so a loop with no journal never allocates them.
  std::vector<JobRow> snap_rows_;
  obs::TimelineMark snap_mark_;
  /// True while records [replay_cursor_, replay_limit_) are being verified:
  /// action_obs() is nullptr so replay never double-counts.
  bool replaying_ = false;

  // Live observability: per-job causal ids (empty with tracing off) and the
  // loop-owned telemetry server (null with telemetry_port < 0).
  std::vector<obs::TraceContext> traces_;
  std::unique_ptr<obs::TelemetryServer> telemetry_;
  std::uint32_t publish_tick_ = 0;  ///< throttles steady-state /status pushes
};

/// Facade over QueueEventLoop: validates once, then constructs a fresh
/// single-shot loop per run() call with the current attachments forwarded.
class PowerAwareJobQueue {
 public:
  PowerAwareJobQueue(sim::SimExecutor& executor,
                     core::ClipScheduler& scheduler,
                     QueueOptions options = QueueOptions{});

  /// Run all jobs (submitted at t=0, FCFS order) to completion and report.
  [[nodiscard]] QueueReport run(
      const std::vector<workloads::WorkloadSignature>& jobs);

  /// As above, with per-job placement constraints.
  [[nodiscard]] QueueReport run(const std::vector<QueueJob>& jobs);

  /// Attach an observability session (nullptr detaches): `queue.depth` /
  /// `queue.running` gauges track the event loop, each start attempt emits
  /// a "queue.try_start" span, and per-job waits (simulated seconds, so
  /// deterministic) feed the `queue.job_wait_s` histogram. Fault handling
  /// adds the fault.* / queue.retries / budget.* series of
  /// docs/observability.md.
  void set_observer(obs::ObsSession* obs) { obs_ = obs; }

  /// Attach a fault injector (nullptr detaches; not owned, must outlive the
  /// run). The injector's cap-violation windows are mutated by guard
  /// claw-backs, so attach a fresh injector per run.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Attach a flight recorder (nullptr detaches; not owned). The event loop
  /// records, on the simulated-seconds axis: `queue.depth` / `queue.running`
  /// / `budget.free_w` at every scheduling pass, per-node `node<N>.power_w`
  /// / `node<N>.cap_w` steps at job start/finish (and the guard's sampled
  /// true draw under faults), `fault.active` plus a labeled `fault` event
  /// stream for injected events and claw-backs, and a `job` event stream
  /// (start/finish/crash/requeue/fail). With no timeline attached every
  /// hook is one branch and the run is byte-identical to before.
  void set_timeline(obs::Timeline* timeline) { timeline_ = timeline; }

  /// Attach a write-ahead journal (nullptr detaches; not owned) — see
  /// QueueEventLoop::set_journal and runtime/journal.hpp.
  void set_journal(Journal* journal) { journal_ = journal; }

 private:
  sim::SimExecutor* executor_;
  core::ClipScheduler* scheduler_;
  QueueOptions options_;
  obs::ObsSession* obs_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  Journal* journal_ = nullptr;
};

/// Reference policy: one job at a time with the whole budget (what a
/// conventional power-bounded site does). Used by the throughput bench.
[[nodiscard]] QueueReport run_serially(
    sim::SimExecutor& executor, core::ClipScheduler& scheduler,
    Watts cluster_budget,
    const std::vector<workloads::WorkloadSignature>& jobs);

}  // namespace clip::runtime

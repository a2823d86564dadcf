#include "core/scheduler.hpp"

#include <sstream>

#include "util/check.hpp"

namespace clip::core {

std::string ScheduleDecision::describe() const {
  std::ostringstream os;
  os << "class=" << workloads::to_string(cls);
  if (inflection > 0) os << " N_P=" << inflection;
  os << " | " << cluster.describe() << " | node budget "
     << node_budget.value() << " W (range [" << node_range.low.value()
     << ", " << node_range.high.value() << "])"
     << (from_knowledge_db ? " [cached profile]" : " [freshly profiled]");
  return os.str();
}

ClipScheduler::ClipScheduler(
    sim::SimExecutor& executor,
    const std::vector<workloads::WorkloadSignature>& training_suite,
    SchedulerOptions options)
    : executor_(&executor),
      options_(options),
      profiler_(executor),
      classifier_(options.classifier),
      selector_(executor.spec()),
      allocator_(executor.spec(), selector_, options.allocator),
      variability_(options.variability),
      db_(KnowledgeDbShape{executor.spec().shape.total_cores(),
                           executor.spec().fingerprint()}) {
  CLIP_REQUIRE(!training_suite.empty(),
               "CLIP needs a training suite for the inflection model");
  const auto samples =
      build_training_set(profiler_, classifier_, training_suite);
  inflection_.train(samples);
}

void ClipScheduler::set_observer(obs::ObsSession* obs) {
  obs_ = obs;
  profiler_.set_observer(obs);
  allocator_.set_observer(obs);
}

std::pair<ProfileData, KnowledgeRecord> ClipScheduler::characterize(
    const workloads::WorkloadSignature& app) {
  ProfileData profile;
  {
    obs::ScopedSpan span(obs_, "pipeline.profile", "pipeline");
    span.arg("app", app.name);
    profile = profiler_.profile(app);
    span.arg("memory_intensity", profile.memory_intensity);
  }

  workloads::ScalabilityClass cls;
  {
    obs::ScopedSpan span(obs_, "pipeline.classify", "pipeline");
    span.arg("half_over_all", profile.perf_ratio_half_over_all);
    cls = classifier_.classify(profile);
    span.arg("class", workloads::to_string(cls));
  }

  int np = 0;
  {
    obs::ScopedSpan span(obs_, "pipeline.inflect", "pipeline");
    if (cls != workloads::ScalabilityClass::kLinear) {
      np = inflection_.predict(profile, cls,
                               executor_->spec().shape.total_cores());
      if (options_.take_validation_sample) {
        // Third sample configuration: measure at the predicted inflection to
        // anchor the scaling segment of the performance model.
        profiler_.validate_at(app, profile, np);
      }
    }
    span.arg("n_p", np);
  }
  return {profile, make_record(profile, cls, np)};
}

std::tuple<ProfileData, KnowledgeRecord, bool>
ClipScheduler::get_or_characterize(const workloads::WorkloadSignature& app) {
  if (auto hit = db_.lookup(app.name, app.parameters)) {
    // A record that parsed but is physically impossible must not drive a
    // decision — surface it here so the Launcher can fall back.
    hit->validate();
    return {hit->to_profile(db_.shape()), *hit, true};
  }
  auto [profile, record] = characterize(app);
  db_.insert(record);
  return {std::move(profile), std::move(record), false};
}

bool ClipScheduler::knows(const workloads::WorkloadSignature& app) const {
  const auto hit = db_.lookup(app.name, app.parameters);
  if (hit) hit->validate();
  return hit.has_value();
}

ScheduleDecision ClipScheduler::schedule(
    const workloads::WorkloadSignature& app, Watts cluster_budget) {
  obs::ScopedSpan root(obs_, "clip.schedule", "pipeline");
  root.arg("app", app.name);
  root.arg("budget_w", cluster_budget.value());
  const obs::ScopedTimer timer(obs_, "scheduler.plan_us");
  obs::count(obs_, "scheduler.schedules");

  auto [profile, record, cached] = get_or_characterize(app);
  obs::count(obs_, cached ? "scheduler.db_hits" : "scheduler.db_misses");

  const std::vector<int> predefined =
      app.has_predefined_process_counts ? allocator_.power_of_two_counts()
                                        : std::vector<int>{};
  ClusterDecision alloc;
  {
    obs::ScopedSpan span(obs_, "pipeline.allocate", "pipeline");
    const AppModels models(executor_->spec(), profile, record.cls,
                           record.inflection);
    alloc = allocator_.allocate(models, cluster_budget, predefined);
    span.arg("nodes", alloc.nodes);
    span.arg("node_budget_w", alloc.node_budget.value());
  }

  ScheduleDecision d;
  d.cls = record.cls;
  d.inflection = record.inflection;
  d.node_budget = alloc.node_budget;
  d.node_range = alloc.node_range;
  d.predicted_node_time = alloc.node.predicted_time;
  d.from_knowledge_db = cached;
  d.profiling_cost = cached ? Seconds(0.0) : profile.profiling_cost;

  d.cluster.nodes = alloc.nodes;
  d.cluster.node = alloc.node.config;

  // Inter-node coordination against manufacturing variability (the
  // multipliers come from the one-time cluster power characterization).
  // Variability scales core load power only; the socket base draw is the
  // hardware constant the coordinator must not redistribute.
  {
    obs::ScopedSpan span(obs_, "pipeline.coordinate", "pipeline");
    const auto& spec = executor_->spec();
    const Watts node_base(spec.shape.sockets * spec.socket_base_w);
    variability_.apply(d.cluster, node_multipliers(alloc.nodes), node_base);
    span.arg("overrides",
             static_cast<int>(d.cluster.cpu_cap_overrides.size()));
  }
  return d;
}

std::vector<double> ClipScheduler::node_multipliers(int nodes) const {
  std::vector<double> multipliers;
  multipliers.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i)
    multipliers.push_back(executor_->variability().cpu_multiplier(i));
  return multipliers;
}

ClipScheduler::PhasedDecision ClipScheduler::schedule_phased(
    const workloads::PhasedWorkload& app, Watts cluster_budget) {
  obs::ScopedSpan root(obs_, "clip.schedule_phased", "pipeline");
  root.arg("app", app.name);
  root.arg("phases", static_cast<int>(app.phases.size()));
  obs::count(obs_, "scheduler.phased_schedules");
  app.validate();
  // Node count and per-node budget from the whole-program (blended)
  // profile: the allocation cannot change at phase boundaries.
  const ScheduleDecision base = schedule(app.blended(), cluster_budget);

  PhasedDecision d;
  d.cluster.nodes = base.cluster.nodes;
  d.node_budget = base.node_budget;
  for (std::size_t i = 0; i < app.phases.size(); ++i) {
    const workloads::WorkloadSignature phase = app.phase_signature(i);
    auto [profile, record, cached] = get_or_characterize(phase);
    (void)cached;
    const NodeDecision nd = selector_.select(
        AppModels(executor_->spec(), profile, record.cls, record.inflection),
        Watts(std::min(base.node_budget.value(),
                       executor_->spec().max_node_w())));
    d.cluster.phase_nodes.push_back(nd.config);
    d.phase_classes.push_back(record.cls);
    d.phase_inflections.push_back(record.inflection);
  }
  return d;
}

ScheduleDecision ClipScheduler::schedule_constrained(
    const workloads::WorkloadSignature& app, Watts cluster_budget,
    int fixed_nodes, int fixed_threads) {
  obs::ScopedSpan root(obs_, "clip.schedule_constrained", "pipeline");
  root.arg("app", app.name);
  root.arg("fixed_nodes", fixed_nodes);
  const obs::ScopedTimer timer(obs_, "scheduler.plan_us");
  obs::count(obs_, "scheduler.constrained_schedules");
  CLIP_REQUIRE(fixed_nodes >= 1 && fixed_nodes <= executor_->spec().nodes,
               "fixed node count outside the cluster");
  CLIP_REQUIRE(fixed_threads >= 0 &&
                   fixed_threads <= executor_->spec().shape.total_cores(),
               "fixed thread count outside the node");
  auto [profile, record, cached] = get_or_characterize(app);
  obs::count(obs_, cached ? "scheduler.db_hits" : "scheduler.db_misses");

  const Watts node_budget(cluster_budget.value() / fixed_nodes);
  ScheduleDecision d;
  NodeDecision nd;
  {
    obs::ScopedSpan span(obs_, "pipeline.node_select", "pipeline");
    span.arg("nodes", fixed_nodes);
    const AppModels models(executor_->spec(), profile, record.cls,
                           record.inflection);
    nd = fixed_threads > 0
             ? selector_.select_forced(models, node_budget, fixed_threads)
             : selector_.select(models, node_budget);
    d.node_range = models.power.acceptable_range(
        nd.config.threads, nd.config.affinity, nd.config.mem_level);
    span.arg("threads", nd.config.threads);
  }

  d.cls = record.cls;
  d.inflection = record.inflection;
  d.node_budget = node_budget;
  d.predicted_node_time = nd.predicted_time;
  d.from_knowledge_db = cached;
  d.profiling_cost = cached ? Seconds(0.0) : profile.profiling_cost;
  d.cluster.nodes = fixed_nodes;
  d.cluster.node = nd.config;

  {
    obs::ScopedSpan span(obs_, "pipeline.coordinate", "pipeline");
    const auto& spec = executor_->spec();
    const Watts node_base(spec.shape.sockets * spec.socket_base_w);
    variability_.apply(d.cluster, node_multipliers(fixed_nodes), node_base);
  }
  return d;
}

sim::Measurement ClipScheduler::schedule_and_run(
    const workloads::WorkloadSignature& app, Watts cluster_budget) {
  const ScheduleDecision d = schedule(app, cluster_budget);
  return executor_->run(app, d.cluster);
}

}  // namespace clip::core

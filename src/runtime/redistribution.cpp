#include "runtime/redistribution.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/strings.hpp"
#include "workloads/phases.hpp"

namespace clip::runtime {

void RedistributionOptions::validate() const {
  CLIP_REQUIRE(period_s > 0.0, "redist.period_s must be positive (got " +
                                   format_double(period_s, 3) + " s)");
  CLIP_REQUIRE(reaction_s >= 0.0, "redist.reaction_s must be non-negative");
}

void SlackDetector::observe(int node, double t_s, double draw_w) {
  CLIP_REQUIRE(node >= 0, "slack detector: negative node id " +
                              std::to_string(node));
  const auto at = static_cast<std::size_t>(node);
  if (at >= windows_.size()) windows_.resize(at + 1);
  Window& w = windows_[at];
  CLIP_REQUIRE(std::isfinite(t_s) &&
                   (w.size == 0 || t_s >= w.samples[w.size - 1].t_s),
               "slack detector: node " + std::to_string(node) +
                   " sample timestamps must be finite and non-decreasing");
  if (w.size == kWindowSamples) {
    std::copy(w.samples.begin() + 1, w.samples.end(), w.samples.begin());
    --w.size;
  }
  w.samples[w.size++] = {t_s, draw_w};
}

std::span<const SlackDetector::Sample> SlackDetector::window(int node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= windows_.size()) return {};
  const Window& w = windows_[static_cast<std::size_t>(node)];
  return {w.samples.data(), w.size};
}

double SlackDetector::node_slack_w(int node, double cap_w) const {
  const std::span<const Sample> recent = window(node);
  if (recent.empty()) return 0.0;  // never claw on no evidence
  double max_draw = 0.0;
  for (const Sample& s : recent) max_draw = std::max(max_draw, s.draw_w);
  const double slack = cap_w - max_draw - kHeadroomFrac * cap_w;
  return std::max(slack, 0.0);
}

PhaseSignal SlackDetector::phase_at(const workloads::WorkloadSignature& app,
                                    double start_s, double end_s,
                                    double t_s) {
  PhaseSignal signal;
  signal.memory_bound = app.memory_boundedness >= 0.5;
  const auto phased = workloads::find_phased(app.name + "-phased");
  if (!phased.has_value() || end_s <= start_s) return signal;
  // Map elapsed run fraction onto the phase sequence by work weight: a
  // phase's wall share tracks its work share to first order (the phases
  // execute under one shared node configuration here).
  const double elapsed =
      std::clamp((t_s - start_s) / (end_s - start_s), 0.0, 1.0);
  double cumulative = 0.0;
  for (const auto& phase : phased->phases) {
    cumulative += phase.weight;
    if (elapsed < cumulative || &phase == &phased->phases.back()) {
      signal.known = true;
      signal.phase = phase.name;
      signal.memory_bound = phase.signature.memory_boundedness >= 0.5;
      break;
    }
  }
  return signal;
}

double claw_w(double reserved_w, double slack_w, double floor_w) {
  const double claw = std::min(slack_w, reserved_w - floor_w);
  return claw >= kMinClawW ? claw : 0.0;
}

const RegrantCandidate* pick_regrant(
    const std::vector<RegrantCandidate>& candidates) {
  const RegrantCandidate* best = nullptr;
  for (const auto& c : candidates) {
    if (c.gain_s < kMinGainS) continue;
    if (best == nullptr || c.gain_s > best->gain_s) best = &c;
  }
  return best;
}

}  // namespace clip::runtime

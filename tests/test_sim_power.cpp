// Unit tests for the power side of the simulator: frequency ladder, machine
// spec, power model (paper Eqs. 5–9), RAPL enforcement, variability, meter.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/frequency.hpp"
#include "sim/machine.hpp"
#include "sim/power_meter.hpp"
#include "sim/power_model.hpp"
#include "sim/rapl.hpp"
#include "sim/variability.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"

namespace clip::sim {
namespace {

using clip::parallel::AffinityPolicy;
using clip::parallel::place_threads;
using namespace clip::literals;

MachineSpec default_spec() { return MachineSpec{}; }

workloads::WorkloadSignature compute_workload() {
  auto w = *workloads::find_benchmark("CoMD");
  return w;
}

workloads::WorkloadSignature memory_workload() {
  return *workloads::find_benchmark("STREAM-Triad");
}

// ------------------------------------------------------------- frequency ----

TEST(FrequencyLadder, HaswellHasTwelveStates) {
  const FrequencyLadder l = FrequencyLadder::haswell();
  EXPECT_EQ(l.state_count(), 12u);
  EXPECT_DOUBLE_EQ(l.min().value(), 1.2);
  EXPECT_DOUBLE_EQ(l.max().value(), 2.3);
  EXPECT_DOUBLE_EQ(l.nominal().value(), 2.3);
}

TEST(FrequencyLadder, StatesAreAscending) {
  const FrequencyLadder l = FrequencyLadder::haswell();
  for (std::size_t i = 1; i < l.states().size(); ++i)
    EXPECT_LT(l.states()[i - 1].value(), l.states()[i].value());
}

TEST(FrequencyLadder, RelativeOfNominalIsOne) {
  const FrequencyLadder l = FrequencyLadder::haswell();
  EXPECT_DOUBLE_EQ(l.relative(l.nominal()), 1.0);
  EXPECT_NEAR(l.relative(l.min()), 1.2 / 2.3, 1e-12);
}

TEST(FrequencyLadder, SnapDown) {
  const FrequencyLadder l = FrequencyLadder::haswell();
  EXPECT_DOUBLE_EQ(l.snap_down(GHz(1.97)).value(), 1.9);
  EXPECT_DOUBLE_EQ(l.snap_down(GHz(1.2)).value(), 1.2);
  EXPECT_DOUBLE_EQ(l.snap_down(GHz(0.8)).value(), 1.2);  // clamps to min
  EXPECT_DOUBLE_EQ(l.snap_down(GHz(9.9)).value(), 2.3);
}

TEST(FrequencyLadder, InvalidConstructionThrows) {
  EXPECT_THROW(FrequencyLadder(2.0_GHz, 1.0_GHz, 0.1_GHz, 2.0_GHz),
               PreconditionError);
  EXPECT_THROW(FrequencyLadder(1.0_GHz, 2.0_GHz, 0.0_GHz, 2.0_GHz),
               PreconditionError);
}

// ---------------------------------------------------------------- machine ----

TEST(MachineSpec, DefaultsValidate) {
  EXPECT_NO_THROW(default_spec().validate());
}

TEST(MachineSpec, PeakPowerArithmetic) {
  const MachineSpec s = default_spec();
  EXPECT_DOUBLE_EQ(s.max_node_cpu_w(), 2 * 16.0 + 24 * 4.0);
  EXPECT_DOUBLE_EQ(s.max_node_mem_w(), 2 * (5.0 + 14.0));
  EXPECT_DOUBLE_EQ(s.max_cluster_w(), 8 * s.max_node_w());
}

TEST(MachineSpec, MemLevelBandwidthFractionsAreOrdered) {
  EXPECT_GT(bw_fraction(MemPowerLevel::kL0), bw_fraction(MemPowerLevel::kL1));
  EXPECT_GT(bw_fraction(MemPowerLevel::kL1), bw_fraction(MemPowerLevel::kL2));
  EXPECT_GT(bw_fraction(MemPowerLevel::kL2), bw_fraction(MemPowerLevel::kL3));
  EXPECT_DOUBLE_EQ(bw_fraction(MemPowerLevel::kL0), 1.0);
}

TEST(MachineSpec, RejectsBadParameters) {
  MachineSpec s = default_spec();
  s.nodes = 0;
  EXPECT_THROW(s.validate(), PreconditionError);
  s = default_spec();
  s.remote_numa_penalty = 1.0;
  EXPECT_THROW(s.validate(), PreconditionError);
  s = default_spec();
  s.core_power_floor = 1.5;
  EXPECT_THROW(s.validate(), PreconditionError);
}

// ------------------------------------------------------------ power model ----

class PowerModelTest : public ::testing::Test {
 protected:
  MachineSpec spec_ = default_spec();
  PowerModel model_{spec_};

  NodeActivity activity(int threads, AffinityPolicy aff, double f_rel,
                        double util = 1.0, double bw = 0.0) {
    return NodeActivity{
        .placement = place_threads(spec_.shape, threads, aff),
        .f_rel = f_rel,
        .utilization = util,
        .compute_intensity = 1.0,
        .achieved_bw_gbps = bw,
        .cpu_load_multiplier = 1.0};
  }
};

TEST_F(PowerModelTest, AllCoreFullFreqMatchesSpecPeak) {
  const Watts p =
      model_.cpu_power(activity(24, AffinityPolicy::kScatter, 1.0));
  EXPECT_NEAR(p.value(), spec_.max_node_cpu_w(), 1e-9);
}

TEST_F(PowerModelTest, PowerDecreasesWithFrequency) {
  const Watts hi =
      model_.cpu_power(activity(24, AffinityPolicy::kScatter, 1.0));
  const Watts lo = model_.cpu_power(
      activity(24, AffinityPolicy::kScatter, 1.2 / 2.3));
  EXPECT_LT(lo.value(), hi.value());
  // Dynamic part follows f^2.2.
  const double dyn_hi = hi.value() - 32.0;
  const double dyn_lo = lo.value() - 32.0;
  EXPECT_NEAR(dyn_lo / dyn_hi, std::pow(1.2 / 2.3, 2.2), 1e-9);
}

TEST_F(PowerModelTest, ParkedSocketDrawsParkedPower) {
  const Watts compact12 =
      model_.cpu_power(activity(12, AffinityPolicy::kCompact, 1.0));
  const Watts scatter12 =
      model_.cpu_power(activity(12, AffinityPolicy::kScatter, 1.0));
  // Compact keeps socket 1 parked: 2 W instead of 16 W base.
  EXPECT_NEAR(scatter12.value() - compact12.value(),
              spec_.socket_base_w - spec_.socket_parked_w, 1e-9);
}

TEST_F(PowerModelTest, StalledCoresDrawLessThanBusyCores) {
  const Watts busy =
      model_.cpu_power(activity(24, AffinityPolicy::kScatter, 1.0, 1.0));
  const Watts stalled =
      model_.cpu_power(activity(24, AffinityPolicy::kScatter, 1.0, 0.3));
  EXPECT_LT(stalled.value(), busy.value());
  // Floor: even a fully stalled core draws core_power_floor of max.
  const Watts idle =
      model_.cpu_power(activity(24, AffinityPolicy::kScatter, 1.0, 0.0));
  EXPECT_NEAR(idle.value(), 32.0 + 24 * 4.0 * 0.35, 1e-9);
}

TEST_F(PowerModelTest, MemoryPowerScalesWithBandwidth) {
  const Watts idle =
      model_.mem_power(activity(24, AffinityPolicy::kScatter, 1.0, 1.0, 0.0));
  const Watts busy = model_.mem_power(
      activity(24, AffinityPolicy::kScatter, 1.0, 1.0, 68.0));
  EXPECT_NEAR(idle.value(), 2 * 5.0, 1e-9);
  EXPECT_NEAR(busy.value(), 2 * 5.0 + 68.0 * (14.0 / 34.0), 1e-9);
}

TEST_F(PowerModelTest, UnusedSocketMemoryParks) {
  const Watts compact = model_.mem_power(
      activity(12, AffinityPolicy::kCompact, 1.0, 1.0, 10.0));
  // One active socket: base 5 + activity; one parked: 1.
  EXPECT_NEAR(compact.value(), 5.0 + 1.0 + 10.0 * (14.0 / 34.0), 1e-9);
}

TEST_F(PowerModelTest, NodePowerIsSumOfDomains) {
  const NodeActivity a =
      activity(16, AffinityPolicy::kScatter, 0.8, 0.7, 30.0);
  EXPECT_NEAR(model_.node_power(a).value(),
              model_.cpu_power(a).value() + model_.mem_power(a).value(),
              1e-12);
}

TEST_F(PowerModelTest, VariabilityMultiplierScalesLoadOnly) {
  NodeActivity a = activity(24, AffinityPolicy::kScatter, 1.0);
  a.cpu_load_multiplier = 1.10;
  const Watts inflated = model_.cpu_power(a);
  // Base 32 W unscaled, load 96 W scaled by 1.1.
  EXPECT_NEAR(inflated.value(), 32.0 + 96.0 * 1.1, 1e-9);
}

TEST_F(PowerModelTest, CorePowerRejectsBadInputs) {
  EXPECT_THROW((void)model_.core_power(0.0, 1.0, 1.0), PreconditionError);
  EXPECT_THROW((void)model_.core_power(1.0, 1.5, 1.0), PreconditionError);
}

// ------------------------------------------------------------------ rapl ----

class RaplTest : public ::testing::Test {
 protected:
  MachineSpec spec_ = default_spec();
  RaplSolver solver_{spec_};

  NodeConfig config(int threads, Watts cpu_cap,
                    Watts mem_cap = Watts(1e9),
                    MemPowerLevel level = MemPowerLevel::kL0) {
    NodeConfig c;
    c.threads = threads;
    c.affinity = AffinityPolicy::kScatter;
    c.mem_level = level;
    c.cpu_cap = cpu_cap;
    c.mem_cap = mem_cap;
    return c;
  }
};

TEST_F(RaplTest, UnlimitedCapRunsAtNominal) {
  const OperatingPoint op =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(1e9)));
  EXPECT_DOUBLE_EQ(op.frequency.value(), 2.3);
  EXPECT_DOUBLE_EQ(op.duty_factor, 1.0);
}

TEST_F(RaplTest, CpuPowerNeverExceedsCap) {
  for (double cap : {40.0, 60.0, 80.0, 100.0, 120.0}) {
    const OperatingPoint op =
        solver_.solve(compute_workload(), 100.0, config(24, Watts(cap)));
    EXPECT_LE(op.cpu_power.value(), cap + 1e-9) << "cap=" << cap;
  }
}

TEST_F(RaplTest, TighterCapMeansLowerFrequency) {
  const OperatingPoint loose =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(120.0)));
  const OperatingPoint tight =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(70.0)));
  EXPECT_GT(loose.frequency.value(), tight.frequency.value());
}

TEST_F(RaplTest, TighterCapMeansLongerTime) {
  const OperatingPoint loose =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(130.0)));
  const OperatingPoint tight =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(60.0)));
  EXPECT_GT(tight.perf.time.value(), loose.perf.time.value());
}

TEST_F(RaplTest, CapBelowMinFrequencyDutyCycles) {
  const OperatingPoint op =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(40.0)));
  EXPECT_LT(op.duty_factor, 1.0);
  EXPECT_DOUBLE_EQ(op.frequency.value(), 1.2);
  EXPECT_NEAR(op.cpu_power.value(), 40.0, 1e-9);
}

TEST_F(RaplTest, DutyCycleGatesDynamicPowerOnly) {
  // Clock modulation stops the pipeline, not the socket base draw: the
  // duty solves cap = base + load(f_min)*duty, and throughput scales with
  // the duty.
  const double base_w = 2 * spec_.socket_base_w;
  const OperatingPoint at_min =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(56.0)));
  const OperatingPoint duty =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(44.0)));
  ASSERT_EQ(at_min.duty_factor, 1.0);
  ASSERT_LT(duty.duty_factor, 1.0);
  const double load_w = at_min.cpu_power.value() - base_w;
  EXPECT_NEAR(duty.duty_factor, (44.0 - base_w) / load_w, 1e-9);
  EXPECT_NEAR(duty.perf.time.value(),
              at_min.perf.time.value() / duty.duty_factor, 1e-9);
}

TEST_F(RaplTest, CapBelowBasePowerFloorsAtDeepestModulation) {
  // A cap under the static draw is unenforceable by clock gating: the node
  // floors at the deepest modulation step and the draw sits above the cap.
  const OperatingPoint op =
      solver_.solve(compute_workload(), 100.0, config(24, Watts(20.0)));
  EXPECT_NEAR(op.duty_factor, 1.0 / 16.0, 1e-12);
  EXPECT_GT(op.cpu_power.value(), 20.0);
  EXPECT_LT(op.cpu_power.value(), 2 * spec_.socket_base_w + 4.0);
}

TEST_F(RaplTest, MemCapThrottlesBandwidth) {
  const auto w = memory_workload();
  const OperatingPoint open =
      solver_.solve(w, 60.0, config(24, Watts(1e9), Watts(1e9)));
  const OperatingPoint capped =
      solver_.solve(w, 60.0, config(24, Watts(1e9), Watts(20.0)));
  EXPECT_LT(capped.perf.achieved_bw_gbps, open.perf.achieved_bw_gbps);
  EXPECT_LE(capped.mem_power.value(), 20.0 + 1e-9);
  EXPECT_GT(capped.perf.time.value(), open.perf.time.value());
}

TEST_F(RaplTest, MemLevelCapsBandwidthLikePower) {
  const auto w = memory_workload();
  const OperatingPoint l0 = solver_.solve(
      w, 60.0, config(24, Watts(1e9), Watts(1e9), MemPowerLevel::kL0));
  const OperatingPoint l3 = solver_.solve(
      w, 60.0, config(24, Watts(1e9), Watts(1e9), MemPowerLevel::kL3));
  EXPECT_LT(l3.perf.achieved_bw_gbps, l0.perf.achieved_bw_gbps);
  EXPECT_GT(l3.perf.time.value(), l0.perf.time.value());
}

TEST_F(RaplTest, BandwidthCeilingComputation) {
  const auto placement =
      place_threads(spec_.shape, 24, AffinityPolicy::kScatter);
  // Unlimited cap: ceiling = level bandwidth.
  EXPECT_NEAR(solver_.bandwidth_ceiling(placement, MemPowerLevel::kL0,
                                        Watts(1e9)),
              68.0, 1e-9);
  EXPECT_NEAR(solver_.bandwidth_ceiling(placement, MemPowerLevel::kL2,
                                        Watts(1e9)),
              34.0, 1e-9);
  // Power-capped: (cap - base) / w_per_gbps.
  const double ceiling = solver_.bandwidth_ceiling(
      placement, MemPowerLevel::kL0, Watts(24.0));
  EXPECT_NEAR(ceiling, (24.0 - 10.0) / (14.0 / 34.0), 1e-9);
}

TEST_F(RaplTest, MemoryBoundWithZeroBandwidthBudgetThrows) {
  // DRAM cap below base power leaves zero bandwidth for a memory-bound app.
  EXPECT_THROW(
      (void)solver_.solve(memory_workload(), 60.0,
                          config(24, Watts(1e9), Watts(8.0))),
      PreconditionError);
}

TEST_F(RaplTest, VariabilityMakesInefficentNodeSlower) {
  const NodeConfig cfg = config(24, Watts(90.0));
  const OperatingPoint good =
      solver_.solve(compute_workload(), 100.0, cfg, 0.95);
  const OperatingPoint bad =
      solver_.solve(compute_workload(), 100.0, cfg, 1.10);
  EXPECT_LE(good.perf.time.value(), bad.perf.time.value());
}

TEST_F(RaplTest, InvalidConfigsRejected) {
  EXPECT_THROW(
      (void)solver_.solve(compute_workload(), 100.0, config(25, Watts(100))),
      PreconditionError);
  EXPECT_THROW(
      (void)solver_.solve(compute_workload(), 100.0, config(24, Watts(0))),
      PreconditionError);
}

// ------------------------------------------------------------ variability ----

TEST(Variability, SigmaZeroGivesIdenticalNodes) {
  MachineSpec spec = default_spec();
  spec.variability_sigma = 0.0;
  const Variability v(spec);
  for (int i = 0; i < spec.nodes; ++i)
    EXPECT_DOUBLE_EQ(v.cpu_multiplier(i), 1.0);
  EXPECT_DOUBLE_EQ(v.spread(), 0.0);
}

TEST(Variability, SeededDrawsAreReproducible) {
  MachineSpec spec = default_spec();
  spec.variability_sigma = 0.05;
  const Variability a(spec), b(spec);
  for (int i = 0; i < spec.nodes; ++i)
    EXPECT_DOUBLE_EQ(a.cpu_multiplier(i), b.cpu_multiplier(i));
}

TEST(Variability, DifferentSeedsDiffer) {
  MachineSpec spec = default_spec();
  spec.variability_sigma = 0.05;
  const Variability a(spec);
  spec.variability_seed = 99;
  const Variability b(spec);
  bool any_diff = false;
  for (int i = 0; i < spec.nodes; ++i)
    if (a.cpu_multiplier(i) != b.cpu_multiplier(i)) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Variability, SpreadGrowsWithSigma) {
  MachineSpec spec = default_spec();
  spec.variability_sigma = 0.02;
  const double small = Variability(spec).spread();
  spec.variability_sigma = 0.10;
  const double large = Variability(spec).spread();
  EXPECT_GT(large, small);
}

TEST(Variability, MultipliersNearOne) {
  MachineSpec spec = default_spec();
  spec.variability_sigma = 0.03;
  const Variability v(spec);
  for (int i = 0; i < spec.nodes; ++i) {
    EXPECT_GT(v.cpu_multiplier(i), 0.85);
    EXPECT_LT(v.cpu_multiplier(i), 1.15);
  }
}

TEST(Variability, OutOfRangeIndexThrows) {
  const Variability v(default_spec());
  EXPECT_THROW((void)v.cpu_multiplier(-1), PreconditionError);
  EXPECT_THROW((void)v.cpu_multiplier(8), PreconditionError);
}

// ------------------------------------------------------------ power meter ----

TEST(PowerMeter, DisabledMeterIsExact) {
  MeterOptions opt;
  opt.enabled = false;
  PowerMeter meter(opt);
  EXPECT_DOUBLE_EQ(meter.read_power(Watts(100.0)).value(), 100.0);
  EXPECT_DOUBLE_EQ(meter.read_time(Seconds(5.0)).value(), 5.0);
}

TEST(PowerMeter, NoiseIsSmallAndBounded) {
  PowerMeter meter;
  for (int i = 0; i < 1000; ++i) {
    const double v = meter.read_power(Watts(100.0)).value();
    EXPECT_GT(v, 98.0);  // 4-sigma clamp = 2%
    EXPECT_LT(v, 102.0);
  }
}

TEST(PowerMeter, SeededNoiseReproducible) {
  MeterOptions opt;
  PowerMeter a(opt), b(opt);
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.read_power(Watts(50.0)).value(),
                     b.read_power(Watts(50.0)).value());
}

TEST(PowerMeter, ObserveKeepsEnergyConsistent) {
  Measurement m;
  m.time = Seconds(10.0);
  NodeMeasurement nm;
  nm.time = Seconds(10.0);
  nm.cpu_power = Watts(90.0);
  nm.mem_power = Watts(30.0);
  m.nodes.push_back(nm);
  PowerMeter meter;
  meter.observe(m);
  EXPECT_NEAR(m.energy.value(), m.avg_power.value() * m.time.value(),
              1e-9);
}

}  // namespace
}  // namespace clip::sim

// Unit tests for the profiling side of CLIP: smart profiler, scalability
// classifier, knowledge database.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/classifier.hpp"
#include "core/knowledge_db.hpp"
#include "util/csv.hpp"
#include "core/profiler.hpp"
#include "sim/executor.hpp"
#include "util/check.hpp"
#include "workloads/catalog.hpp"
#include "temp_path.hpp"

namespace clip::core {
namespace {

sim::MeterOptions no_noise() {
  sim::MeterOptions m;
  m.enabled = false;
  return m;
}

class ProfilerTest : public ::testing::Test {
 protected:
  sim::SimExecutor ex_{sim::MachineSpec{}, no_noise()};
  SmartProfiler profiler_{ex_};
};

// ---------------------------------------------------------------- profiler ----

TEST_F(ProfilerTest, ProfileHasTwoSamplesAndNoValidation) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  const ProfileData p = profiler_.profile(w);
  EXPECT_EQ(p.all_core.config.threads, 24);
  EXPECT_EQ(p.half_core.config.threads, 12);
  EXPECT_FALSE(p.validation.has_value());
}

TEST_F(ProfilerTest, PerfRatioMatchesDirectMeasurement) {
  const auto w = *workloads::find_benchmark("CoMD");
  const ProfileData p = profiler_.profile(w);
  EXPECT_NEAR(p.perf_ratio_half_over_all,
              p.all_core.time.value() / p.half_core.time.value(), 1e-12);
}

TEST_F(ProfilerTest, ProfiledTimesScaleBackToFullProblem) {
  // The profiler runs a truncated problem but reports full-problem time;
  // it must be close to an actual full run.
  const auto w = *workloads::find_benchmark("AMG");
  const ProfileData p = profiler_.profile(w);
  sim::ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.node.threads = 24;
  cfg.node.affinity = parallel::AffinityPolicy::kScatter;
  const double actual = ex_.run_exact(w, cfg).time.value();
  EXPECT_NEAR(p.all_core.time.value(), actual, actual * 0.05);
}

TEST_F(ProfilerTest, MemoryIntensiveWorkloadPrefersScatter) {
  const auto w = *workloads::find_benchmark("TeaLeaf");
  const ProfileData p = profiler_.profile(w);
  EXPECT_EQ(p.preferred_affinity, parallel::AffinityPolicy::kScatter);
  EXPECT_GT(p.memory_intensity, 0.5);
}

TEST_F(ProfilerTest, ComputeBoundWorkloadPrefersCompact) {
  const auto w = *workloads::find_benchmark("EP");
  const ProfileData p = profiler_.profile(w);
  EXPECT_EQ(p.preferred_affinity, parallel::AffinityPolicy::kCompact);
  EXPECT_LT(p.memory_intensity, 0.1);
}

TEST_F(ProfilerTest, PerCoreBandwidthUsesLessSaturatedSample) {
  // For saturated workloads the half-core sample yields the larger (more
  // truthful) per-core figure.
  const auto w = *workloads::find_benchmark("STREAM-Triad");
  const ProfileData p = profiler_.profile(w);
  EXPECT_GT(p.per_core_bw_gbps, p.node_bw_gbps / 24.0);
}

TEST_F(ProfilerTest, ValidationSampleAttached) {
  const auto w = *workloads::find_benchmark("SP-MZ");
  ProfileData p = profiler_.profile(w);
  profiler_.validate_at(w, p, 14);
  ASSERT_TRUE(p.validation.has_value());
  EXPECT_EQ(p.validation->config.threads, 14);
  EXPECT_GT(p.validation->time.value(), 0.0);
}

TEST_F(ProfilerTest, ProfilingCostIsSmallFractionOfRun) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  const ProfileData p = profiler_.profile(w);
  // Two samples at 5% each of already-parallel runs: far below one full run.
  EXPECT_LT(p.profiling_cost.value(), p.all_core.time.value() * 0.2);
}

TEST_F(ProfilerTest, ValidationThreadBoundsChecked) {
  const auto w = *workloads::find_benchmark("SP-MZ");
  ProfileData p = profiler_.profile(w);
  EXPECT_THROW(profiler_.validate_at(w, p, 25), PreconditionError);
  EXPECT_THROW(profiler_.validate_at(w, p, 0), PreconditionError);
}

TEST_F(ProfilerTest, FeatureVectorIsTableIWidth) {
  const auto w = *workloads::find_benchmark("BT-MZ");
  const ProfileData p = profiler_.profile(w);
  EXPECT_EQ(p.features().size(), 8u);
  // Event7 = full/half performance ratio, filled by the profiler.
  EXPECT_NEAR(p.features()[7], 1.0 / p.perf_ratio_half_over_all, 1e-12);
}

// --------------------------------------------------------------- classifier ----

TEST(Classifier, PaperThresholds) {
  const ScalabilityClassifier c;
  EXPECT_EQ(c.classify(0.55), workloads::ScalabilityClass::kLinear);
  EXPECT_EQ(c.classify(0.699), workloads::ScalabilityClass::kLinear);
  EXPECT_EQ(c.classify(0.7), workloads::ScalabilityClass::kLogarithmic);
  EXPECT_EQ(c.classify(0.999), workloads::ScalabilityClass::kLogarithmic);
  EXPECT_EQ(c.classify(1.0), workloads::ScalabilityClass::kParabolic);
  EXPECT_EQ(c.classify(1.6), workloads::ScalabilityClass::kParabolic);
}

TEST(Classifier, CustomThresholds) {
  const ScalabilityClassifier c(ClassifierThresholds{0.6, 1.1});
  EXPECT_EQ(c.classify(0.65), workloads::ScalabilityClass::kLogarithmic);
  EXPECT_EQ(c.classify(1.05), workloads::ScalabilityClass::kLogarithmic);
}

TEST(Classifier, RejectsNonPositiveRatio) {
  const ScalabilityClassifier c;
  EXPECT_THROW((void)c.classify(0.0), PreconditionError);
}

TEST_F(ProfilerTest, AllPaperBenchmarksClassifyAsTableII) {
  const ScalabilityClassifier classifier;
  for (const auto& w : workloads::paper_benchmarks()) {
    const ProfileData p = profiler_.profile(w);
    EXPECT_EQ(classifier.classify(p), w.expected_class)
        << w.name << "/" << w.parameters
        << " ratio=" << p.perf_ratio_half_over_all;
  }
}

TEST_F(ProfilerTest, ClassificationRobustToMeasurementNoise) {
  // With the default (noisy) meter, classification of the paper set must
  // still match: the ratios are far enough from the thresholds.
  sim::SimExecutor noisy{sim::MachineSpec{}};
  SmartProfiler profiler(noisy);
  const ScalabilityClassifier classifier;
  for (const auto& w : workloads::paper_benchmarks()) {
    const ProfileData p = profiler.profile(w);
    EXPECT_EQ(classifier.classify(p), w.expected_class)
        << w.name << " ratio=" << p.perf_ratio_half_over_all;
  }
}

// ------------------------------------------------------------- knowledge DB ----

class KnowledgeDbTest : public ::testing::Test {
 protected:
  std::filesystem::path path_ = unique_temp_path("clip_kdb_test", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }

  KnowledgeRecord sample_record() {
    KnowledgeRecord r;
    r.name = "BT-MZ";
    r.parameters = "C";
    r.cls = workloads::ScalabilityClass::kLogarithmic;
    r.inflection = 10;
    r.perf_ratio = 0.79;
    r.preferred_affinity = parallel::AffinityPolicy::kScatter;
    r.per_core_bw_gbps = 5.1;
    r.memory_intensity = 0.9;
    r.time_all_s = 27.0;
    r.time_half_s = 34.0;
    r.time_validation_s = 30.0;
    r.validation_threads = 10;
    r.cpu_power_all_w = 104.0;
    r.mem_power_all_w = 36.0;
    return r;
  }
};

TEST_F(KnowledgeDbTest, InsertAndLookup) {
  KnowledgeDb db;
  db.insert(sample_record());
  EXPECT_EQ(db.size(), 1u);
  const auto hit = db.lookup("BT-MZ", "C");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->inflection, 10);
  EXPECT_FALSE(db.lookup("BT-MZ", "D").has_value());
  EXPECT_FALSE(db.lookup("XX", "C").has_value());
}

TEST_F(KnowledgeDbTest, SameNameDifferentParametersAreDistinct) {
  KnowledgeDb db;
  KnowledgeRecord a = sample_record();
  a.name = "CloverLeaf";
  a.parameters = "clover128_short.in";
  KnowledgeRecord b = a;
  b.parameters = "clover16.in";
  b.inflection = 8;
  db.insert(a);
  db.insert(b);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.lookup("CloverLeaf", "clover16.in")->inflection, 8);
}

TEST_F(KnowledgeDbTest, InsertOverwritesExistingKey) {
  KnowledgeDb db;
  db.insert(sample_record());
  KnowledgeRecord updated = sample_record();
  updated.inflection = 12;
  db.insert(updated);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.lookup("BT-MZ", "C")->inflection, 12);
}

TEST_F(KnowledgeDbTest, SaveLoadRoundTrip) {
  KnowledgeDb db;
  db.insert(sample_record());
  db.save(path_);
  KnowledgeDb loaded;
  loaded.load(path_);
  const auto hit = loaded.lookup("BT-MZ", "C");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cls, workloads::ScalabilityClass::kLogarithmic);
  EXPECT_EQ(hit->inflection, 10);
  EXPECT_NEAR(hit->perf_ratio, 0.79, 1e-6);
  EXPECT_NEAR(hit->time_validation_s, 30.0, 1e-6);
  EXPECT_EQ(hit->validation_threads, 10);
}

TEST_F(KnowledgeDbTest, RecordToProfileReconstruction) {
  const KnowledgeRecord r = sample_record();
  const ProfileData p = r.to_profile(KnowledgeDbShape{24, ""});
  EXPECT_EQ(p.app_name, "BT-MZ");
  EXPECT_DOUBLE_EQ(p.all_core.time.value(), 27.0);
  EXPECT_DOUBLE_EQ(p.half_core.time.value(), 34.0);
  ASSERT_TRUE(p.validation.has_value());
  EXPECT_EQ(p.validation->config.threads, 10);
  EXPECT_DOUBLE_EQ(p.perf_ratio_half_over_all, 0.79);
  EXPECT_DOUBLE_EQ(p.per_core_bw_gbps, 5.1);
}

TEST_F(KnowledgeDbTest, RecordWithoutValidationReconstructsWithout) {
  KnowledgeRecord r = sample_record();
  r.validation_threads = 0;
  const ProfileData p = r.to_profile(KnowledgeDbShape{24, ""});
  EXPECT_FALSE(p.validation.has_value());
}

TEST_F(KnowledgeDbTest, MakeRecordCapturesProfile) {
  sim::SimExecutor ex{sim::MachineSpec{}, no_noise()};
  SmartProfiler profiler(ex);
  const auto w = *workloads::find_benchmark("SP-MZ");
  ProfileData p = profiler.profile(w);
  profiler.validate_at(w, p, 12);
  const KnowledgeRecord r =
      make_record(p, workloads::ScalabilityClass::kParabolic, 12);
  EXPECT_EQ(r.name, "SP-MZ");
  EXPECT_EQ(r.inflection, 12);
  EXPECT_EQ(r.validation_threads, 12);
  EXPECT_DOUBLE_EQ(r.time_all_s, p.all_core.time.value());
}

TEST_F(KnowledgeDbTest, LoadRejectsSchemaMismatch) {
  clip::CsvDocument doc;
  doc.header = {"wrong", "schema"};
  doc.rows = {{"a", "b"}};
  clip::write_csv(path_, doc);
  KnowledgeDb db;
  EXPECT_THROW(db.load(path_), PreconditionError);
}

}  // namespace
}  // namespace clip::core

// End-to-end fault tolerance: every miner either absorbs a transient scan
// fault (producing results bit-identical to the fault-free run) or fails
// closed with a typed error and an empty pattern set. Border collapsing
// additionally retries failed probe scans at the miner level and resumes
// an interrupted Phase 3 from its checkpoint.
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/db/fault_injecting_database.h"
#include "nmine/db/retry.h"
#include "nmine/db/retrying_database.h"
#include "nmine/gen/workload.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/depth_first_miner.h"
#include "nmine/mining/levelwise_miner.h"
#include "nmine/mining/max_miner.h"
#include "nmine/mining/toivonen_miner.h"
#include "nmine/obs/metrics.h"
#include "nmine/runtime/run_checkpoint.h"
#include "test_util.h"

namespace nmine {
namespace {

using MineFn = std::function<MiningResult(const SequenceDatabase&)>;

class FaultTolerantMiningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec;
    spec.num_sequences = 80;
    spec.min_length = 20;
    spec.max_length = 40;
    spec.num_planted = 2;
    spec.planted_symbols_min = 4;
    spec.planted_symbols_max = 6;
    spec.seed = 77;
    workload_ = MakeUniformNoiseWorkload(spec, 0.1);
  }

  MinerOptions Options() const {
    MinerOptions o;
    o.min_threshold = 0.25;
    o.space.max_span = 6;
    o.sample_size = 30;  // well under N: leaves a real ambiguous region
    o.delta = 0.05;
    o.seed = 3;
    o.max_counters_per_scan = 4;  // forces several Phase-3 probe scans
    return o;
  }

  /// Every miner under test, by name.
  std::vector<std::pair<std::string, MineFn>> Miners() const {
    MinerOptions o = Options();
    const CompatibilityMatrix& c = workload_.matrix;
    return {
        {"levelwise",
         [o, &c](const SequenceDatabase& db) {
           return LevelwiseMiner(Metric::kMatch, o).Mine(db, c);
         }},
        {"collapse",
         [o, &c](const SequenceDatabase& db) {
           return BorderCollapseMiner(Metric::kMatch, o).Mine(db, c);
         }},
        {"maxminer",
         [o, &c](const SequenceDatabase& db) {
           return MaxMiner(Metric::kMatch, o).Mine(db, c);
         }},
        {"toivonen",
         [o, &c](const SequenceDatabase& db) {
           return ToivonenMiner(Metric::kMatch, o).Mine(db, c);
         }},
        {"depthfirst",
         [o, &c](const SequenceDatabase& db) {
           return DepthFirstMiner(Metric::kMatch, o).Mine(db, c);
         }},
    };
  }

  NoisyWorkload workload_;
};

TEST_F(FaultTolerantMiningTest, TransientFaultsAreInvisibleWithRetry) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = 0.0;
  for (const auto& [name, mine] : Miners()) {
    MiningResult clean = mine(workload_.test);
    ASSERT_TRUE(clean.ok()) << name;

    // First attempt of the first scan fails, plus one mid-run transient.
    FaultPlan plan;
    plan.open_fail_scans = 1;
    plan.fail_scan_indices = {3};
    FaultInjectingDatabase injector(&workload_.test, plan);
    FakeSleeper sleeper;
    RetryingDatabase db(&injector, policy, &sleeper);

    MiningResult faulted = mine(db);
    EXPECT_TRUE(faulted.ok()) << name << ": " << faulted.status.ToString();
    EXPECT_EQ(clean.frequent.ToSortedVector(),
              faulted.frequent.ToSortedVector())
        << name;
    EXPECT_EQ(clean.border.ToSortedVector(), faulted.border.ToSortedVector())
        << name;
    // The retrying decorator counts logical scans, so the paper's cost
    // metric is unchanged by the absorbed faults.
    EXPECT_EQ(clean.scans, faulted.scans) << name;
    EXPECT_FALSE(sleeper.slept_ms().empty()) << name;
  }
}

TEST_F(FaultTolerantMiningTest, PermanentFaultFailsClosed) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t failed_before = reg.CounterValue("mining.failed_runs");
  int miners = 0;
  for (const auto& [name, mine] : Miners()) {
    FaultPlan plan;
    plan.corrupt_from_scan = 0;
    FaultInjectingDatabase injector(&workload_.test, plan);
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.jitter = 0.0;
    FakeSleeper sleeper;
    RetryingDatabase db(&injector, policy, &sleeper);

    MiningResult r = mine(db);
    EXPECT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status.code(), StatusCode::kDataLoss) << name;
    // A partial answer is indistinguishable from a complete one, so a
    // failed run must return an empty pattern set.
    EXPECT_TRUE(r.frequent.ToSortedVector().empty()) << name;
    EXPECT_TRUE(r.border.ToSortedVector().empty()) << name;
    // Permanent faults are never retried.
    EXPECT_TRUE(sleeper.slept_ms().empty()) << name;
    ++miners;
  }
  EXPECT_EQ(reg.CounterValue("mining.failed_runs") - failed_before, miners);
}

TEST_F(FaultTolerantMiningTest, Phase3MinerLevelRetryMatchesCleanRun) {
  MinerOptions options = Options();
  options.phase3_scan_retries = 1;
  BorderCollapseMiner miner(Metric::kMatch, options);
  MiningResult clean = miner.Mine(workload_.test, workload_.matrix);
  ASSERT_TRUE(clean.ok());
  // Needs at least one Phase-3 probe scan for the fault below to hit one.
  ASSERT_GE(clean.scans, 2) << "workload leaves no ambiguous region";

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t retries_before = reg.CounterValue("phase3.scan_retries");

  // Attempt 0 is the Phase-1 scan; attempt 1 is the first probe scan. No
  // retrying decorator here: the retry under test is the miner's own.
  FaultPlan plan;
  plan.fail_scan_indices = {1};
  FaultInjectingDatabase db(&workload_.test, plan);
  MiningResult faulted = miner.Mine(db, workload_.matrix);
  EXPECT_TRUE(faulted.ok()) << faulted.status.ToString();
  EXPECT_EQ(clean.frequent.ToSortedVector(),
            faulted.frequent.ToSortedVector());
  EXPECT_EQ(clean.border.ToSortedVector(), faulted.border.ToSortedVector());
  EXPECT_GE(reg.CounterValue("phase3.scan_retries") - retries_before, 1);
}

TEST_F(FaultTolerantMiningTest, CheckpointResumeMatchesCleanRun) {
  BorderCollapseMiner reference(Metric::kMatch, Options());
  MiningResult clean = reference.Mine(workload_.test, workload_.matrix);
  ASSERT_TRUE(clean.ok());
  // Needs >= 2 probe scans so a checkpoint exists when the fault hits.
  ASSERT_GE(clean.scans, 3) << "workload collapses in a single probe scan";

  const std::string ckpt = testutil::TempPath("phase3_resume.ckpt");
  runtime::RemoveRunCheckpoint(ckpt);
  MinerOptions options = Options();
  options.run_checkpoint_path = ckpt;
  BorderCollapseMiner miner(Metric::kMatch, options);

  // Run 1: permanent fault on the last probe scan. Fails closed, leaving
  // the checkpoint of the previous good probe on disk.
  FaultPlan plan;
  plan.corrupt_from_scan = static_cast<int>(clean.scans) - 1;
  FaultInjectingDatabase faulty(&workload_.test, plan);
  MiningResult interrupted = miner.Mine(faulty, workload_.matrix);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_TRUE(interrupted.frequent.ToSortedVector().empty());
  EXPECT_TRUE(std::ifstream(ckpt).good()) << "checkpoint missing after fault";

  // Run 2: same configuration against the healthy database resumes from
  // the checkpoint instead of redoing Phases 1-3 from scratch.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t resumes_before = reg.CounterValue("phase3.resumes");
  MiningResult resumed = miner.Mine(workload_.test, workload_.matrix);
  EXPECT_TRUE(resumed.ok()) << resumed.status.ToString();
  EXPECT_EQ(clean.frequent.ToSortedVector(),
            resumed.frequent.ToSortedVector());
  EXPECT_EQ(clean.border.ToSortedVector(), resumed.border.ToSortedVector());
  // Scan accounting spans the interrupted and resumed runs: checkpointed
  // scans plus this run's remaining probes equal the fault-free total.
  EXPECT_EQ(resumed.scans, clean.scans);
  EXPECT_EQ(reg.CounterValue("phase3.resumes") - resumes_before, 1);
  // Success removes the checkpoint.
  EXPECT_FALSE(std::ifstream(ckpt).good());
}

TEST_F(FaultTolerantMiningTest, CheckpointRoundTripAndGuards) {
  const std::string path = testutil::TempPath("cp_roundtrip.ckpt");
  runtime::RunCheckpoint expected;
  expected.metric = Metric::kMatch;
  expected.min_threshold = 0.25;
  expected.num_sequences = 80;
  expected.total_symbols = 2400;
  runtime::RunCheckpoint cp = expected;
  cp.stage = runtime::RunStage::kPhase3Progress;
  cp.scans_completed = 3;
  cp.ambiguous_after_sample = 12;
  cp.ambiguous_with_unit_spread = 9;
  cp.accepted_from_sample = 4;
  cp.truncated = true;
  cp.symbol_match = {0.5, 0.25, 0.125};
  cp.resolved_frequent.emplace_back(testutil::P({0, 1}), 0.75);
  cp.resolved_frequent.emplace_back(testutil::P({0, -1, 2}), 0.5);
  cp.unresolved.emplace_back(testutil::P({1, 2}), 0.3);
  ASSERT_TRUE(runtime::WriteRunCheckpoint(path, cp).ok());

  runtime::RunCheckpoint loaded;
  ASSERT_TRUE(runtime::LoadRunCheckpoint(path, expected, &loaded).ok());
  EXPECT_EQ(loaded.stage, runtime::RunStage::kPhase3Progress);
  EXPECT_EQ(loaded.scans_completed, 3);
  EXPECT_EQ(loaded.ambiguous_after_sample, 12u);
  EXPECT_EQ(loaded.ambiguous_with_unit_spread, 9u);
  EXPECT_EQ(loaded.accepted_from_sample, 4u);
  EXPECT_TRUE(loaded.truncated);
  EXPECT_EQ(loaded.symbol_match, cp.symbol_match);
  ASSERT_EQ(loaded.resolved_frequent.size(), 2u);
  EXPECT_EQ(loaded.resolved_frequent[0].first, cp.resolved_frequent[0].first);
  EXPECT_DOUBLE_EQ(loaded.resolved_frequent[1].second, 0.5);
  ASSERT_EQ(loaded.unresolved.size(), 1u);
  EXPECT_EQ(loaded.unresolved[0].first, testutil::P({1, 2}));

  // Guard mismatch: a different threshold must refuse the checkpoint.
  runtime::RunCheckpoint other = expected;
  other.min_threshold = 0.5;
  runtime::RunCheckpoint ignored;
  EXPECT_EQ(runtime::LoadRunCheckpoint(path, other, &ignored).code(),
            StatusCode::kFailedPrecondition);

  // Missing file: fresh run.
  EXPECT_EQ(
      runtime::LoadRunCheckpoint(path + ".missing", expected, &ignored)
          .code(),
      StatusCode::kNotFound);

  // Malformed file under a foreign magic: data loss, never a crash.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "nmine-phase3-checkpoint v1\nmetric match\ngarbage here\n";
  }
  EXPECT_EQ(runtime::LoadRunCheckpoint(path, expected, &ignored).code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nmine

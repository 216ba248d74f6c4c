// Fault plans, the injecting decorator, and retry-with-backoff: transient
// faults are absorbed (with an observable retry schedule and counters),
// permanent faults surface immediately, and mid-stream retries only happen
// when the caller supplied a restart callback.
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/db/disk_database.h"
#include "nmine/db/fault_injecting_database.h"
#include "nmine/db/format.h"
#include "nmine/db/retry.h"
#include "nmine/db/retrying_database.h"
#include "nmine/obs/metrics.h"
#include "test_util.h"

namespace nmine {
namespace {

RetryPolicy TestPolicy(int max_attempts) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.initial_backoff_ms = 5.0;
  p.multiplier = 2.0;
  p.max_backoff_ms = 500.0;
  p.jitter = 0.0;  // deterministic schedule for assertions
  return p;
}

/// Counts records seen in the current attempt; restart resets it.
struct CountingVisitor {
  size_t seen = 0;
  SequenceDatabase::Visitor Visit() {
    return [this](const SequenceRecord&) { ++seen; };
  }
  SequenceDatabase::RestartFn Restart() {
    return [this] { seen = 0; };
  }
};

TEST(FaultPlanTest, ParsesFullSpec) {
  std::string error;
  std::optional<FaultPlan> plan = FaultPlan::Parse(
      "open-fail:2, short-read:1:3, fail-scan:5, fail-scan:7, "
      "corrupt-from:9, flaky:0.25, seed:17",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->open_fail_scans, 2);
  EXPECT_EQ(plan->short_read_scans, 1);
  EXPECT_EQ(plan->short_read_records, 3u);
  EXPECT_EQ(plan->fail_scan_indices, (std::vector<int>{5, 7}));
  EXPECT_EQ(plan->corrupt_from_scan, 9);
  EXPECT_DOUBLE_EQ(plan->flake_probability, 0.25);
  EXPECT_EQ(plan->seed, 17u);
}

TEST(FaultPlanTest, EmptySpecIsBenign) {
  std::string error;
  std::optional<FaultPlan> plan = FaultPlan::Parse("", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->open_fail_scans, 0);
  EXPECT_EQ(plan->corrupt_from_scan, -1);
}

TEST(FaultPlanTest, RejectsMalformedClauses) {
  for (const char* bad :
       {"open-fail", "open-fail:x", "open-fail:-1", "short-read:1",
        "short-read:1:x", "flaky:2", "flaky:-0.1", "bogus:1",
        "corrupt-from:x"}) {
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultInjectionTest, OpenFailFailsThenRecovers) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.open_fail_scans = 1;
  FaultInjectingDatabase db(&inner, plan);
  CountingVisitor v;
  Status first = db.Scan(v.Visit(), v.Restart());
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(first.IsTransient());
  Status second = db.Scan(v.Visit(), v.Restart());
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(v.seen, inner.NumSequences());
  EXPECT_EQ(db.attempts(), 2);
}

TEST(FaultInjectionTest, ShortReadDeliversPrefixThenFails) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.short_read_scans = 1;
  plan.short_read_records = 2;
  FaultInjectingDatabase db(&inner, plan);
  CountingVisitor v;
  Status first = db.Scan(v.Visit(), v.Restart());
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  EXPECT_EQ(v.seen, 2u);  // the short read stopped after K records
  Status second = db.Scan(v.Visit(), v.Restart());
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(v.seen, inner.NumSequences());
}

TEST(FaultInjectionTest, FailScanTargetsOneAttemptIndex) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.fail_scan_indices = {1};
  FaultInjectingDatabase db(&inner, plan);
  CountingVisitor v;
  EXPECT_TRUE(db.Scan(v.Visit(), v.Restart()).ok());
  EXPECT_EQ(db.Scan(v.Visit(), v.Restart()).code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(db.Scan(v.Visit(), v.Restart()).ok());
}

TEST(FaultInjectionTest, CorruptFromIsPermanentAndDominates) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.corrupt_from_scan = 0;
  plan.open_fail_scans = 5;  // corruption must win over transient clauses
  FaultInjectingDatabase db(&inner, plan);
  CountingVisitor v;
  for (int i = 0; i < 3; ++i) {
    Status s = db.Scan(v.Visit(), v.Restart());
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
    EXPECT_FALSE(s.IsTransient());
  }
}

TEST(RetryingDatabaseTest, AbsorbsTransientFaultsWithBackoffSchedule) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t faults_before = reg.CounterValue("db.scan.faults");
  const int64_t retries_before = reg.CounterValue("db.scan.retries");

  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.open_fail_scans = 2;
  FaultInjectingDatabase injector(&inner, plan);
  FakeSleeper sleeper;
  RetryingDatabase db(&injector, TestPolicy(3), &sleeper);

  CountingVisitor v;
  Status s = db.Scan(v.Visit(), v.Restart());
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(v.seen, inner.NumSequences());
  // Two failures -> two sleeps at 5ms then 10ms (jitter disabled).
  ASSERT_EQ(sleeper.slept_ms().size(), 2u);
  EXPECT_DOUBLE_EQ(sleeper.slept_ms()[0], 5.0);
  EXPECT_DOUBLE_EQ(sleeper.slept_ms()[1], 10.0);
  // One logical scan, three physical attempts.
  EXPECT_EQ(db.scan_count(), 1);
  EXPECT_EQ(injector.attempts(), 3);
  EXPECT_EQ(reg.CounterValue("db.scan.faults") - faults_before, 2);
  EXPECT_EQ(reg.CounterValue("db.scan.retries") - retries_before, 2);
}

TEST(RetryingDatabaseTest, GivesUpAfterMaxAttempts) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.open_fail_scans = 10;
  FaultInjectingDatabase injector(&inner, plan);
  FakeSleeper sleeper;
  RetryingDatabase db(&injector, TestPolicy(3), &sleeper);
  CountingVisitor v;
  Status s = db.Scan(v.Visit(), v.Restart());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(injector.attempts(), 3);
}

TEST(RetryingDatabaseTest, PermanentFaultIsNotRetried) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.corrupt_from_scan = 0;
  FaultInjectingDatabase injector(&inner, plan);
  FakeSleeper sleeper;
  RetryingDatabase db(&injector, TestPolicy(5), &sleeper);
  CountingVisitor v;
  Status s = db.Scan(v.Visit(), v.Restart());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(injector.attempts(), 1);
  EXPECT_TRUE(sleeper.slept_ms().empty());
}

TEST(RetryingDatabaseTest, NoRestartMeansNoMidStreamRetry) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.short_read_scans = 5;
  plan.short_read_records = 2;  // records are delivered before the failure
  FaultInjectingDatabase injector(&inner, plan);
  FakeSleeper sleeper;
  RetryingDatabase db(&injector, TestPolicy(5), &sleeper);

  // Without a restart callback the accumulated visitor state could not be
  // reset, so the mid-stream fault must surface instead of being retried.
  CountingVisitor v;
  Status s = db.Scan(v.Visit());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(injector.attempts(), 1);
  EXPECT_TRUE(sleeper.slept_ms().empty());

  // With a restart callback the same plan is retried until the short reads
  // are exhausted, and the visitor ends with exactly one full pass.
  CountingVisitor v2;
  FaultPlan plan2;
  plan2.short_read_scans = 2;
  plan2.short_read_records = 2;
  FaultInjectingDatabase injector2(&inner, plan2);
  RetryingDatabase db2(&injector2, TestPolicy(5), &sleeper);
  Status s2 = db2.Scan(v2.Visit(), v2.Restart());
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  EXPECT_EQ(v2.seen, inner.NumSequences());
  EXPECT_EQ(injector2.attempts(), 3);
}

TEST(RetryingDatabaseTest, FlakyPlanIsSeedDeterministic) {
  InMemorySequenceDatabase inner = testutil::Figure4Database();
  FaultPlan plan;
  plan.flake_probability = 0.5;
  plan.seed = 7;
  auto run = [&] {
    FaultInjectingDatabase injector(&inner, plan);
    std::vector<int> codes;
    CountingVisitor v;
    for (int i = 0; i < 16; ++i) {
      codes.push_back(
          static_cast<int>(injector.Scan(v.Visit(), v.Restart()).code()));
    }
    return codes;
  };
  EXPECT_EQ(run(), run());
}

TEST(DiskScanFaultTest, TruncationAfterOpenSurfacesOnScan) {
  const std::vector<SequenceRecord> records =
      testutil::Figure4Database().records();
  const std::string path = testutil::TempPath("trunc_after_open.nmsq");
  ASSERT_TRUE(dbformat::WriteDatabaseFile(path, records).ok);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  ASSERT_NE(db, nullptr) << error.ToString();

  // Simulate a concurrent rewrite shrinking the file after Open validated it.
  const std::string bytes = dbformat::EncodeDatabase(records);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  CountingVisitor v;
  Status s = db->Scan(v.Visit(), v.Restart());
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nmine

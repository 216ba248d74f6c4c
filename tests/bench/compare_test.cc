#include "bench/compare.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/harness.h"
#include "test_util.h"

namespace nmine {
namespace bench {
namespace {

SnapshotStats Stats(const std::string& name, double median, double mad) {
  SnapshotStats s;
  s.name = name;
  s.median = median;
  s.mad = mad;
  return s;
}

TEST(CompareStatsTest, FlagsRegressionBeyondThresholdAndNoise) {
  // +20% on a tight distribution: both conditions hold.
  CompareEntry e = CompareStats(Stats("b", 1.00, 0.01),
                                Stats("b", 1.20, 0.01), 0.15);
  EXPECT_TRUE(e.regression);
  EXPECT_FALSE(e.improvement);
  EXPECT_NEAR(e.delta_pct, 20.0, 1e-9);
}

TEST(CompareStatsTest, LargeMadSuppressesPercentOnlyRegressions) {
  // +20% but the delta (0.2) is within 3 x MAD (3 x 0.1 = 0.3): noise.
  CompareEntry e = CompareStats(Stats("b", 1.00, 0.10),
                                Stats("b", 1.20, 0.05), 0.15);
  EXPECT_FALSE(e.regression);
}

TEST(CompareStatsTest, SmallDeltaIsNotARegression) {
  CompareEntry e = CompareStats(Stats("b", 1.00, 0.0),
                                Stats("b", 1.10, 0.0), 0.15);
  EXPECT_FALSE(e.regression);
  EXPECT_FALSE(e.improvement);
}

TEST(CompareStatsTest, FlagsImprovementSymmetrically) {
  CompareEntry e = CompareStats(Stats("b", 1.00, 0.01),
                                Stats("b", 0.70, 0.01), 0.15);
  EXPECT_FALSE(e.regression);
  EXPECT_TRUE(e.improvement);
}

class CompareFilesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::TempPath("bench_compare_test");
    old_dir_ = (dir_ / "old").string();
    new_dir_ = (dir_ / "new").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(old_dir_);
    std::filesystem::create_directories(new_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes a BENCH_<name>.json with the given rep timings through the
  /// harness's own writer, so the test also covers the schema the tool
  /// actually reads.
  std::string WriteSnapshot(const std::string& dir, const std::string& name,
                            std::vector<double> seconds) {
    EXPECT_TRUE(WriteBenchJsonV2(name, ComputeRepStats(std::move(seconds)),
                                 dir));
    return dir + "/BENCH_" + name + ".json";
  }

  std::filesystem::path dir_;
  std::string old_dir_;
  std::string new_dir_;
};

TEST_F(CompareFilesTest, DetectsInjectedRegressionInFileMode) {
  // Tight old run around 1.0 s; new run injected 30% slower.
  std::string old_file =
      WriteSnapshot(old_dir_, "micro.x", {1.00, 1.01, 0.99});
  std::string new_file =
      WriteSnapshot(new_dir_, "micro.x", {1.30, 1.31, 1.29});

  CompareReport report;
  std::string error;
  ASSERT_TRUE(CompareFilesOrDirs(old_file, new_file,
                                 kDefaultRegressionThreshold, &report,
                                 &error))
      << error;
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_TRUE(report.entries[0].regression);
  EXPECT_TRUE(report.has_regression);
  EXPECT_NEAR(report.entries[0].old_median, 1.00, 1e-9);
  EXPECT_NEAR(report.entries[0].new_median, 1.30, 1e-9);
}

TEST_F(CompareFilesTest, DirectoryModeMatchesByFileNameAndReportsMissing) {
  WriteSnapshot(old_dir_, "a", {1.0, 1.0, 1.0});
  WriteSnapshot(new_dir_, "a", {1.0, 1.0, 1.0});
  WriteSnapshot(old_dir_, "gone", {2.0});
  WriteSnapshot(new_dir_, "fresh", {2.0});

  CompareReport report;
  std::string error;
  ASSERT_TRUE(CompareFilesOrDirs(old_dir_, new_dir_,
                                 kDefaultRegressionThreshold, &report,
                                 &error))
      << error;
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].name, "a");
  EXPECT_FALSE(report.has_regression);
  ASSERT_EQ(report.only_in_old.size(), 1u);
  EXPECT_EQ(report.only_in_old[0], "BENCH_gone.json");
  ASSERT_EQ(report.only_in_new.size(), 1u);
  EXPECT_EQ(report.only_in_new[0], "BENCH_fresh.json");
}

TEST_F(CompareFilesTest, ReadsSchemaV1FilesWithoutStats) {
  // Two v1 files (no "stats" object, no "schema_version"): the loader
  // falls back to median = "seconds", mad = 0, and the pair compares.
  std::string old_file = old_dir_ + "/BENCH_v1.json";
  std::string new_file = new_dir_ + "/BENCH_v1.json";
  {
    std::ofstream f(old_file);
    f << "{\"bench\": \"v1\", \"seconds\": 2.0, \"metrics\": {}}\n";
  }
  {
    std::ofstream f(new_file);
    f << "{\"bench\": \"v1\", \"seconds\": 3.0, \"metrics\": {}}\n";
  }

  CompareReport report;
  std::string error;
  ASSERT_TRUE(CompareFilesOrDirs(old_file, new_file,
                                 kDefaultRegressionThreshold, &report,
                                 &error))
      << error;
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_NEAR(report.entries[0].old_median, 2.0, 1e-9);
  EXPECT_TRUE(report.entries[0].regression);  // 2.0 -> 3.0, zero MAD
}

TEST_F(CompareFilesTest, SchemaMismatchIsAPerScenarioError) {
  // v1 baseline against a v2 run: no trustworthy verdict (v1 carries no
  // spread estimate), so the pair lands in errors, not entries.
  std::string old_file = old_dir_ + "/BENCH_m.json";
  {
    std::ofstream f(old_file);
    f << "{\"bench\": \"m\", \"seconds\": 2.0}\n";
  }
  std::string new_file = WriteSnapshot(new_dir_, "m", {2.0, 2.0, 2.0});

  CompareReport report;
  std::string error;
  ASSERT_TRUE(CompareFilesOrDirs(old_file, new_file,
                                 kDefaultRegressionThreshold, &report,
                                 &error))
      << error;
  EXPECT_TRUE(report.entries.empty());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("schema mismatch"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

TEST_F(CompareFilesTest, UnsupportedSchemaVersionFailsTheLoad) {
  std::string file = old_dir_ + "/BENCH_future.json";
  {
    std::ofstream f(file);
    f << "{\"schema_version\": 99, \"bench\": \"future\", "
         "\"stats\": {\"median\": 1.0, \"mad\": 0.0}}\n";
  }
  SnapshotStats stats;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(file, &stats, &error));
  EXPECT_NE(error.find("unsupported schema_version 99"), std::string::npos);
}

TEST_F(CompareFilesTest, MissingBaselineIsAPerScenarioError) {
  WriteSnapshot(old_dir_, "a", {1.0, 1.0, 1.0});
  WriteSnapshot(new_dir_, "a", {1.0, 1.0, 1.0});
  WriteSnapshot(new_dir_, "fresh", {2.0});

  CompareReport report;
  std::string error;
  ASSERT_TRUE(CompareFilesOrDirs(old_dir_, new_dir_,
                                 kDefaultRegressionThreshold, &report,
                                 &error))
      << error;
  EXPECT_FALSE(report.has_regression);  // the matched pair is clean...
  ASSERT_EQ(report.errors.size(), 1u);  // ...but the hole still fails it
  EXPECT_NE(report.errors[0].find("no baseline"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

TEST_F(CompareFilesTest, MarkdownSummaryListsRowsAndFailures) {
  WriteSnapshot(old_dir_, "a", {1.00, 1.01, 0.99});
  WriteSnapshot(new_dir_, "a", {1.30, 1.31, 1.29});
  WriteSnapshot(new_dir_, "fresh", {2.0});

  CompareReport report;
  std::string error;
  ASSERT_TRUE(CompareFilesOrDirs(old_dir_, new_dir_,
                                 kDefaultRegressionThreshold, &report,
                                 &error))
      << error;
  std::ostringstream md;
  PrintMarkdownSummary(report, kDefaultRegressionThreshold, md);
  const std::string text = md.str();
  EXPECT_NE(text.find("FAILED"), std::string::npos);
  EXPECT_NE(text.find("| a |"), std::string::npos);
  EXPECT_NE(text.find("regression"), std::string::npos);
  EXPECT_NE(text.find("no baseline"), std::string::npos);
}

TEST_F(CompareFilesTest, UnreadableFileIsAPerScenarioError) {
  std::string new_file = WriteSnapshot(new_dir_, "x", {1.0});
  CompareReport report;
  std::string error;
  ASSERT_TRUE(CompareFilesOrDirs(old_dir_ + "/BENCH_absent.json", new_file,
                                 kDefaultRegressionThreshold, &report,
                                 &error))
      << error;
  EXPECT_TRUE(report.entries.empty());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("cannot read"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace bench
}  // namespace nmine

// The coordinator's write-ahead journal: epochs must never regress across
// reopen (the zombie fence depends on it), in-flight scan progress must
// replay exactly, a torn tail must be skipped, and Open must compact dead
// scans away.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/dist/journal.h"
#include "test_util.h"

namespace nmine {
namespace dist {
namespace {

class DistJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::TempPath(std::string("dist_journal_") +
                                  ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DistJournalTest, EpochsSurviveReopenAndNeverRegress) {
  ReplayState state;
  std::string error;
  std::unique_ptr<DistJournal> journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_TRUE(state.epochs.empty());
  ASSERT_TRUE(journal->AppendEpoch(0, 1).ok());
  ASSERT_TRUE(journal->AppendEpoch(0, 2).ok());
  ASSERT_TRUE(journal->AppendEpoch(7, 5).ok());
  journal.reset();

  journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_EQ(state.epochs[0], 2u);
  EXPECT_EQ(state.epochs[7], 5u);
  EXPECT_FALSE(state.has_scan);
}

TEST_F(DistJournalTest, InFlightScanReplaysWithExactPartials) {
  ReplayState state;
  std::string error;
  std::unique_ptr<DistJournal> journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;

  ASSERT_TRUE(journal->AppendScanBegin(3, 0xdeadbeefcafef00dull).ok());
  ShardProgress progress;
  progress.done = 2;
  progress.complete = false;
  progress.partials = {{0.5, -0.0}, {1.0 / 3.0, 2.0}};
  ASSERT_TRUE(journal->AppendShardProgress(3, 1, progress).ok());
  // A later frame REPLACES the earlier one — cumulative, never additive.
  progress.done = 3;
  progress.complete = true;
  progress.partials.push_back({4.0, 5.0});
  ASSERT_TRUE(journal->AppendShardProgress(3, 1, progress).ok());
  journal.reset();

  journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_TRUE(state.has_scan);
  EXPECT_EQ(state.scan, 3u);
  EXPECT_EQ(state.fingerprint, 0xdeadbeefcafef00dull);
  ASSERT_EQ(state.shards.count(1), 1u);
  const ShardProgress& replayed = state.shards.at(1);
  EXPECT_EQ(replayed.done, 3u);
  EXPECT_TRUE(replayed.complete);
  ASSERT_EQ(replayed.partials.size(), 3u);
  EXPECT_EQ(replayed.partials[1][0], 1.0 / 3.0);
  EXPECT_TRUE(std::signbit(replayed.partials[0][1]));  // -0.0 preserved
}

TEST_F(DistJournalTest, ScanEndClearsInFlightStateAndCompactionDropsIt) {
  ReplayState state;
  std::string error;
  std::unique_ptr<DistJournal> journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  const std::string path = journal->path();

  ASSERT_TRUE(journal->AppendEpoch(2, 4).ok());
  ASSERT_TRUE(journal->AppendScanBegin(1, 42).ok());
  ShardProgress progress;
  progress.done = 1;
  progress.partials = {{9.0}};
  ASSERT_TRUE(journal->AppendShardProgress(1, 0, progress).ok());
  ASSERT_TRUE(journal->AppendScanEnd(1).ok());
  journal.reset();

  journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_FALSE(state.has_scan);
  EXPECT_EQ(state.epochs[2], 4u);
  // Compaction keeps only what the next life needs: the epoch line.
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents.find("progress"), std::string::npos);
  EXPECT_EQ(contents.find("scan"), std::string::npos);
  EXPECT_NE(contents.find("epoch"), std::string::npos);
}

TEST_F(DistJournalTest, NewScanSupersedesTheOldOne) {
  ReplayState state;
  std::string error;
  std::unique_ptr<DistJournal> journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_TRUE(journal->AppendScanBegin(1, 111).ok());
  ShardProgress progress;
  progress.done = 1;
  progress.partials = {{1.0}};
  ASSERT_TRUE(journal->AppendShardProgress(1, 0, progress).ok());
  ASSERT_TRUE(journal->AppendScanBegin(2, 222).ok());
  journal.reset();

  journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_TRUE(state.has_scan);
  EXPECT_EQ(state.scan, 2u);
  EXPECT_EQ(state.fingerprint, 222u);
  EXPECT_TRUE(state.shards.empty());  // scan 1's progress is dead
}

TEST_F(DistJournalTest, TornTailIsSkippedNotFatal) {
  ReplayState state;
  std::string error;
  std::unique_ptr<DistJournal> journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  const std::string path = journal->path();
  ASSERT_TRUE(journal->AppendEpoch(0, 3).ok());
  ASSERT_TRUE(journal->AppendScanBegin(5, 99).ok());
  journal.reset();

  // SIGKILL mid-write: the final line is half a progress frame.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"event\": \"progress\", \"scan\": 5, \"shard\": 0, \"done\": 1, "
           "\"partials\": [[\"3fd5";
  }

  journal = DistJournal::Open(dir_, &state, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_EQ(state.epochs[0], 3u);
  ASSERT_TRUE(state.has_scan);
  EXPECT_EQ(state.scan, 5u);
  // The torn frame was never acknowledged, so dropping it is correct.
  EXPECT_TRUE(state.shards.empty());
}

TEST(ScanFingerprintTest, SensitiveToMetricPatternsAndOrder) {
  std::vector<Pattern> a = {testutil::P({0, 1}), testutil::P({2})};
  std::vector<Pattern> reordered = {testutil::P({2}), testutil::P({0, 1})};
  std::vector<Pattern> wildcarded = {testutil::P({0, -1, 1}),
                                     testutil::P({2})};
  const uint64_t base = ScanFingerprint("match", a);
  EXPECT_EQ(base, ScanFingerprint("match", a));  // deterministic
  EXPECT_NE(base, ScanFingerprint("support", a));
  EXPECT_NE(base, ScanFingerprint("match", reordered));
  EXPECT_NE(base, ScanFingerprint("match", wildcarded));
  EXPECT_NE(base, ScanFingerprint("match", {}));
}

}  // namespace
}  // namespace dist
}  // namespace nmine

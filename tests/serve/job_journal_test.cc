// JobJournal: replay fidelity, torn-tail tolerance (the SIGKILL contract),
// running-to-queued rewind, and compaction of terminal jobs.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "nmine/serve/job_journal.h"
#include "test_util.h"

namespace nmine {
namespace serve {
namespace {

class JobJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::TempPath(std::string("journal_") +
                                  ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Job is pinned in place (it owns a RunControl), so the helper refills a
  // scratch instance instead of returning one by value.
  const Job& MakeJobValue(uint64_t id, const std::string& client) {
    scratch_.id = id;
    scratch_.client = client;
    scratch_.tag = "tag-" + std::to_string(id);
    scratch_.spec = JobSpec();
    scratch_.spec.db_path = "/data/db.nmsq";
    scratch_.spec.threshold = 0.3;
    scratch_.state = JobState::kQueued;
    scratch_.submit_us = 1000 + static_cast<int64_t>(id);
    return scratch_;
  }

  std::string JournalPath() const { return dir_ + "/jobs.journal"; }

  std::string dir_;
  Job scratch_;
};

TEST_F(JobJournalTest, FreshDirStartsEmpty) {
  std::map<uint64_t, Job> board;
  uint64_t next_id = 0;
  std::string error;
  auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_TRUE(board.empty());
  EXPECT_EQ(next_id, 1u);
}

TEST_F(JobJournalTest, ReplaysSubmitsStatesAndResults) {
  {
    std::map<uint64_t, Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_TRUE(journal->AppendSubmit(MakeJobValue(1, "alice")).ok());
    ASSERT_TRUE(journal->AppendSubmit(MakeJobValue(2, "bob")).ok());
    ASSERT_TRUE(journal->AppendState(1, JobState::kRunning).ok());
    JobResult result;
    result.ok = true;
    result.rows = {{"0 1", "0.50000"}};
    result.scans = 2;
    ASSERT_TRUE(journal->AppendResult(1, result).ok());
  }
  std::map<uint64_t, Job> board;
  uint64_t next_id = 0;
  std::string error;
  auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_EQ(board.size(), 2u);
  EXPECT_EQ(next_id, 3u);
  EXPECT_EQ(board[1].state, JobState::kDone);
  EXPECT_EQ(board[1].client, "alice");
  EXPECT_EQ(board[1].tag, "tag-1");
  ASSERT_EQ(board[1].result.rows.size(), 1u);
  EXPECT_EQ(board[1].result.rows[0].first, "0 1");
  EXPECT_EQ(board[2].state, JobState::kQueued);
  EXPECT_DOUBLE_EQ(board[2].spec.threshold, 0.3);
}

TEST_F(JobJournalTest, RunningJobsRewindToQueued) {
  {
    std::map<uint64_t, Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_TRUE(journal->AppendSubmit(MakeJobValue(1, "alice")).ok());
    ASSERT_TRUE(journal->AppendState(1, JobState::kRunning).ok());
    // SIGKILL here: no result line ever lands.
  }
  std::map<uint64_t, Job> board;
  uint64_t next_id = 0;
  std::string error;
  auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_EQ(board.size(), 1u);
  EXPECT_EQ(board[1].state, JobState::kQueued);
}

TEST_F(JobJournalTest, ToleratesTornTrailingLineAtEveryCut) {
  std::string full;
  {
    std::map<uint64_t, Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_TRUE(journal->AppendSubmit(MakeJobValue(1, "alice")).ok());
    ASSERT_TRUE(journal->AppendState(1, JobState::kRunning).ok());
    JobResult result;
    result.ok = false;
    result.error_code = "DATA_LOSS";
    result.message = "torn";
    ASSERT_TRUE(journal->AppendResult(1, result).ok());
    ASSERT_TRUE(journal->AppendSubmit(MakeJobValue(2, "bob")).ok());
    std::ifstream in(JournalPath());
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 0u);
  // The last journaled event is job 2's submit. Truncating anywhere
  // inside it must at worst lose job 2 (whose client never saw an ack),
  // never corrupt job 1's terminal record or crash recovery. Losing only
  // the trailing newline keeps job 2: its JSON was fully durable.
  const size_t last_line_start = full.rfind('\n', full.size() - 2) + 1;
  for (size_t cut = last_line_start; cut <= full.size(); ++cut) {
    const bool json_complete = cut + 1 >= full.size();
    {
      std::ofstream out(JournalPath(),
                        std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    std::map<uint64_t, Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << "cut at byte " << cut << ": " << error;
    ASSERT_GE(board.size(), 1u) << "cut at byte " << cut;
    EXPECT_EQ(board[1].state, JobState::kFailed) << "cut at byte " << cut;
    EXPECT_EQ(board[1].result.error_code, "DATA_LOSS");
    EXPECT_EQ(board.count(2), json_complete ? 1u : 0u)
        << "cut at byte " << cut;
  }
}

TEST_F(JobJournalTest, CompactionDropsOldestTerminalJobsOnly) {
  constexpr size_t kExtra = 10;
  {
    std::map<uint64_t, Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << error;
    for (uint64_t id = 1; id <= JobJournal::kMaxTerminalKept + kExtra;
         ++id) {
      ASSERT_TRUE(journal->AppendSubmit(MakeJobValue(id, "alice")).ok());
      JobResult result;
      result.ok = true;
      ASSERT_TRUE(journal->AppendResult(id, result).ok());
    }
    // One live job; must always survive compaction.
    ASSERT_TRUE(journal->AppendSubmit(
                    MakeJobValue(JobJournal::kMaxTerminalKept + kExtra + 1,
                                 "bob"))
                    .ok());
  }
  std::map<uint64_t, Job> board;
  uint64_t next_id = 0;
  std::string error;
  auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
  ASSERT_NE(journal, nullptr) << error;
  EXPECT_EQ(board.size(), JobJournal::kMaxTerminalKept + 1);
  // The oldest terminal ids were dropped, the newest kept, and the queued
  // job survived.
  EXPECT_EQ(board.count(1), 0u);
  EXPECT_EQ(board.count(kExtra), 0u);
  EXPECT_EQ(board.count(kExtra + 1), 1u);
  EXPECT_EQ(board.count(JobJournal::kMaxTerminalKept + kExtra + 1), 1u);
  EXPECT_EQ(board[JobJournal::kMaxTerminalKept + kExtra + 1].state,
            JobState::kQueued);
  // next_id keeps counting past everything ever journaled.
  EXPECT_EQ(next_id, JobJournal::kMaxTerminalKept + kExtra + 2);
}

TEST_F(JobJournalTest, CompactedJournalIsSmallerAndStillReplays) {
  {
    std::map<uint64_t, Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << error;
    // Many redundant state flips for one job...
    ASSERT_TRUE(journal->AppendSubmit(MakeJobValue(1, "alice")).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(journal->AppendState(1, JobState::kRunning).ok());
      ASSERT_TRUE(journal->AppendState(1, JobState::kQueued).ok());
    }
  }
  const auto before = std::filesystem::file_size(JournalPath());
  {
    std::map<uint64_t, Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << error;
  }
  const auto after = std::filesystem::file_size(JournalPath());
  EXPECT_LT(after, before);  // ...squeezed to one submit line on reopen

  std::map<uint64_t, Job> board;
  uint64_t next_id = 0;
  std::string error;
  auto journal = JobJournal::Open(dir_, &board, &next_id, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_EQ(board.size(), 1u);
  EXPECT_EQ(board[1].state, JobState::kQueued);
}

}  // namespace
}  // namespace serve
}  // namespace nmine

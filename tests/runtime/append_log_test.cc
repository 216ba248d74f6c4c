// AppendLog: the fsync'd line log under both journals. Open replays every
// line (a torn tail included, for the caller's parser to reject), replaces
// the file with the caller's compaction, and appends whole lines.
#include "nmine/runtime/checkpoint_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"

namespace nmine {
namespace runtime {
namespace {

class AppendLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::TempPath("append_log_" + std::string(
        ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Contents() const {
    std::ifstream in(dir_ + "/test.log");
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  /// Opens the log, collecting replayed lines and compacting to `keep`.
  std::unique_ptr<AppendLog> Open(std::vector<std::string>* replayed,
                                  const std::string& keep) {
    replayed->clear();
    std::string error;
    std::unique_ptr<AppendLog> log = AppendLog::Open(
        dir_, "test.log",
        [replayed](const std::string& line) { replayed->push_back(line); },
        [&keep] { return keep; }, &error);
    EXPECT_NE(log, nullptr) << error;
    return log;
  }

  std::string dir_;
};

TEST_F(AppendLogTest, CreatesTheDirAndAppendsWholeLines) {
  std::vector<std::string> replayed;
  std::unique_ptr<AppendLog> log = Open(&replayed, "");
  ASSERT_NE(log, nullptr);
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(log->replayed_lines(), 0u);
  EXPECT_EQ(log->path(), dir_ + "/test.log");
  ASSERT_TRUE(log->Append("one\n").ok());
  ASSERT_TRUE(log->Append("two\n").ok());
  EXPECT_EQ(Contents(), "one\ntwo\n");
}

TEST_F(AppendLogTest, ReplaysEveryLineThenWritesTheCompaction) {
  std::vector<std::string> replayed;
  {
    std::unique_ptr<AppendLog> log = Open(&replayed, "");
    ASSERT_TRUE(log->Append("a\n").ok());
    ASSERT_TRUE(log->Append("b\n").ok());
  }
  // A crash mid-append leaves an unterminated tail; it is still handed
  // over so the caller decides (a complete record missing only its '\n'
  // was durable).
  {
    std::ofstream out(dir_ + "/test.log", std::ios::app);
    out << "tor";
  }
  std::unique_ptr<AppendLog> log = Open(&replayed, "kept\n");
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(replayed, (std::vector<std::string>{"a", "b", "tor"}));
  EXPECT_EQ(log->replayed_lines(), 3u);
  EXPECT_EQ(Contents(), "kept\n");
  ASSERT_TRUE(log->Append("c\n").ok());
  EXPECT_EQ(Contents(), "kept\nc\n");
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/test.log.tmp"));
}

TEST_F(AppendLogTest, ConcurrentAppendsNeverInterleave) {
  std::vector<std::string> replayed;
  std::unique_ptr<AppendLog> log = Open(&replayed, "");
  ASSERT_NE(log, nullptr);
  constexpr int kThreads = 4;
  constexpr int kLines = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      const std::string line(100, static_cast<char>('a' + t));
      for (int i = 0; i < kLines; ++i) {
        EXPECT_TRUE(log->Append(line + "\n").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  log.reset();
  log = Open(&replayed, "");
  ASSERT_EQ(replayed.size(), static_cast<size_t>(kThreads * kLines));
  for (const std::string& line : replayed) {
    EXPECT_EQ(line, std::string(100, line[0]));
  }
}

TEST_F(AppendLogTest, UncreatableDirIsAnError) {
  std::filesystem::create_directories(dir_);
  { std::ofstream(dir_ + "/file") << "x"; }
  std::string error;
  std::unique_ptr<AppendLog> log = AppendLog::Open(
      dir_ + "/file/sub", "test.log", [](const std::string&) {},
      [] { return std::string(); }, &error);
  EXPECT_EQ(log, nullptr);
  EXPECT_NE(error.find("cannot create state dir"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace runtime
}  // namespace nmine

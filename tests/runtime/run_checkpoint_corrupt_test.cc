// Corrupt-checkpoint corpus: the whole-run checkpoint loader must survive truncation at every byte offset, bad
// magic, garbage sections, and guard mismatches — returning kDataLoss /
// kFailedPrecondition, never crashing and never silently accepting a
// damaged file as complete.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/runtime/run_checkpoint.h"
#include "test_util.h"

namespace nmine {
namespace {

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A representative checkpoint exercising every section: diagnostics,
/// governor state, symbol matches, a sample, resolved and unresolved
/// patterns (with wildcards).
runtime::RunCheckpoint MakeCheckpoint(runtime::RunStage stage) {
  runtime::RunCheckpoint cp;
  cp.stage = stage;
  cp.metric = Metric::kMatch;
  cp.min_threshold = 0.25;
  cp.num_sequences = 80;
  cp.total_symbols = 2400;
  cp.sample_size = 30;
  cp.seed = 3;
  cp.delta = 0.05;
  cp.scans_completed = 2;
  cp.ambiguous_after_sample = 12;
  cp.ambiguous_with_unit_spread = 9;
  cp.accepted_from_sample = 4;
  cp.truncated = true;
  cp.effective_sample_size = 25;
  cp.final_epsilon = 0.19238793;
  cp.symbol_match = {0.5, 0.25, 0.125};
  cp.sample.push_back({7, {0, 1, 2, 1}});
  cp.sample.push_back({21, {2, 2}});
  cp.resolved_frequent.emplace_back(testutil::P({0, 1}), 0.75);
  cp.resolved_frequent.emplace_back(testutil::P({0, -1, 2}), 0.5);
  cp.unresolved.emplace_back(testutil::P({1, 2}), 0.3);
  return cp;
}

/// Guard matching MakeCheckpoint (only guard fields are inspected).
runtime::RunCheckpoint Guard() { return MakeCheckpoint(runtime::RunStage::kPhase3Progress); }

bool SameContents(const runtime::RunCheckpoint& a,
                  const runtime::RunCheckpoint& b) {
  if (a.stage != b.stage || a.scans_completed != b.scans_completed ||
      a.symbol_match != b.symbol_match ||
      a.sample.size() != b.sample.size() ||
      a.resolved_frequent != b.resolved_frequent ||
      a.unresolved != b.unresolved) {
    return false;
  }
  for (size_t i = 0; i < a.sample.size(); ++i) {
    if (a.sample[i].id != b.sample[i].id ||
        a.sample[i].symbols != b.sample[i].symbols) {
      return false;
    }
  }
  return true;
}

class RunCheckpointCorruptTest : public ::testing::Test {
 protected:
  std::string Path(const char* name) const {
    return testutil::TempPath(name);
  }
};

TEST_F(RunCheckpointCorruptTest, RoundTripEveryStage) {
  const std::string path = Path("roundtrip.ckpt");
  for (runtime::RunStage stage :
       {runtime::RunStage::kPhase1Done, runtime::RunStage::kPhase2Done,
        runtime::RunStage::kPhase3Progress}) {
    runtime::RunCheckpoint cp = MakeCheckpoint(stage);
    ASSERT_TRUE(runtime::WriteRunCheckpoint(path, cp).ok());
    runtime::RunCheckpoint loaded;
    ASSERT_TRUE(runtime::LoadRunCheckpoint(path, Guard(), &loaded).ok())
        << ToString(stage);
    EXPECT_EQ(loaded.stage, stage);
    EXPECT_TRUE(SameContents(cp, loaded)) << ToString(stage);
    EXPECT_EQ(loaded.effective_sample_size, 25u);
    EXPECT_DOUBLE_EQ(loaded.final_epsilon, 0.19238793);
  }
  std::remove(path.c_str());
}

TEST_F(RunCheckpointCorruptTest, TruncationAtEveryByteOffset) {
  const std::string path = Path("truncate_src.ckpt");
  const std::string victim = Path("truncate.ckpt");
  runtime::RunCheckpoint cp =
      MakeCheckpoint(runtime::RunStage::kPhase3Progress);
  ASSERT_TRUE(runtime::WriteRunCheckpoint(path, cp).ok());
  const std::string bytes = ReadBytes(path);
  ASSERT_GT(bytes.size(), 0u);

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteBytes(victim, bytes.substr(0, cut));
    runtime::RunCheckpoint loaded;
    Status s = runtime::LoadRunCheckpoint(victim, Guard(), &loaded);
    if (s.ok()) {
      // The only acceptable OK is a cut that leaves the data complete
      // (e.g. dropping the final newline): the contents must be
      // bit-identical to the original, never silently partial.
      EXPECT_TRUE(SameContents(cp, loaded)) << "cut at byte " << cut;
    } else {
      EXPECT_TRUE(s.code() == StatusCode::kDataLoss ||
                  s.code() == StatusCode::kFailedPrecondition)
          << "cut at byte " << cut << ": " << s.ToString();
    }
  }
  std::remove(path.c_str());
  std::remove(victim.c_str());
}

TEST_F(RunCheckpointCorruptTest, BadMagicAndGarbageSections) {
  const std::string path = Path("garbage.ckpt");
  runtime::RunCheckpoint ignored;

  const std::vector<std::string> corpus = {
      "",                                         // empty file
      "\n",                                       // blank line
      "nmine-phase3-checkpoint v1\n",             // legacy/foreign magic
      "nmine-run-checkpoint v2\nstage phase3\n",  // future version
      "nmine-run-checkpoint v1\n",                // header only
      "nmine-run-checkpoint v1\nstage phase9\n",  // unknown stage
      "nmine-run-checkpoint v1\nstage phase3\nmetric mojo\n",
      "nmine-run-checkpoint v1\nstage phase3\nmetric match\nthreshold x\n",
      "nmine-run-checkpoint v1\nstage phase3\nmetric match\n"
      "threshold 0.25\ndb 80 2400\nsampling 30 3 0.05\nscans -4\n",
      std::string(1 << 16, 'A'),                  // a wall of noise
  };
  for (size_t i = 0; i < corpus.size(); ++i) {
    WriteBytes(path, corpus[i]);
    Status s = runtime::LoadRunCheckpoint(path, Guard(), &ignored);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "corpus entry " << i;
  }
  std::remove(path.c_str());
}

TEST_F(RunCheckpointCorruptTest, EveryGuardFieldIsEnforced) {
  const std::string path = Path("guards.ckpt");
  ASSERT_TRUE(
      runtime::WriteRunCheckpoint(
          path, MakeCheckpoint(runtime::RunStage::kPhase2Done))
          .ok());
  runtime::RunCheckpoint ignored;
  ASSERT_TRUE(runtime::LoadRunCheckpoint(path, Guard(), &ignored).ok());

  std::vector<runtime::RunCheckpoint> mismatches(7, Guard());
  mismatches[0].metric = Metric::kSupport;
  mismatches[1].min_threshold = 0.5;
  mismatches[2].num_sequences = 81;
  mismatches[3].total_symbols = 2401;
  mismatches[4].sample_size = 31;
  mismatches[5].seed = 4;
  mismatches[6].delta = 0.01;
  for (size_t i = 0; i < mismatches.size(); ++i) {
    Status s = runtime::LoadRunCheckpoint(path, mismatches[i], &ignored);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition)
        << "guard field " << i;
  }
  std::remove(path.c_str());
}

TEST_F(RunCheckpointCorruptTest, MissingFileIsNotFound) {
  runtime::RunCheckpoint ignored;
  Status s = runtime::LoadRunCheckpoint(Path("does_not_exist.ckpt"), Guard(),
                                        &ignored);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(RunCheckpointCorruptTest, MinimalPhase3CheckpointSurvivesTheSameCorpus) {
  // The smallest Phase-3 snapshot: no sample and zero sampling guards.
  // Truncate it at every offset and check both loads and guards.
  const std::string path = Path("minimal_phase3.ckpt");
  runtime::RunCheckpoint expected;
  expected.metric = Metric::kMatch;
  expected.min_threshold = 0.25;
  expected.num_sequences = 80;
  expected.total_symbols = 2400;
  runtime::RunCheckpoint cp = expected;
  cp.stage = runtime::RunStage::kPhase3Progress;
  cp.scans_completed = 3;
  cp.symbol_match = {0.5, 0.25};
  cp.resolved_frequent.emplace_back(testutil::P({0, 1}), 0.75);
  cp.unresolved.emplace_back(testutil::P({1}), 0.3);
  ASSERT_TRUE(runtime::WriteRunCheckpoint(path, cp).ok());

  const std::string bytes = ReadBytes(path);
  const std::string victim = Path("minimal_phase3_cut.ckpt");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteBytes(victim, bytes.substr(0, cut));
    runtime::RunCheckpoint loaded;
    Status s = runtime::LoadRunCheckpoint(victim, expected, &loaded);
    if (s.ok()) {
      EXPECT_EQ(loaded.resolved_frequent, cp.resolved_frequent)
          << "cut at byte " << cut;
      EXPECT_EQ(loaded.unresolved, cp.unresolved) << "cut at byte " << cut;
    } else {
      EXPECT_TRUE(s.code() == StatusCode::kDataLoss ||
                  s.code() == StatusCode::kFailedPrecondition)
          << "cut at byte " << cut << ": " << s.ToString();
    }
  }
  runtime::RunCheckpoint other = expected;
  other.num_sequences = 79;
  runtime::RunCheckpoint ignored;
  EXPECT_EQ(runtime::LoadRunCheckpoint(path, other, &ignored).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
  std::remove(victim.c_str());
}

TEST_F(RunCheckpointCorruptTest, SigtermMidWriteNeverTearsTheCheckpoint) {
  // The atomic-rename contract under an ill-timed SIGTERM/SIGKILL: the
  // writer stages the new checkpoint at `path + ".tmp"` and renames only
  // after a full flush. Dying at ANY point of the staged write must leave
  // the previous checkpoint at `path` fully loadable — simulated here by
  // materializing every prefix of the new bytes into the .tmp path.
  const std::string path = Path("sigterm.ckpt");
  runtime::RunCheckpoint old_cp =
      MakeCheckpoint(runtime::RunStage::kPhase2Done);
  ASSERT_TRUE(runtime::WriteRunCheckpoint(path, old_cp).ok());

  runtime::RunCheckpoint new_cp =
      MakeCheckpoint(runtime::RunStage::kPhase3Progress);
  new_cp.scans_completed = 9;
  const std::string tmp = Path("sigterm_new.ckpt");
  ASSERT_TRUE(runtime::WriteRunCheckpoint(tmp, new_cp).ok());
  const std::string new_bytes = ReadBytes(tmp);
  ASSERT_GT(new_bytes.size(), 0u);
  std::remove(tmp.c_str());

  for (size_t cut = 0; cut <= new_bytes.size(); ++cut) {
    WriteBytes(path + ".tmp", new_bytes.substr(0, cut));
    runtime::RunCheckpoint loaded;
    ASSERT_TRUE(runtime::LoadRunCheckpoint(path, Guard(), &loaded).ok())
        << "torn .tmp of " << cut << " bytes leaked into the checkpoint";
    EXPECT_EQ(loaded.stage, runtime::RunStage::kPhase2Done)
        << "cut at byte " << cut;
    EXPECT_TRUE(SameContents(old_cp, loaded)) << "cut at byte " << cut;
  }

  // Resume-after-restart: the rerun overwrites the stale .tmp and lands
  // the new checkpoint; the next load sees the new state, whole.
  ASSERT_TRUE(runtime::WriteRunCheckpoint(path, new_cp).ok());
  runtime::RunCheckpoint loaded;
  ASSERT_TRUE(runtime::LoadRunCheckpoint(path, Guard(), &loaded).ok());
  EXPECT_EQ(loaded.stage, runtime::RunStage::kPhase3Progress);
  EXPECT_EQ(loaded.scans_completed, 9u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace nmine

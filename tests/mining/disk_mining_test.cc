// Integration: the miners run unchanged on a disk-resident database and
// produce bit-identical results to the in-memory backend, with the same
// scan accounting.
#include <cstdio>

#include <gtest/gtest.h>

#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "nmine/gen/workload.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/levelwise_miner.h"
#include "test_util.h"

namespace nmine {
namespace {

class DiskMiningTest : public ::testing::Test {
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

    // Unique per test: under `ctest -j` sibling tests run concurrently in
    // separate processes, and a shared path lets one test's TearDown
    // delete the file another is still scanning.
    path_ =
        testutil::TempPath(std::string("disk_mining_") +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".nmsq");
    ASSERT_TRUE(
        dbformat::WriteDatabaseFile(path_, workload_.test.records()).ok);
    Status error;
    disk_ = DiskSequenceDatabase::Open(path_, &error);
    ASSERT_NE(disk_, nullptr) << error.ToString();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  MinerOptions Options() const {
    MinerOptions o;
    o.min_threshold = 0.25;
    o.space.max_span = 6;
    o.sample_size = 80;
    o.delta = 0.05;
    o.seed = 3;
    return o;
  }

  NoisyWorkload workload_;
  std::string path_;
  std::unique_ptr<DiskSequenceDatabase> disk_;
};

TEST_F(DiskMiningTest, LevelwiseMatchesInMemory) {
  LevelwiseMiner miner(Metric::kMatch, Options());
  MiningResult mem = miner.Mine(workload_.test, workload_.matrix);
  MiningResult disk = miner.Mine(*disk_, workload_.matrix);
  EXPECT_EQ(mem.frequent.ToSortedVector(), disk.frequent.ToSortedVector());
  EXPECT_EQ(mem.scans, disk.scans);
}

TEST_F(DiskMiningTest, BorderCollapseMatchesInMemory) {
  BorderCollapseMiner miner(Metric::kMatch, Options());
  MiningResult mem = miner.Mine(workload_.test, workload_.matrix);
  MiningResult disk = miner.Mine(*disk_, workload_.matrix);
  EXPECT_EQ(mem.frequent.ToSortedVector(), disk.frequent.ToSortedVector());
  EXPECT_EQ(mem.border.ToSortedVector(), disk.border.ToSortedVector());
  EXPECT_EQ(mem.scans, disk.scans);
}

TEST_F(DiskMiningTest, SupportModelOnDisk) {
  LevelwiseMiner miner(Metric::kSupport, Options());
  CompatibilityMatrix id = CompatibilityMatrix::Identity(20);
  MiningResult mem = miner.Mine(workload_.test, id);
  MiningResult disk = miner.Mine(*disk_, id);
  EXPECT_EQ(mem.frequent.ToSortedVector(), disk.frequent.ToSortedVector());
}

}  // namespace
}  // namespace nmine

// Corruption corpus: a valid database image truncated at every byte offset
// must produce a clean typed error from both the streaming disk reader and
// the whole-image decoder — never a crash, hang, or silently partial read.
// Also pins down the LEB128 overflow rule: a 10-byte varint may only
// contribute bit 63 with its final byte.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "test_util.h"

namespace nmine {
namespace {

std::vector<SequenceRecord> CorpusRecords() {
  std::vector<SequenceRecord> records = testutil::Figure4Database().records();
  // Add a longer sequence with multi-byte varint symbols so truncation
  // offsets land inside record bodies, not just headers.
  SequenceRecord big;
  big.id = 1000;
  for (int i = 0; i < 12; ++i) {
    big.symbols.push_back(static_cast<SymbolId>(100 + 37 * i));
  }
  records.push_back(big);
  return records;
}

std::string WriteBytes(const std::string& name, const std::string& bytes) {
  std::string path = testutil::TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

TEST(CorruptCorpusTest, EveryTruncationOffsetFailsCleanlyOnOpen) {
  const std::string bytes = dbformat::EncodeDatabase(CorpusRecords());
  ASSERT_GT(bytes.size(), 10u);
  DiskSequenceDatabase::Options options;
  options.retry = RetryPolicy::NoRetry();  // no backoff sleeps in the loop
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string path =
        WriteBytes("trunc_corpus.nmsq", bytes.substr(0, len));
    Status error;
    std::unique_ptr<DiskSequenceDatabase> db =
        DiskSequenceDatabase::Open(path, options, &error);
    EXPECT_EQ(db, nullptr) << "prefix of length " << len << " opened";
    EXPECT_FALSE(error.ok()) << "prefix of length " << len;
    EXPECT_FALSE(error.message().empty()) << "prefix of length " << len;
    std::remove(path.c_str());
  }
}

TEST(CorruptCorpusTest, EveryTruncationOffsetFailsCleanlyOnDecode) {
  const std::string bytes = dbformat::EncodeDatabase(CorpusRecords());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<SequenceRecord> records;
    IoResult r = dbformat::DecodeDatabase(bytes.substr(0, len), &records);
    EXPECT_FALSE(r.ok) << "prefix of length " << len << " decoded";
    EXPECT_FALSE(r.message.empty()) << "prefix of length " << len;
  }
}

TEST(CorruptCorpusTest, FullImageStillRoundTrips) {
  const std::vector<SequenceRecord> original = CorpusRecords();
  std::vector<SequenceRecord> decoded;
  ASSERT_TRUE(
      dbformat::DecodeDatabase(dbformat::EncodeDatabase(original), &decoded)
          .ok);
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].id, original[i].id);
    EXPECT_EQ(decoded[i].symbols, original[i].symbols);
  }
}

// --- Varint overflow regression (the 10th byte may only carry bit 63). ---

TEST(CorruptCorpusTest, MaxUint64VarintRoundTrips) {
  std::string buf;
  dbformat::PutVarint64(UINT64_MAX, &buf);
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(static_cast<uint8_t>(buf.back()), 0x01u);
  const char* pos = buf.data();
  uint64_t value = 0;
  ASSERT_TRUE(dbformat::GetVarint64(&pos, buf.data() + buf.size(), &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_EQ(pos, buf.data() + buf.size());
}

TEST(CorruptCorpusTest, OverflowingTenthByteRejected) {
  // Nine continuation bytes then a final byte whose payload exceeds 1:
  // accepting it would silently drop the high bits.
  std::string buf(9, static_cast<char>(0xff));
  buf.push_back(0x02);
  const char* pos = buf.data();
  uint64_t value = 0;
  EXPECT_FALSE(dbformat::GetVarint64(&pos, buf.data() + buf.size(), &value));
}

TEST(CorruptCorpusTest, ElevenByteVarintRejected) {
  std::string buf(10, static_cast<char>(0xff));
  buf.push_back(0x01);
  const char* pos = buf.data();
  uint64_t value = 0;
  EXPECT_FALSE(dbformat::GetVarint64(&pos, buf.data() + buf.size(), &value));
}

TEST(CorruptCorpusTest, DiskReaderAcceptsMaxVarintRecordId) {
  // Header + one empty-bodied record whose id is the canonical 10-byte
  // encoding of UINT64_MAX: must stream cleanly.
  std::string bytes(dbformat::kMagic, sizeof(dbformat::kMagic));
  bytes.push_back(static_cast<char>(dbformat::kVersion));
  dbformat::PutVarint64(1, &bytes);            // count
  dbformat::PutVarint64(UINT64_MAX, &bytes);   // id
  dbformat::PutVarint64(0, &bytes);            // len
  const std::string path = WriteBytes("max_id.nmsq", bytes);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  ASSERT_NE(db, nullptr) << error.ToString();
  EXPECT_EQ(db->NumSequences(), 1u);
  EXPECT_EQ(db->TotalSymbols(), 0u);
  std::remove(path.c_str());
}

TEST(CorruptCorpusTest, DiskReaderRejectsOverlongVarintAsDataLoss) {
  // Overlong sequence count: structural corruption, not truncation, so the
  // reader must classify it as permanent (kDataLoss) — retries cannot help.
  std::string bytes(dbformat::kMagic, sizeof(dbformat::kMagic));
  bytes.push_back(static_cast<char>(dbformat::kVersion));
  bytes.append(9, static_cast<char>(0xff));
  bytes.push_back(0x02);
  const std::string path = WriteBytes("overlong.nmsq", bytes);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  EXPECT_EQ(db, nullptr);
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  EXPECT_NE(error.message().find("overlong"), std::string::npos)
      << error.ToString();
  std::remove(path.c_str());
}

TEST(CorruptCorpusTest, TrailingGarbageRejected) {
  std::string bytes = dbformat::EncodeDatabase(CorpusRecords());
  bytes.push_back(0x00);
  const std::string path = WriteBytes("trailing.nmsq", bytes);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  EXPECT_EQ(db, nullptr);
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  std::vector<SequenceRecord> records;
  IoResult r = dbformat::DecodeDatabase(bytes, &records);
  EXPECT_FALSE(r.ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nmine

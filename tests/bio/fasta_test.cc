#include "nmine/bio/fasta.h"
#include "test_util.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

namespace nmine {
namespace {

constexpr char kSample[] =
    ">sp|P1|first protein\n"
    "AMTKYQ\n"
    "VCEBRH\n"
    "; a comment line\n"
    ">second\n"
    "nkvd\n"
    "\n"
    ">empty\n";

TEST(FastaTest, ParsesHeadersAndConcatenatesLines) {
  std::vector<FastaRecord> records;
  std::string error;
  ASSERT_TRUE(ParseFasta(kSample, &records, &error)) << error;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].header, "sp|P1|first protein");
  EXPECT_EQ(records[0].residues, "AMTKYQVCEBRH");
  EXPECT_EQ(records[1].residues, "nkvd");
  EXPECT_TRUE(records[2].residues.empty());
}

TEST(FastaTest, ToleratesCrlf) {
  std::vector<FastaRecord> records;
  std::string error;
  ASSERT_TRUE(ParseFasta(">x\r\nAC\r\nDE\r\n", &records, &error));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].residues, "ACDE");
}

TEST(FastaTest, RejectsDataBeforeHeader) {
  std::vector<FastaRecord> records;
  std::string error;
  EXPECT_FALSE(ParseFasta("ACDE\n>late\n", &records, &error));
  EXPECT_NE(error.find("before the first"), std::string::npos);
}

TEST(FastaTest, EmptyInputIsValid) {
  std::vector<FastaRecord> records;
  std::string error;
  EXPECT_TRUE(ParseFasta("", &records, &error));
  EXPECT_TRUE(records.empty());
}

TEST(FastaTest, DatabaseConversionMapsResidues) {
  std::vector<FastaRecord> records;
  std::string error;
  ASSERT_TRUE(ParseFasta(kSample, &records, &error));
  size_t skipped = 0;
  InMemorySequenceDatabase db = FastaToDatabase(records, &skipped);
  ASSERT_EQ(db.NumSequences(), 3u);
  Alphabet aa = AminoAcidAlphabet();
  // "AMTKYQVCEBRH": B is not a standard amino acid and is skipped.
  EXPECT_EQ(db.records()[0].symbols.size(), 11u);
  EXPECT_EQ(db.records()[0].symbols[0], *aa.Id("A"));
  EXPECT_EQ(db.records()[0].symbols[1], *aa.Id("M"));
  // Lower-case residues are upcased.
  EXPECT_EQ(db.records()[1].symbols.size(), 4u);
  EXPECT_EQ(db.records()[1].symbols[0], *aa.Id("N"));
  EXPECT_EQ(skipped, 1u);  // the 'B'
}

TEST(FastaTest, FileRoundTrip) {
  std::string path = testutil::TempPath("test.fasta");
  {
    std::ofstream out(path);
    out << kSample;
  }
  std::vector<FastaRecord> records;
  IoResult r = ReadFastaFile(path, &records);
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(records.size(), 3u);
  std::remove(path.c_str());
}

TEST(FastaTest, MissingFileFails) {
  std::vector<FastaRecord> records;
  EXPECT_FALSE(ReadFastaFile("/nonexistent/x.fasta", &records).ok);
}

}  // namespace
}  // namespace nmine

#include "nmine/obs/flight_recorder.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nmine/obs/json_parse.h"
#include "test_util.h"

namespace nmine {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  return testutil::TempPath(name);
}

TEST(FlightRecorderTest, DisabledRecordIsANoOp) {
  FlightRecorder fr;
  fr.Record(FlightEventType::kPhase, "phase1");
  EXPECT_EQ(fr.total_recorded(), 0u);
  EXPECT_TRUE(fr.Snapshot().empty());
}

TEST(FlightRecorderTest, RecordsInOrderWithSequenceNumbers) {
  FlightRecorder fr;
  fr.Enable(64);
  fr.Record(FlightEventType::kPhase, "phase1");
  fr.Record(FlightEventType::kProgress, "phase3.collapse", 10, 4);
  fr.Record(FlightEventType::kCancel, "run_control.cancel");

  std::vector<FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FlightEventType::kPhase);
  EXPECT_STREQ(events[0].name, "phase1");
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].a, 10);
  EXPECT_EQ(events[1].b, 4);
  EXPECT_EQ(events[2].type, FlightEventType::kCancel);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_LE(events[0].t_us, events[1].t_us);
  EXPECT_LE(events[1].t_us, events[2].t_us);
}

TEST(FlightRecorderTest, TruncatesLongNamesInsteadOfOverflowing) {
  FlightRecorder fr;
  fr.Enable(64);
  const std::string longname(200, 'x');
  fr.Record(FlightEventType::kCustom, longname.c_str());
  std::vector<FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(std::strlen(events[0].name), sizeof(events[0].name));
  EXPECT_EQ(events[0].name[0], 'x');
}

TEST(FlightRecorderTest, WrapKeepsOnlyTheNewestEventsOldestFirst) {
  FlightRecorder fr;
  fr.Enable(10);  // rounds up to 64
  EXPECT_EQ(fr.capacity(), 64u);
  for (int i = 0; i < 200; ++i) {
    fr.Record(FlightEventType::kProgress, "p", i);
  }
  EXPECT_EQ(fr.total_recorded(), 200u);
  std::vector<FlightEvent> events = fr.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().seq, 200u);
  EXPECT_EQ(events.back().a, 199);
}

// The ring is a seqlock: writers update slot fields non-atomically and
// readers detect tears via the marker, which is a benign-by-design data
// race TSan rightly flags. The hammer test is therefore skipped under
// TSan (the metrics-layer concurrency tests cover the sanitizer run).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NMINE_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define NMINE_TSAN 1
#endif

TEST(FlightRecorderTest, ConcurrentWritersNeverProduceTornSlots) {
#ifdef NMINE_TSAN
  GTEST_SKIP() << "seqlock tears are detected, not avoided; racy by design";
#else
  FlightRecorder fr;
  fr.Enable(128);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&fr, t] {
      for (int i = 0; i < kPerThread; ++i) {
        fr.Record(FlightEventType::kProgress, "writer.hammer", t, i);
        if (i % 64 == 0) fr.Snapshot();  // readers race the wrap
      }
    });
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(fr.total_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  std::vector<FlightEvent> events = fr.Snapshot();
  EXPECT_LE(events.size(), fr.capacity());
  std::set<uint64_t> seqs;
  for (const FlightEvent& e : events) {
    // A torn slot would surface as a garbage name or an out-of-range seq;
    // every writer uses the same name so any corruption is a real tear.
    EXPECT_STREQ(e.name, "writer.hammer");
    EXPECT_GE(e.seq, 1u);
    EXPECT_LE(e.seq, fr.total_recorded());
    EXPECT_TRUE(seqs.insert(e.seq).second) << "duplicate seq " << e.seq;
  }
#endif
}

TEST(FlightRecorderTest, SnapshotJsonParsesWithSchemaAndEvents) {
  FlightRecorder fr;
  fr.Enable(64);
  fr.Record(FlightEventType::kSpanEnter, "mine.border_collapse");
  fr.Record(FlightEventType::kGovernorStep, "governor.batch_shrink", 100, 50);

  std::optional<JsonValue> doc = ParseJson(fr.SnapshotJson());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* schema = doc->Get("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "nmine.flight.v1");
  EXPECT_EQ(doc->GetNumber("total_recorded", -1.0), 2.0);
  const JsonValue* events = doc->Get("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  const JsonValue* type = events->array[1].Get("type");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->string_value, "governor_step");
}

TEST(FlightRecorderTest, DumpToFdWritesParseableJsonLines) {
  FlightRecorder fr;
  fr.Enable(64);
  fr.Record(FlightEventType::kPhase, "phase3");
  fr.Record(FlightEventType::kScanRetry, "phase3.scan", 2, 17);

  const std::string path = TempPath("flight_dump.jsonl");
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  fr.DumpToFd(fd);
  ::close(fd);

  std::ifstream in(path);
  std::vector<JsonValue> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<JsonValue> doc = ParseJson(line);
    ASSERT_TRUE(doc.has_value()) << "unparseable line: " << line;
    lines.push_back(*doc);
  }
  // Header line, then one line per event.
  ASSERT_EQ(lines.size(), 3u);
  const JsonValue* schema = lines[0].Get("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "nmine.flight.v1");
  EXPECT_EQ(lines[0].GetNumber("total_recorded", -1.0), 2.0);
  const JsonValue* type = lines[1].Get("type");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->string_value, "phase");
  EXPECT_EQ(lines[2].GetNumber("a", -1.0), 2.0);
  EXPECT_EQ(lines[2].GetNumber("b", -1.0), 17.0);
}

TEST(FlightRecorderTest, ResetDropsEventsButStaysEnabled) {
  FlightRecorder fr;
  fr.Enable(64);
  fr.Record(FlightEventType::kPhase, "phase1");
  fr.Reset();
  EXPECT_TRUE(fr.Snapshot().empty());
  EXPECT_TRUE(fr.enabled());
  fr.Record(FlightEventType::kPhase, "phase2");
  EXPECT_EQ(fr.Snapshot().size(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace nmine

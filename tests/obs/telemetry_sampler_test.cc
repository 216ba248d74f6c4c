#include "nmine/obs/export/telemetry_sampler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nmine/obs/json_parse.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "test_util.h"

namespace nmine {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  return testutil::TempPath(name);
}

std::vector<JsonValue> ReadRows(const std::string& path) {
  std::vector<JsonValue> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<JsonValue> doc = ParseJson(line);
    EXPECT_TRUE(doc.has_value()) << "unparseable telemetry row: " << line;
    if (doc.has_value()) rows.push_back(*doc);
  }
  return rows;
}

TEST(TelemetrySamplerTest, RejectsBadOptions) {
  TelemetrySampler sampler;
  TelemetrySampler::Options options;
  EXPECT_FALSE(sampler.Start(options));  // no path
  options.jsonl_path = TempPath("telemetry_bad.jsonl");
  options.interval_s = 0.0;
  EXPECT_FALSE(sampler.Start(options));  // no interval
  EXPECT_FALSE(sampler.running());
}

TEST(TelemetrySamplerTest, WritesSchemaVersionedRowsWithDeltasAndRates) {
  MetricsRegistry reg;
  reg.GetCounter("work.items").Add(4);
  reg.GetGauge("sample.size").Set(123.0);

  const std::string path = TempPath("telemetry_rows.jsonl");
  TelemetrySampler sampler;
  TelemetrySampler::Options options;
  options.jsonl_path = path;
  options.interval_s = 0.01;
  options.registry = &reg;
  options.include_profile = false;
  ASSERT_TRUE(sampler.Start(options));
  EXPECT_TRUE(sampler.running());

  // Let a few ticks land, bump the counter, let more land.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  reg.GetCounter("work.items").Add(6);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  sampler.Stop();
  ASSERT_TRUE(sampler.FlushFinal("exit"));

  std::vector<JsonValue> rows = ReadRows(path);
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows.size(), sampler.rows_written());

  int64_t prev_t = 0;
  int64_t prev_counter = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonValue& row = rows[i];
    const JsonValue* schema = row.Get("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string_value, "nmine.telemetry.v1");
    EXPECT_EQ(row.GetNumber("seq", -1.0), static_cast<double>(i + 1));
    const int64_t t = static_cast<int64_t>(row.GetNumber("t_us", -1.0));
    EXPECT_GE(t, prev_t);  // shared monotonic clock base
    prev_t = t;
    const JsonValue* counters = row.Get("counters");
    ASSERT_NE(counters, nullptr);
    const int64_t value =
        static_cast<int64_t>(counters->GetNumber("work.items", -1.0));
    EXPECT_GE(value, prev_counter);  // monotone across rows
    prev_counter = value;
    const JsonValue* gauges = row.Get("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_EQ(gauges->GetNumber("sample.size", -1.0), 123.0);
    ASSERT_NE(row.Get("deltas"), nullptr);
    ASSERT_NE(row.Get("rates"), nullptr);
  }
  // First row deltas from zero; counter totals reconcile with the deltas.
  EXPECT_EQ(rows[0].Get("deltas")->GetNumber("work.items", -1.0),
            rows[0].Get("counters")->GetNumber("work.items", -2.0));
  int64_t delta_sum = 0;
  for (const JsonValue& row : rows) {
    delta_sum +=
        static_cast<int64_t>(row.Get("deltas")->GetNumber("work.items", 0.0));
  }
  EXPECT_EQ(delta_sum, 10);

  const JsonValue& last = rows.back();
  EXPECT_EQ(last.Get("reason")->string_value, "exit");
  EXPECT_EQ(last.Get("counters")->GetNumber("work.items", -1.0), 10.0);
}

TEST(TelemetrySamplerTest, FourWritersHammerCountersWhileSampling) {
  MetricsRegistry reg;
  const std::string path = TempPath("telemetry_hammer.jsonl");
  TelemetrySampler sampler;
  TelemetrySampler::Options options;
  options.jsonl_path = path;
  options.interval_s = 0.002;  // sample as fast as possible
  options.registry = &reg;
  options.include_profile = false;
  ASSERT_TRUE(sampler.Start(options));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      Counter& c = reg.GetCounter("hammer.count");
      HistogramMetric& h = reg.GetHistogram("hammer.hist", {1.0, 10.0});
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(static_cast<double>(i % 20));
        reg.GetGauge("hammer.gauge").Set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  sampler.Stop();
  ASSERT_TRUE(sampler.FlushFinal("exit"));

  std::vector<JsonValue> rows = ReadRows(path);
  ASSERT_GE(rows.size(), 1u);
  int64_t prev = 0;
  for (const JsonValue& row : rows) {
    const JsonValue* counters = row.Get("counters");
    ASSERT_NE(counters, nullptr);
    const int64_t value =
        static_cast<int64_t>(counters->GetNumber("hammer.count", 0.0));
    EXPECT_GE(value, prev);  // never runs backwards mid-hammer
    prev = value;
  }
  EXPECT_EQ(rows.back().Get("counters")->GetNumber("hammer.count", -1.0),
            static_cast<double>(kThreads) * kPerThread);
}

TEST(TelemetrySamplerTest, RewritesOpenMetricsFileAlongsideJsonl) {
  MetricsRegistry reg;
  reg.GetCounter("om.scans").Add(7);
  const std::string jsonl = TempPath("telemetry_om.jsonl");
  const std::string prom = TempPath("telemetry_om.prom");
  TelemetrySampler sampler;
  TelemetrySampler::Options options;
  options.jsonl_path = jsonl;
  options.openmetrics_path = prom;
  options.interval_s = 10.0;  // no tick fires; FlushFinal drives the write
  options.registry = &reg;
  options.include_profile = false;
  ASSERT_TRUE(sampler.Start(options));
  sampler.Stop();
  ASSERT_TRUE(sampler.FlushFinal("deadline"));

  std::ifstream in(prom);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("nmine_om_scans_total 7"), std::string::npos);
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);

  std::vector<JsonValue> rows = ReadRows(jsonl);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get("reason")->string_value, "deadline");
}

TEST(TelemetrySamplerTest, IncludesProfileSectionWhenAsked) {
  MetricsRegistry reg;
  Profiler profiler;
  profiler.GetSection("phase3.scan").Record(1000000);
  const std::string path = TempPath("telemetry_profile.jsonl");
  TelemetrySampler sampler;
  TelemetrySampler::Options options;
  options.jsonl_path = path;
  options.interval_s = 10.0;
  options.registry = &reg;
  options.profiler = &profiler;
  options.include_profile = true;
  ASSERT_TRUE(sampler.Start(options));
  sampler.Stop();
  ASSERT_TRUE(sampler.FlushFinal("exit"));

  std::vector<JsonValue> rows = ReadRows(path);
  ASSERT_EQ(rows.size(), 1u);
  const JsonValue* profile = rows[0].Get("profile");
  ASSERT_NE(profile, nullptr);
  const JsonValue* section = profile->Get("phase3.scan");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->GetNumber("count", -1.0), 1.0);
  EXPECT_EQ(section->GetNumber("total_ns", -1.0), 1000000.0);
}

}  // namespace
}  // namespace obs
}  // namespace nmine

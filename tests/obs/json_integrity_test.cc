// End-to-end integrity of the JSON this system emits: every byte sequence
// a metric name or trace argument can contain must survive
// AppendJsonString -> ParseJson unchanged, and a --trace-out file must be
// a well-formed Chrome trace_event document.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "nmine/obs/json_parse.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/trace.h"
#include "test_util.h"

namespace nmine {
namespace obs {
namespace {

/// Serializes `text` as a JSON string literal and parses it back.
std::string RoundTrip(const std::string& text) {
  std::string doc;
  AppendJsonString(text, &doc);
  std::optional<JsonValue> parsed = ParseJson(doc);
  EXPECT_TRUE(parsed.has_value()) << "unparseable: " << doc;
  if (!parsed.has_value()) return "<parse failure>";
  EXPECT_TRUE(parsed->is_string());
  return parsed->string_value;
}

TEST(JsonIntegrityTest, EscapedSpecialsRoundTrip) {
  const std::string text = "quote:\" backslash:\\ slash:/";
  EXPECT_EQ(RoundTrip(text), text);
}

TEST(JsonIntegrityTest, EveryControlCharacterRoundTrips) {
  for (int ch = 0; ch < 0x20; ++ch) {
    std::string text = "a";
    text.push_back(static_cast<char>(ch));
    text += "b";
    EXPECT_EQ(RoundTrip(text), text) << "control char " << ch;
  }
  // DEL and a high Latin-1 byte pass through as raw bytes.
  EXPECT_EQ(RoundTrip(std::string(1, '\x7f')), "\x7f");
}

TEST(JsonIntegrityTest, MultiByteUtf8RoundTrips) {
  // Two-, three-, and four-byte UTF-8 sequences: é, ∑ (U+2211),
  // 𝄞 (U+1D11E). The emitter passes bytes >= 0x20 through untouched and
  // the parser does the same, so the encoded bytes survive exactly.
  const std::string text = "caf\xc3\xa9 \xe2\x88\x91 \xf0\x9d\x84\x9e";
  EXPECT_EQ(RoundTrip(text), text);
}

TEST(JsonIntegrityTest, MixedPathologicalStringRoundTrips) {
  std::string text = "tab\there\nnewline\x01\x1f";
  text += '\0';  // embedded NUL
  text += "\xc3\xbc after-nul";
  EXPECT_EQ(RoundTrip(text), text);
}

TEST(JsonIntegrityTest, TraceOutFileIsValidChromeTraceJson) {
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  {
    TraceSpan span("phase1.symbol_scan", "phase1");
    span.Arg("sequences", static_cast<int64_t>(400));
    span.Arg("label", "control\x01char and caf\xc3\xa9");
  }
  { TraceSpan span("mine.collapse", "mining"); }
  tracer.Stop();

  std::string path = testutil::TempPath("trace_out.json");
  ASSERT_TRUE(tracer.WriteJsonFile(path));
  std::optional<JsonValue> parsed = ParseJsonFile(path);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());

  const JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);
  for (const JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");  // complete events only
    EXPECT_NE(event.Get("name"), nullptr);
    EXPECT_NE(event.Get("ts"), nullptr);
    EXPECT_NE(event.Get("dur"), nullptr);
  }
  // The pathological argument survived the file round trip.
  const JsonValue* args = events->array[0].Get("args");
  ASSERT_NE(args, nullptr);
  const JsonValue* label = args->Get("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->string_value, "control\x01char and caf\xc3\xa9");

  std::filesystem::remove(path);
}

}  // namespace
}  // namespace obs
}  // namespace nmine

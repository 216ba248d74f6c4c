// Malformed-frame corpus for the server wire protocol. Two layers:
// ParseRequest must reject every corrupt line with a TYPED error (version
// mismatch is FAILED_PRECONDITION, all other garbage INVALID_ARGUMENT —
// never a half-filled Request the server would act on), and a live
// MiningServer fed the same corpus over one connection must answer each
// line and still serve a valid ping afterwards: garbage degrades a reply,
// never the server.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/obs/json_parse.h"
#include "nmine/serve/protocol.h"
#include "nmine/serve/server.h"
#include "test_util.h"

namespace nmine {
namespace serve {
namespace {

/// The corpus is shared between the parser-level and socket-level tests.
/// Entries must be newline-free (one frame per line on the wire) and
/// non-empty (the server silently skips blank lines, by design).
struct CorpusCase {
  const char* name;
  std::string line;
  const char* expect_code;
};

std::vector<CorpusCase> Corpus() {
  return {
      {"not json", "this is not json", "INVALID_ARGUMENT"},
      {"truncated object", "{\"op\": \"ping\"", "INVALID_ARGUMENT"},
      {"array not object", "[1, 2, 3]", "INVALID_ARGUMENT"},
      {"bare string", "\"ping\"", "INVALID_ARGUMENT"},
      {"bad utf8 bytes", std::string("{\"op\": \"\xff\xfe\x01\"}"),
       "INVALID_ARGUMENT"},
      {"numeric op", "{\"op\": 7}", "INVALID_ARGUMENT"},
      {"missing op", "{\"id\": 3}", "INVALID_ARGUMENT"},
      {"unknown op", "{\"op\": \"launch\"}", "INVALID_ARGUMENT"},
      {"status without id", "{\"op\": \"status\"}", "INVALID_ARGUMENT"},
      {"wait without id", "{\"op\": \"wait\"}", "INVALID_ARGUMENT"},
      {"trace without id", "{\"op\": \"trace\"}", "INVALID_ARGUMENT"},
      {"submit without spec", "{\"op\": \"submit\", \"client\": \"c\"}",
       "INVALID_ARGUMENT"},
      {"submit with spec missing db",
       "{\"op\": \"submit\", \"spec\": {\"threshold\": 0.3}}",
       "INVALID_ARGUMENT"},
      {"submit with short trace_id",
       "{\"op\": \"submit\", \"trace_id\": \"abc\", "
       "\"spec\": {\"db\": \"/x.nmsq\"}}",
       "INVALID_ARGUMENT"},
      {"future version", "{\"v\": 2, \"op\": \"ping\"}",
       "FAILED_PRECONDITION"},
      {"fractional version", "{\"v\": 1.5, \"op\": \"ping\"}",
       "FAILED_PRECONDITION"},
      {"string version", "{\"v\": \"1\", \"op\": \"ping\"}",
       "FAILED_PRECONDITION"},
  };
}

TEST(ProtocolCorpusTest, EveryCorruptLineFailsWithATypedCode) {
  for (const CorpusCase& c : Corpus()) {
    std::string error;
    std::string code;
    std::optional<Request> request = ParseRequest(c.line, &error, &code);
    EXPECT_FALSE(request.has_value()) << c.name;
    EXPECT_EQ(code, c.expect_code) << c.name;
    EXPECT_FALSE(error.empty()) << c.name;
  }
  // The empty line is parser-rejected too (the server filters it earlier).
  std::string error;
  std::string code;
  EXPECT_FALSE(ParseRequest("", &error, &code).has_value());
  EXPECT_EQ(code, "INVALID_ARGUMENT");
}

TEST(ProtocolCorpusTest, ExplicitCurrentVersionStillParses) {
  std::string error;
  std::optional<Request> request =
      ParseRequest("{\"v\": 1, \"op\": \"ping\"}", &error);
  ASSERT_TRUE(request.has_value()) << error;
  EXPECT_EQ(request->version, kProtocolVersion);
}

/// A blocking line-oriented connection that STAYS OPEN across frames —
/// the wedge test needs garbage and the follow-up ping on one socket.
class PersistentConnection {
 public:
  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  bool SendLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t done = 0;
    while (done < framed.size()) {
      ssize_t w = ::send(fd_, framed.data() + done, framed.size() - done,
                         MSG_NOSIGNAL);
      if (w <= 0) return false;
      done += static_cast<size_t>(w);
    }
    return true;
  }

  std::optional<std::string> ReadLine() {
    char chunk[4096];
    size_t nl;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(r));
    }
    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return line;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  ~PersistentConnection() { Close(); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class ProtocolCorpusServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::TempPath(std::string("proto_corpus_") +
                                  ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    MiningServer::Options options;
    options.state_dir = dir_ + "/state";
    std::string error;
    ASSERT_TRUE(server_.Start(options, &error)) << error;
  }

  void TearDown() override {
    server_.Stop();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  MiningServer server_;
};

TEST_F(ProtocolCorpusServerTest, GarbageNeverWedgesTheConnection) {
  PersistentConnection conn;
  ASSERT_TRUE(conn.Connect(server_.port()));
  for (const CorpusCase& c : Corpus()) {
    ASSERT_TRUE(conn.SendLine(c.line)) << c.name;
    std::optional<std::string> reply = conn.ReadLine();
    ASSERT_TRUE(reply.has_value()) << c.name;
    std::optional<obs::JsonValue> value = obs::ParseJson(*reply);
    ASSERT_TRUE(value.has_value()) << c.name << ": " << *reply;
    EXPECT_FALSE(value->Get("ok")->bool_value) << c.name;
    EXPECT_EQ(value->Get("error")->string_value, c.expect_code) << c.name;
  }
  // The same connection still speaks the protocol after the full corpus.
  ASSERT_TRUE(conn.SendLine("{\"op\": \"ping\"}"));
  std::optional<std::string> pong = conn.ReadLine();
  ASSERT_TRUE(pong.has_value());
  std::optional<obs::JsonValue> value = obs::ParseJson(*pong);
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(value->Get("ok")->bool_value);
}

TEST_F(ProtocolCorpusServerTest, OversizedLineIsSheddedTyped) {
  PersistentConnection flooder;
  ASSERT_TRUE(flooder.Connect(server_.port()));
  // 2 MiB with no newline: the server must refuse to buffer it forever.
  std::string flood(2u << 20, 'a');
  flooder.SendLine(flood);  // the server may close mid-send; that's fine
  std::optional<std::string> reply = flooder.ReadLine();
  if (reply.has_value()) {  // reply is best-effort once the cap trips
    std::optional<obs::JsonValue> value = obs::ParseJson(*reply);
    ASSERT_TRUE(value.has_value());
    EXPECT_FALSE(value->Get("ok")->bool_value);
    EXPECT_EQ(value->Get("error")->string_value, "INVALID_ARGUMENT");
  }
  // The flood cost one connection, not the server: a new one still works.
  PersistentConnection conn;
  ASSERT_TRUE(conn.Connect(server_.port()));
  ASSERT_TRUE(conn.SendLine("{\"op\": \"ping\"}"));
  std::optional<std::string> pong = conn.ReadLine();
  ASSERT_TRUE(pong.has_value());
  std::optional<obs::JsonValue> value = obs::ParseJson(*pong);
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(value->Get("ok")->bool_value);
}

}  // namespace
}  // namespace serve
}  // namespace nmine

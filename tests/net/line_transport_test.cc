// LineServer / LineClient: the one TCP line transport under statusz, the
// mining server and the dist coordinator. Lines go to the handler in
// order, over-long lines are refused, a closed connection leaves no
// thread behind, Stop() returns without waiting on a timeout, and the
// client never buffers a reply past its cap.
#include "nmine/net/line_transport.h"

#include <gtest/gtest.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

namespace nmine {
namespace net {
namespace {

LineReply Echo(const std::string& line) {
  if (line.empty()) return LineReply{};
  if (line == "bye") return LineReply{"bye\n", true};
  return LineReply{"echo " + line + "\n", false};
}

class LineServerTest : public ::testing::Test {
 protected:
  void StartServer(LineServer::Handler handler, size_t max_line = 64) {
    LineServer::Options options;
    options.max_line = max_line;
    options.overflow_reply = "too long\n";
    std::string error;
    ASSERT_TRUE(server_.Start(options, std::move(handler), &error)) << error;
    ASSERT_NE(server_.port(), 0);
  }

  /// Polls until every connection thread has finished (the peer's close
  /// reaches the server asynchronously).
  bool WaitForNoConnections() {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_.live_connections() > 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  LineServer server_;
};

TEST_F(LineServerTest, RepliesToEachLineInOrderOnOneConnection) {
  StartServer(Echo);
  LineClient client(1024);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  std::string reply;
  ASSERT_TRUE(client.RoundTrip("a\n", &reply).ok());
  EXPECT_EQ(reply, "echo a");
  // Two lines in one write, then a blank line the handler ignores: the
  // replies come back in order and nothing is sent for the blank one.
  ASSERT_TRUE(client.RoundTrip("b\n\nc\n", &reply).ok());
  EXPECT_EQ(reply, "echo b");
  ASSERT_TRUE(client.RoundTrip("", &reply).ok());
  EXPECT_EQ(reply, "echo c");
  // A handler-requested close ends the connection after its reply.
  ASSERT_TRUE(client.RoundTrip("bye\n", &reply).ok());
  EXPECT_EQ(reply, "bye");
  EXPECT_TRUE(client.RoundTrip("d\n", &reply).IsTransient());
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(WaitForNoConnections());
}

TEST_F(LineServerTest, OverlongLineGetsTheOverflowReplyAndACloseOnly) {
  StartServer(Echo, /*max_line=*/64);
  LineClient client(1024);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  std::string reply;
  // Exactly at the cap is fine.
  ASSERT_TRUE(client.RoundTrip(std::string(64, 'x') + "\n", &reply).ok());
  EXPECT_EQ(reply, "echo " + std::string(64, 'x'));
  // A complete line over the cap is refused.
  ASSERT_TRUE(client.RoundTrip(std::string(65, 'x') + "\n", &reply).ok());
  EXPECT_EQ(reply, "too long");
  EXPECT_TRUE(client.RoundTrip("a\n", &reply).IsTransient());

  // So is an unterminated one, before its newline ever arrives.
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  ASSERT_TRUE(client.RoundTrip(std::string(100, 'y'), &reply).ok());
  EXPECT_EQ(reply, "too long");

  // The server itself is unharmed.
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  ASSERT_TRUE(client.RoundTrip("ok\n", &reply).ok());
  EXPECT_EQ(reply, "echo ok");
}

/// Virtual memory of this process in KiB (VmSize in /proc/self/status).
long VmSizeKb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmSize:") {
      long kb = 0;
      in >> kb;
      return kb;
    }
  }
  return -1;
}

TEST_F(LineServerTest, ClosedConnectionsLeaveNoThreadBehind) {
  StartServer(Echo);
  // Warm up once so lazily mapped runtime state is not counted.
  {
    LineClient client(1024);
    ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
    std::string reply;
    ASSERT_TRUE(client.RoundTrip("warm\n", &reply).ok());
  }
  ASSERT_TRUE(WaitForNoConnections());
  const long before_kb = VmSizeKb();
  ASSERT_GT(before_kb, 0);

  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    LineClient client(1024);
    ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
    std::string reply;
    ASSERT_TRUE(client.RoundTrip("x\n", &reply).ok());
    ASSERT_EQ(reply, "echo x");
  }
  ASSERT_TRUE(WaitForNoConnections());

  // A thread kept after its connection closed keeps its whole stack
  // mapped; 200 of them would add 200 stacks. Finished detached threads
  // return theirs (the C library may cache a few for reuse).
  pthread_attr_t attr;
  size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const long stack_kb = static_cast<long>(stack_bytes / 1024);
  const long grown_kb = VmSizeKb() - before_kb;
  EXPECT_LT(grown_kb, kConnections / 4 * stack_kb)
      << "VmSize grew by " << grown_kb << " KiB over " << kConnections
      << " closed connections";
}

TEST_F(LineServerTest, StopWakesAnIdleServer) {
  // No connection ever arrives: Stop must wake the blocked accept. If the
  // wake were missing this test would hang, not pass late.
  StartServer(Echo);
  server_.Stop();
  EXPECT_FALSE(server_.running());
  server_.Stop();  // idempotent
}

TEST_F(LineServerTest, StopWakesIdleConnections) {
  StartServer(Echo);
  LineClient first(1024);
  LineClient second(1024);
  ASSERT_TRUE(first.Connect("127.0.0.1", server_.port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", server_.port()).ok());
  std::string reply;
  ASSERT_TRUE(first.RoundTrip("hi\n", &reply).ok());
  // `second` never sent anything: its thread sits in recv() (or has not
  // been accepted yet). Stop must still return.
  server_.Stop();
  EXPECT_EQ(server_.live_connections(), 0u);
  EXPECT_TRUE(first.RoundTrip("again\n", &reply).IsTransient());
}

TEST_F(LineServerTest, RestartsAfterStop) {
  StartServer(Echo);
  server_.Stop();
  StartServer(Echo);
  LineClient client(1024);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  std::string reply;
  ASSERT_TRUE(client.RoundTrip("back\n", &reply).ok());
  EXPECT_EQ(reply, "echo back");
}

TEST(LineServerStartTest, RejectsBadAddressAndDoubleStart) {
  LineServer server;
  LineServer::Options options;
  options.bind_address = "not-an-address";
  std::string error;
  EXPECT_FALSE(server.Start(options, Echo, &error));
  EXPECT_NE(error.find("not-an-address"), std::string::npos);
  options.bind_address = "127.0.0.1";
  ASSERT_TRUE(server.Start(options, Echo, &error)) << error;
  EXPECT_FALSE(server.Start(options, Echo, &error));
}

TEST(LineClientTest, ReplyBeyondTheCapIsAnErrorNotGrowth) {
  // A peer that streams 1 MiB with no newline at all.
  LineServer peer;
  std::string error;
  ASSERT_TRUE(peer.Start(
      LineServer::Options(),
      [](const std::string&) {
        return LineReply{std::string(1u << 20, 'z'), false};
      },
      &error))
      << error;
  LineClient client(/*max_line=*/64 * 1024);
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port()).ok());
  std::string reply;
  Status s = client.RoundTrip("flood me\n", &reply);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_TRUE(reply.empty());
  EXPECT_FALSE(client.connected());  // no stale half-reply left to read
}

TEST(LineClientTest, KeepGoingAbortsAWaitForASilentPeer) {
  LineServer peer;
  std::string error;
  ASSERT_TRUE(peer.Start(
      LineServer::Options(),
      [](const std::string&) { return LineReply{}; },  // never answers
      &error))
      << error;
  LineClient client(1024);
  ASSERT_TRUE(client.Connect("127.0.0.1", peer.port()).ok());
  std::atomic<int> checks{0};
  std::string reply;
  Status s = client.RoundTrip("hello?\n", &reply, [&checks] {
    return ++checks < 3 ? Status::Ok() : Status::Cancelled("stop");
  });
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(checks.load(), 3);
  EXPECT_FALSE(client.connected());
}

TEST(LineClientTest, ConnectFailuresAreTyped) {
  LineClient client(1024);
  EXPECT_EQ(client.Connect("no-such-host", 1).code(),
            StatusCode::kInvalidArgument);
  // A port that was just released: nobody listens there now.
  uint16_t port;
  {
    LineServer server;
    std::string error;
    ASSERT_TRUE(server.Start(LineServer::Options(), Echo, &error)) << error;
    port = server.port();
  }
  EXPECT_TRUE(client.Connect("127.0.0.1", port).IsTransient());
  std::string reply;
  EXPECT_TRUE(client.RoundTrip("x\n", &reply).IsTransient());
}

}  // namespace
}  // namespace net
}  // namespace nmine

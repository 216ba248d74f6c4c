#ifndef NMINE_NET_LINE_TRANSPORT_H_
#define NMINE_NET_LINE_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "nmine/core/status.h"

namespace nmine {
namespace net {

/// What a LineServer handler answers to one request line.
struct LineReply {
  /// Sent verbatim (callers include the trailing newline); nothing is sent
  /// when empty.
  std::string text;
  /// Close the connection once `text` is sent.
  bool close = false;
};

/// The one TCP line server of the process: the statusz HTTP port, the
/// mining server and the dist coordinator all run on it and keep only
/// their dispatch.
///
/// Start binds, listens and starts an accept thread. Every accepted
/// connection gets its own thread that reads newline-terminated lines
/// (without the '\n'), hands each to the handler in arrival order and
/// sends the reply before reading on. A line longer than `max_line` bytes
/// (complete or still unterminated) gets `overflow_reply` and the
/// connection is closed, so a peer can never grow a buffer without bound.
/// A connection's thread ends, and is gone, as soon as the peer closes or
/// the handler asks to close.
///
/// Stop wakes the accept thread through a self-pipe and every live
/// connection by shutting its socket down, then waits for them all, so it
/// returns without waiting on any timeout. A handler blocked on its
/// owner's state (a "wait" op) must be released by the owner before Stop;
/// Stop must not be called from a handler.
class LineServer {
 public:
  struct Options {
    /// TCP port; 0 picks an ephemeral port (see port()).
    uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    /// Longest accepted line, in bytes, excluding the '\n'.
    size_t max_line = 1u << 20;
    /// Sent before closing a connection whose line exceeds max_line.
    std::string overflow_reply;
  };

  using Handler = std::function<LineReply(const std::string& line)>;

  LineServer() = default;
  ~LineServer();
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens and starts accepting. `handler` runs on connection
  /// threads, concurrently across connections. False with *error set when
  /// the socket cannot be set up or the server already runs.
  bool Start(const Options& options, Handler handler, std::string* error);

  /// Stops accepting, closes every connection and joins all threads. Safe
  /// to call twice or without Start().
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The port actually bound (resolves port 0 to the ephemeral choice).
  uint16_t port() const { return port_; }

  /// Connections whose thread has not finished yet.
  size_t live_connections();

 private:
  void AcceptLoop();
  void Serve(int fd);

  Options options_;
  Handler handler_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::set<int> live_fds_;
};

/// The client end of a line protocol: connect, send a request whole, read
/// one reply line of at most `max_line` bytes. Reconnect policy stays with
/// the caller. Every failure closes the connection, so a later call never
/// reads a stale reply.
class LineClient {
 public:
  explicit LineClient(size_t max_line) : max_line_(max_line) {}
  ~LineClient() { Close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Dials host:port (dotted IPv4). InvalidArgument for a bad host,
  /// Unavailable when the peer cannot be reached.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }

  /// Sends `request` and reads one reply line (without its '\n') into
  /// *reply. While waiting, `keep_going` (when set) is consulted every
  /// 200 ms and a non-OK status from it ends the call with that status.
  /// Unavailable when the connection fails or the peer closes it;
  /// ResourceExhausted when the reply line exceeds max_line.
  Status RoundTrip(const std::string& request, std::string* reply,
                   const std::function<Status()>& keep_going = nullptr);

 private:
  void Close();
  Status Fail(Status status);

  size_t max_line_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace net
}  // namespace nmine

#endif  // NMINE_NET_LINE_TRANSPORT_H_

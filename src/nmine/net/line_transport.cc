#include "nmine/net/line_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace nmine {
namespace net {
namespace {

std::string Errno(const char* call) {
  return std::string(call) + "(): " + std::strerror(errno);
}

/// Fills *addr with host:port; false when host is not a dotted IPv4
/// address.
bool ToAddress(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

int NewSocket() { return ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0); }

bool SendAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t w =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    done += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

LineServer::~LineServer() { Stop(); }

bool LineServer::Start(const Options& options, Handler handler,
                       std::string* error) {
  std::string why;
  auto fail = [&](int fd) {
    if (fd >= 0) ::close(fd);
    if (error != nullptr) *error = why;
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    why = "line server already running";
    return fail(-1);
  }
  sockaddr_in addr;
  if (!ToAddress(options.bind_address, options.port, &addr)) {
    why = "bad bind address '" + options.bind_address + "'";
    return fail(-1);
  }
  int fd = NewSocket();
  if (fd < 0) {
    why = Errno("socket");
    return fail(-1);
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    why = "bind(" + options.bind_address + ":" +
          std::to_string(options.port) + "): " + std::strerror(errno);
    return fail(fd);
  }
  if (::listen(fd, /*backlog=*/64) != 0) {
    why = Errno("listen");
    return fail(fd);
  }
  // Non-blocking, so a connection that vanishes between poll() and
  // accept() cannot park the accept thread where Stop's wake misses it.
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  socklen_t len = sizeof(addr);
  port_ = ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0
              ? ntohs(addr.sin_port)
              : options.port;
  int wake[2];
  if (::pipe2(wake, O_CLOEXEC) != 0) {
    why = Errno("pipe2");
    return fail(fd);
  }

  options_ = options;
  handler_ = std::move(handler);
  listen_fd_ = fd;
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void LineServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // The pipe stays readable from here on, so the accept thread's poll()
  // returns however it interleaves with this write.
  char byte = 1;
  while (::write(wake_write_fd_, &byte, 1) < 0 && errno == EINTR) {
  }
  accept_thread_.join();
  {
    // The accept thread is gone, so live_fds_ is final. shutdown() wakes
    // a connection thread blocked in recv() or send(); the fds stay open
    // (and cannot be reused) until their thread closes them under this
    // mutex.
    std::unique_lock<std::mutex> lock(mutex_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
    drained_cv_.wait(lock, [this] { return live_fds_.empty(); });
  }
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

size_t LineServer::live_connections() {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_fds_.size();
}

void LineServer::AcceptLoop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    if (::poll(fds, 2, /*timeout=*/-1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // Stop()
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      return;
    }
    ::fcntl(client, F_SETFD, FD_CLOEXEC);
    std::lock_guard<std::mutex> lock(mutex_);
    live_fds_.insert(client);
    try {
      // Detached: the thread is gone once its connection is, and Stop()
      // waits on live_fds_ instead of joining.
      std::thread([this, client] { Serve(client); }).detach();
    } catch (const std::system_error&) {
      live_fds_.erase(client);
      ::close(client);
    }
  }
}

void LineServer::Serve(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;  // peer closed, error, or Stop()'s shutdown
    buffer.append(chunk, static_cast<size_t>(r));
    size_t start = 0;
    size_t nl;
    bool overflow = false;
    while (open && (nl = buffer.find('\n', start)) != std::string::npos) {
      if (nl - start > options_.max_line) {
        overflow = true;
        break;
      }
      LineReply reply = handler_(buffer.substr(start, nl - start));
      start = nl + 1;
      if (!reply.text.empty() && !SendAll(fd, reply.text)) open = false;
      if (reply.close) open = false;
    }
    buffer.erase(0, start);
    if (open && (overflow || buffer.size() > options_.max_line)) {
      SendAll(fd, options_.overflow_reply);
      open = false;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ::close(fd);
  live_fds_.erase(fd);
  // Notify under the lock: Stop() cannot return, and the server cannot be
  // destroyed, until this thread has released the mutex for good.
  drained_cv_.notify_all();
}

Status LineClient::Connect(const std::string& host, uint16_t port) {
  Close();
  sockaddr_in addr;
  if (!ToAddress(host, port, &addr)) {
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  int fd = NewSocket();
  if (fd < 0) return Status::Unavailable(Errno("socket"));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Unavailable("connect(" + host + ":" +
                                   std::to_string(port) +
                                   "): " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::Ok();
}

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status LineClient::Fail(Status status) {
  Close();
  return status;
}

Status LineClient::RoundTrip(const std::string& request, std::string* reply,
                             const std::function<Status()>& keep_going) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  if (!SendAll(fd_, request)) {
    return Fail(Status::Unavailable(Errno("send")));
  }
  char chunk[4096];
  size_t nl;
  while ((nl = buffer_.find('\n')) == std::string::npos) {
    if (buffer_.size() > max_line_) {
      return Fail(Status::ResourceExhausted(
          "reply line exceeds " + std::to_string(max_line_) + " bytes"));
    }
    if (keep_going) {
      Status s = keep_going();
      if (!s.ok()) return Fail(s);
    }
    pollfd pfd = {fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, keep_going ? 200 : -1);
    if (ready < 0 && errno != EINTR) {
      return Fail(Status::Unavailable(Errno("poll")));
    }
    if (ready <= 0) continue;
    ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (r == 0) return Fail(Status::Unavailable("peer closed the connection"));
    if (r < 0) return Fail(Status::Unavailable(Errno("recv")));
    buffer_.append(chunk, static_cast<size_t>(r));
  }
  if (nl > max_line_) {
    return Fail(Status::ResourceExhausted(
        "reply line exceeds " + std::to_string(max_line_) + " bytes"));
  }
  reply->assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  return Status::Ok();
}

}  // namespace net
}  // namespace nmine

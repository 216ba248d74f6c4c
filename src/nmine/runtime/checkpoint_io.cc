#include "nmine/runtime/checkpoint_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "nmine/obs/logger.h"

namespace nmine {
namespace runtime {
namespace {

/// fsync the file at `path` so the rename below publishes durable bytes.
bool SyncFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Unavailable("cannot open temp file '" + tmp + "'");
    }
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      return Status::Unavailable("short write to temp file '" + tmp + "'");
    }
  }
  if (!SyncFile(tmp)) {
    return Status::Unavailable("cannot fsync temp file '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Unavailable("cannot rename '" + tmp + "' into place: " +
                               ec.message());
  }
  return Status::Ok();
}

void BestEffortRemoveFile(const std::string& path, const char* component) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    NMINE_LOG(kWarn, component)
        .Msg("could not remove file")
        .Str("path", path)
        .Str("error", ec.message());
  }
}

std::unique_ptr<AppendLog> AppendLog::Open(
    const std::string& dir, const std::string& name,
    const std::function<void(const std::string& line)>& replay,
    const std::function<std::string()>& compact, std::string* error) {
  auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return nullptr;
  };
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return fail("cannot create state dir '" + dir + "': " + ec.message());
  }
  const std::string path = (std::filesystem::path(dir) / name).string();

  size_t replayed_lines = 0;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      replay(line);
      ++replayed_lines;
    }
  }
  Status written = AtomicWriteFile(path, compact());
  if (!written.ok()) return fail(written.ToString());

  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return fail("cannot open '" + path +
                "' for append: " + std::string(std::strerror(errno)));
  }
  return std::unique_ptr<AppendLog>(
      new AppendLog(path, fd, replayed_lines));
}

AppendLog::~AppendLog() { ::close(fd_); }

Status AppendLog::Append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t done = 0;
  while (done < line.size()) {
    ssize_t w = ::write(fd_, line.data() + done, line.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("write to '" + path_ +
                                 "' failed: " + std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  if (::fsync(fd_) != 0) {
    return Status::Unavailable("fsync of '" + path_ +
                               "' failed: " + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace runtime
}  // namespace nmine

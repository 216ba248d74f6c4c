#ifndef NMINE_RUNTIME_CHECKPOINT_IO_H_
#define NMINE_RUNTIME_CHECKPOINT_IO_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "nmine/core/status.h"

namespace nmine {
namespace runtime {

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, fsync, rename. A crash at any point leaves either the
/// previous file or the new one — never a torn mixture — so the last good
/// checkpoint always survives a failed flush.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Removes `path` if present. Best-effort: a failure is logged under
/// `component` and otherwise ignored (a stale checkpoint is refused by its
/// guard fields on the next load, so leaking one is safe).
void BestEffortRemoveFile(const std::string& path, const char* component);

/// An fsync'd line log: the write-ahead journal under both the mining
/// server's job board (serve/job_journal.h) and the dist coordinator's
/// assignment state (dist/journal.h). The callers own the line format
/// and the compaction policy; this owns the file.
class AppendLog {
 public:
  /// Opens `<dir>/<name>`, creating `dir` when missing. Every line of an
  /// existing log goes to `replay` in order. The final line of a crashed
  /// writer may arrive torn (unterminated, cut mid-record); the caller's
  /// parser rejects and so skips it. The file is then replaced atomically
  /// by `compact()`, which the caller builds from the replayed state, and
  /// opened for appending. nullptr with *error set on failure.
  static std::unique_ptr<AppendLog> Open(
      const std::string& dir, const std::string& name,
      const std::function<void(const std::string& line)>& replay,
      const std::function<std::string()>& compact, std::string* error);

  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Writes `line` whole and fsyncs it before returning. Appends are
  /// serialized, so an acknowledged append survives SIGKILL.
  Status Append(const std::string& line);

  const std::string& path() const { return path_; }

  /// Lines Open fed to `replay`.
  size_t replayed_lines() const { return replayed_lines_; }

 private:
  AppendLog(std::string path, int fd, size_t replayed_lines)
      : path_(std::move(path)), fd_(fd), replayed_lines_(replayed_lines) {}

  std::string path_;
  int fd_;
  size_t replayed_lines_;
  std::mutex mutex_;
};

}  // namespace runtime
}  // namespace nmine

#endif  // NMINE_RUNTIME_CHECKPOINT_IO_H_

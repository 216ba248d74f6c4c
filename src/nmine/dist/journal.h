#ifndef NMINE_DIST_JOURNAL_H_
#define NMINE_DIST_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nmine/core/pattern.h"
#include "nmine/core/status.h"
#include "nmine/runtime/checkpoint_io.h"

namespace nmine {
namespace dist {

/// Journaled progress of one dist shard within the in-flight scan:
/// cumulative per-exec-shard partial sums, replaced (never summed) on
/// every append so replay is idempotent.
struct ShardProgress {
  uint64_t done = 0;  // exec shards finished (== partials.size())
  bool complete = false;
  std::vector<std::vector<double>> partials;
};

/// Everything DistJournal::Open recovers from a prior coordinator life.
struct ReplayState {
  /// Highest granted epoch per dist shard. Grants after recovery start
  /// ABOVE these, so a zombie worker from the previous life can never
  /// hold a current epoch.
  std::map<uint64_t, uint64_t> epochs;
  /// The scan that was in flight at the crash, if any, identified by a
  /// fingerprint over (metric, probe patterns). The restarted run re-derives
  /// the same probe from its RunCheckpoint, so a matching fingerprint means
  /// the journaled shard progress belongs to the batch being re-counted.
  bool has_scan = false;
  uint64_t scan = 0;
  uint64_t fingerprint = 0;
  std::map<uint64_t, ShardProgress> shards;
};

/// Write-ahead journal of the coordinator's assignment state, the
/// crash-recovery spine of nmine_coordinator. Like serve::JobJournal it is
/// a runtime::AppendLog: torn-tail-tolerant replay and compaction on
/// open.
///
/// Events, each one fsync'd JSON line in `<state_dir>/dist.journal`:
///
///   {"event": "epoch", "shard": H, "epoch": E}     BEFORE the grant response
///   {"event": "scan",  "scan": S, "fp": "hex16"}   scan begins
///   {"event": "progress", "scan": S, "shard": H, "done": D,
///    "complete": B, "partials": [[hex16...],...]}  BEFORE acking the worker
///   {"event": "scan_end", "scan": S}               totals merged & consumed
///
/// Epoch ordering is the fencing invariant: an epoch is journaled before
/// any worker learns it, so epochs never regress across coordinator
/// restarts and a stale-epoch result can always be detected. Progress
/// ordering gives exactly-once counting: partials are journaled (by
/// replacement) before the worker is acked, so an un-acked worker resend
/// just overwrites the same cumulative state.
class DistJournal {
 public:
  /// Opens (creating state_dir if needed), replays into `state`, and
  /// compacts. A scan_end clears the in-flight scan, so only an
  /// interrupted scan survives replay. nullptr with *error on failure.
  static std::unique_ptr<DistJournal> Open(const std::string& state_dir,
                                           ReplayState* state,
                                           std::string* error);

  DistJournal(const DistJournal&) = delete;
  DistJournal& operator=(const DistJournal&) = delete;

  Status AppendEpoch(uint64_t shard, uint64_t epoch);
  Status AppendScanBegin(uint64_t scan, uint64_t fingerprint);
  Status AppendShardProgress(uint64_t scan, uint64_t shard,
                             const ShardProgress& progress);
  Status AppendScanEnd(uint64_t scan);

  const std::string& path() const { return log_->path(); }

 private:
  explicit DistJournal(std::unique_ptr<runtime::AppendLog> log)
      : log_(std::move(log)) {}

  std::unique_ptr<runtime::AppendLog> log_;
};

/// FNV-1a over the metric wire name and the probe patterns. Identifies a
/// probe batch across coordinator restarts without trusting scan ids
/// (which restart from 1 in the new life).
uint64_t ScanFingerprint(const std::string& metric,
                         const std::vector<Pattern>& patterns);

}  // namespace dist
}  // namespace nmine

#endif  // NMINE_DIST_JOURNAL_H_

#ifndef NMINE_MINING_MINER_OPTIONS_H_
#define NMINE_MINING_MINER_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "nmine/core/metric.h"
#include "nmine/core/pattern.h"
#include "nmine/core/status.h"
#include "nmine/exec/policy.h"
#include "nmine/lattice/candidate_gen.h"
#include "nmine/runtime/run_control.h"

namespace nmine {

/// Options shared by all miners. Probabilistic-algorithm knobs are ignored
/// by the deterministic miners.
struct MinerOptions {
  /// min_match (or min_support) threshold qualifying frequent patterns.
  double min_threshold = 0.001;

  /// Shape of the pattern space (span / gap limits, Definition 3.2).
  PatternSpaceOptions space;

  /// Safety cap on the number of lattice levels explored.
  size_t max_level = std::numeric_limits<size_t>::max();

  /// Guardrail: maximum candidates generated per lattice level. When the
  /// Chernoff band is wider than the threshold (tiny samples), the set of
  /// frequent-or-ambiguous patterns stops shrinking level over level and
  /// candidate generation would grow as m^k; this cap bounds the blow-up.
  /// Hitting it sets MiningResult::truncated (results may then miss
  /// patterns). Choose sample sizes so that epsilon < min_threshold to
  /// stay exact.
  size_t max_candidates_per_level = 2000000;

  // --- Probabilistic algorithm (Section 4) ---

  /// Number of sample sequences that fit in memory (Phase 1).
  size_t sample_size = 1000;

  /// Chernoff-bound failure probability; the paper uses 1 - delta = 0.9999.
  double delta = 1e-4;

  /// Restrict the spread R to the minimum single-symbol match (Claim 4.2)
  /// instead of the default R = 1.
  bool use_restricted_spread = true;

  /// Memory budget: maximum number of pattern counters maintained during
  /// one scan of the full database ("until the memory is filled up",
  /// Algorithm 4.3). Also batches the Toivonen baseline's verification.
  size_t max_counters_per_scan = 200000;

  /// Seed for sampling (Phase 1 is the only randomized step).
  uint64_t seed = 42;

  // --- Parallel execution (src/nmine/exec) ---

  /// Worker threads for scan-shaped hot paths (pattern counting, Phase-1
  /// symbol scanning, Phase-2 sample mining, Phase-3 probe batches);
  /// 0 = hardware concurrency. Results are bit-identical for every
  /// setting (deterministic sharded reduction), and the number of charged
  /// database scans never changes — only wall-clock time does.
  size_t num_threads = 1;

  // --- Fault tolerance (border-collapsing miner) ---

  /// Miner-level retries of a failed Phase-3 probe scan, on top of any
  /// retrying the database itself performs. Only the unresolved probe
  /// batch is re-counted; resolved patterns are never re-probed.
  size_t phase3_scan_retries = 1;

  /// When set, Phase-3 probe scans are delegated to this hook instead of
  /// scanning the database in-process (distributed counting: the
  /// coordinator farms the batch out to sharded workers). The hook MUST
  /// return values bit-identical to TryCountMatches/TryCountSupports —
  /// i.e. merge per-exec-shard partials in ascending shard order and
  /// divide by the sequence count once — or distributed results drift
  /// from the serial CLI. Each invocation is charged as one scan (the
  /// database's own scan counter does not move); transient failures are
  /// retried like any other probe scan. Phases 1-2 always run locally.
  std::function<Status(const std::vector<Pattern>& probe,
                       std::vector<double>* values)>
      phase3_count_override;

  // --- Run lifecycle governance (src/nmine/runtime) ---

  /// Cooperative cancellation / deadline token, shared with the driver
  /// (CLI signal handlers, --deadline). Polled at shard, level, and batch
  /// boundaries; a stopped run flushes its checkpoint and returns
  /// kCancelled / kDeadlineExceeded with an EMPTY pattern set — never a
  /// silently-partial one. nullptr = ungoverned (no polling overhead).
  const runtime::RunControl* run_control = nullptr;

  /// Approximate cap, in bytes, on mining working memory (the in-memory
  /// sample, candidate pattern batches, borders). 0 = unlimited. When the
  /// budget binds, the run degrades instead of failing: first Phase-3
  /// probe batches shrink below max_counters_per_scan (more scans, still
  /// exact), then the sample shrinks and epsilon is recomputed from the
  /// new n (wider ambiguous band, still exact); only when even the floor
  /// cannot fit does mining fail with kResourceExhausted.
  size_t memory_budget_bytes = 0;

  /// When non-empty, whole-run checkpoints are written at every phase
  /// boundary (after Phase 1, after Phase 2, after every Phase-3 probe
  /// scan), and a cancelled/expired run flushes its progress here before
  /// returning. A later run with the same options and database resumes
  /// from the last boundary instead of redoing the scans before it. The
  /// file is removed on success.
  std::string run_checkpoint_path;
};

/// The exec policy implied by these options (shard size stays at the
/// deterministic default; the thread count and the cancellation token are
/// the user knobs).
inline exec::ExecPolicy ExecPolicyFor(const MinerOptions& options) {
  exec::ExecPolicy policy;
  policy.num_threads = options.num_threads;
  policy.run = options.run_control;
  return policy;
}

}  // namespace nmine

#endif  // NMINE_MINING_MINER_OPTIONS_H_

#ifndef NMINE_RUNTIME_RUN_CHECKPOINT_H_
#define NMINE_RUNTIME_RUN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nmine/core/metric.h"
#include "nmine/core/pattern.h"
#include "nmine/core/sequence.h"
#include "nmine/core/status.h"

namespace nmine {
namespace runtime {

/// The phase boundary a RunCheckpoint was taken at. Stages are ordered:
/// each one strictly extends the previous one's payload, and a resumed run
/// re-enters the pipeline right after the recorded stage.
enum class RunStage {
  kPhase1Done = 1,     // symbol matches + reservoir sample are final
  kPhase2Done = 2,     // sample classification (FQT/INFQT split) is final
  kPhase3Progress = 3, // some border-collapsing probe scans are consumed
};

const char* ToString(RunStage stage);

/// Whole-run checkpoint: a phase-boundary snapshot of a border-collapsing
/// mining run, written atomically after Phase 1, after Phase 2, and after
/// every Phase-3 probe scan. A process killed at any point resumes from
/// the last completed boundary instead of rescanning — each lost scan is a
/// full pass over the (potentially disk-resident) database, the dominant
/// cost the paper optimizes.
///
/// The guard fields tie a checkpoint to one (database, metric, threshold,
/// sampling) configuration; Load refuses mismatches so stale state can
/// never leak into a different mining run.
struct RunCheckpoint {
  RunStage stage = RunStage::kPhase3Progress;

  // --- Guard: must match the resuming run exactly. ---
  Metric metric = Metric::kMatch;
  double min_threshold = 0.0;
  uint64_t num_sequences = 0;
  uint64_t total_symbols = 0;
  // Sampling guard: a stage-1 snapshot feeds Phase 2, which must replay
  // with the same sample-size / seed / confidence configuration.
  uint64_t sample_size = 0;
  uint64_t seed = 0;
  double delta = 0.0;

  /// Probe scans already consumed by the algorithm (restored into
  /// MiningResult::scans so cost accounting spans the interrupted and
  /// resumed runs). A scan aborted by cancellation is never counted here —
  /// its results were discarded, so the resumed run repeats it.
  int64_t scans_completed = 0;

  // --- Diagnostics carried across the resume. ---
  uint64_t ambiguous_after_sample = 0;
  uint64_t ambiguous_with_unit_spread = 0;
  uint64_t accepted_from_sample = 0;
  bool truncated = false;
  /// Sample size after any memory-budget degradation, and the unit-spread
  /// Chernoff band recomputed from it (0 when never set).
  uint64_t effective_sample_size = 0;
  double final_epsilon = 0.0;

  /// Phase-1 per-symbol match (index = symbol id). Stages >= 1.
  std::vector<double> symbol_match;

  /// The Phase-1 reservoir sample, only at stage kPhase1Done (later stages
  /// no longer need it: sample estimates live on the patterns below).
  std::vector<SequenceRecord> sample;

  /// Patterns already known frequent, with their values (exact for probed
  /// patterns, sample estimates for sample-accepted ones). Stages >= 2.
  std::vector<std::pair<Pattern, double>> resolved_frequent;

  /// Still-ambiguous patterns with their sample estimates. Stages >= 2.
  std::vector<std::pair<Pattern, double>> unresolved;
};

/// Writes `cp` to `path` atomically (temp + fsync + rename via
/// checkpoint_io), so a crash while checkpointing never destroys the
/// previous good checkpoint.
Status WriteRunCheckpoint(const std::string& path, const RunCheckpoint& cp);

/// Loads a checkpoint. kNotFound when no file exists (fresh run),
/// kDataLoss on a malformed file, kFailedPrecondition when the guard
/// fields disagree with `expected` (the caller's configuration).
Status LoadRunCheckpoint(const std::string& path,
                         const RunCheckpoint& expected, RunCheckpoint* cp);

/// Removes the checkpoint file if present (called on successful
/// completion). Best-effort; missing files are fine.
void RemoveRunCheckpoint(const std::string& path);

}  // namespace runtime
}  // namespace nmine

#endif  // NMINE_RUNTIME_RUN_CHECKPOINT_H_

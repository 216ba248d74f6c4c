#include "nmine/dist/journal.h"

#include <algorithm>
#include <cstring>

#include "nmine/dist/wire.h"
#include "nmine/obs/json_parse.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/logger.h"
#include "nmine/runtime/checkpoint_io.h"

namespace nmine {
namespace dist {
namespace {

void AppendEpochLine(uint64_t shard, uint64_t epoch, std::string* out) {
  out->append("{\"event\": \"epoch\", \"shard\": ");
  obs::AppendJsonNumber(static_cast<double>(shard), out);
  out->append(", \"epoch\": ");
  obs::AppendJsonNumber(static_cast<double>(epoch), out);
  out->append("}\n");
}

std::string Hex16(uint64_t bits) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[bits & 0xf];
    bits >>= 4;
  }
  return out;
}

bool ParseHex16(const std::string& text, uint64_t* bits) {
  double as_double = 0.0;
  if (!DecodeDoubleBits(text, &as_double)) return false;
  std::memcpy(bits, &as_double, sizeof(*bits));
  return true;
}

void AppendScanLine(uint64_t scan, uint64_t fingerprint, std::string* out) {
  out->append("{\"event\": \"scan\", \"scan\": ");
  obs::AppendJsonNumber(static_cast<double>(scan), out);
  out->append(", \"fp\": \"");
  out->append(Hex16(fingerprint));
  out->append("\"}\n");
}

void AppendProgressLine(uint64_t scan, uint64_t shard,
                        const ShardProgress& progress, std::string* out) {
  out->append("{\"event\": \"progress\", \"scan\": ");
  obs::AppendJsonNumber(static_cast<double>(scan), out);
  out->append(", \"shard\": ");
  obs::AppendJsonNumber(static_cast<double>(shard), out);
  out->append(", \"done\": ");
  obs::AppendJsonNumber(static_cast<double>(progress.done), out);
  out->append(", \"complete\": ");
  out->append(progress.complete ? "true" : "false");
  out->append(", \"partials\": [");
  for (size_t i = 0; i < progress.partials.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append("[");
    for (size_t j = 0; j < progress.partials[i].size(); ++j) {
      if (j > 0) out->append(", ");
      out->append("\"");
      out->append(EncodeDoubleBits(progress.partials[i][j]));
      out->append("\"");
    }
    out->append("]");
  }
  out->append("]}\n");
}

void AppendScanEndLine(uint64_t scan, std::string* out) {
  out->append("{\"event\": \"scan_end\", \"scan\": ");
  obs::AppendJsonNumber(static_cast<double>(scan), out);
  out->append("}\n");
}

/// Applies one journal line to the state. Unparseable lines (the torn
/// trailing write of a crash) are skipped — anything torn was by
/// construction never acknowledged to a worker.
void Replay(const std::string& line, ReplayState* state) {
  std::optional<obs::JsonValue> value = obs::ParseJson(line);
  if (!value.has_value() || !value->is_object()) return;
  const obs::JsonValue* event = value->Get("event");
  if (event == nullptr || !event->is_string()) return;

  if (event->string_value == "epoch") {
    const obs::JsonValue* shard = value->Get("shard");
    const obs::JsonValue* epoch = value->Get("epoch");
    if (shard == nullptr || !shard->is_number() || epoch == nullptr ||
        !epoch->is_number()) {
      return;
    }
    uint64_t& slot = state->epochs[static_cast<uint64_t>(shard->number_value)];
    slot = std::max(slot, static_cast<uint64_t>(epoch->number_value));
    return;
  }
  if (event->string_value == "scan") {
    const obs::JsonValue* scan = value->Get("scan");
    const obs::JsonValue* fp = value->Get("fp");
    uint64_t fingerprint = 0;
    if (scan == nullptr || !scan->is_number() || fp == nullptr ||
        !fp->is_string() || !ParseHex16(fp->string_value, &fingerprint)) {
      return;
    }
    // A new scan supersedes any earlier in-flight one: only the latest
    // batch's partials are ever re-adoptable.
    state->has_scan = true;
    state->scan = static_cast<uint64_t>(scan->number_value);
    state->fingerprint = fingerprint;
    state->shards.clear();
    return;
  }
  if (event->string_value == "progress") {
    const obs::JsonValue* scan = value->Get("scan");
    const obs::JsonValue* shard = value->Get("shard");
    const obs::JsonValue* partials = value->Get("partials");
    if (scan == nullptr || !scan->is_number() || shard == nullptr ||
        !shard->is_number() || partials == nullptr || !partials->is_array() ||
        !state->has_scan ||
        static_cast<uint64_t>(scan->number_value) != state->scan) {
      return;
    }
    ShardProgress progress;
    for (const obs::JsonValue& entry : partials->array) {
      if (!entry.is_array()) return;
      std::vector<double> partial;
      partial.reserve(entry.array.size());
      for (const obs::JsonValue& cell : entry.array) {
        double d = 0.0;
        if (!cell.is_string() || !DecodeDoubleBits(cell.string_value, &d)) {
          return;
        }
        partial.push_back(d);
      }
      progress.partials.push_back(std::move(partial));
    }
    progress.done = static_cast<uint64_t>(value->GetNumber("done", 0.0));
    if (progress.done != progress.partials.size()) return;
    const obs::JsonValue* complete = value->Get("complete");
    progress.complete = complete != nullptr && complete->bool_value;
    // Replacement, not accumulation: replaying the same progress twice
    // (or an un-acked resend after it) lands on identical state.
    state->shards[static_cast<uint64_t>(shard->number_value)] =
        std::move(progress);
    return;
  }
  if (event->string_value == "scan_end") {
    const obs::JsonValue* scan = value->Get("scan");
    if (scan == nullptr || !scan->is_number() || !state->has_scan ||
        static_cast<uint64_t>(scan->number_value) != state->scan) {
      return;
    }
    state->has_scan = false;
    state->scan = 0;
    state->fingerprint = 0;
    state->shards.clear();
  }
}

}  // namespace

std::unique_ptr<DistJournal> DistJournal::Open(const std::string& state_dir,
                                               ReplayState* state,
                                               std::string* error) {
  *state = ReplayState();
  // Compaction keeps epochs plus the in-flight scan (if any): all that the
  // next life needs; dead scans and superseded progress drop.
  auto compact = [state] {
    std::string compacted;
    for (const auto& [shard, epoch] : state->epochs) {
      AppendEpochLine(shard, epoch, &compacted);
    }
    if (state->has_scan) {
      AppendScanLine(state->scan, state->fingerprint, &compacted);
      for (const auto& [shard, progress] : state->shards) {
        AppendProgressLine(state->scan, shard, progress, &compacted);
      }
    }
    return compacted;
  };
  std::unique_ptr<runtime::AppendLog> log = runtime::AppendLog::Open(
      state_dir, "dist.journal",
      [state](const std::string& line) { Replay(line, state); }, compact,
      error);
  if (log == nullptr) return nullptr;
  if (log->replayed_lines() > 0) {
    NMINE_LOG(kInfo, "dist")
        .Msg("dist journal replayed")
        .Num("lines", static_cast<int64_t>(log->replayed_lines()))
        .Num("shard_epochs", static_cast<int64_t>(state->epochs.size()))
        .Num("inflight_scan", state->has_scan ? 1 : 0);
  }
  return std::unique_ptr<DistJournal>(new DistJournal(std::move(log)));
}

Status DistJournal::AppendEpoch(uint64_t shard, uint64_t epoch) {
  std::string line;
  AppendEpochLine(shard, epoch, &line);
  return log_->Append(line);
}

Status DistJournal::AppendScanBegin(uint64_t scan, uint64_t fingerprint) {
  std::string line;
  AppendScanLine(scan, fingerprint, &line);
  return log_->Append(line);
}

Status DistJournal::AppendShardProgress(uint64_t scan, uint64_t shard,
                                        const ShardProgress& progress) {
  std::string line;
  AppendProgressLine(scan, shard, progress, &line);
  return log_->Append(line);
}

Status DistJournal::AppendScanEnd(uint64_t scan) {
  std::string line;
  AppendScanEndLine(scan, &line);
  return log_->Append(line);
}

uint64_t ScanFingerprint(const std::string& metric,
                         const std::vector<Pattern>& patterns) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  };
  for (char ch : metric) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ull;
  }
  mix(patterns.size());
  for (const Pattern& p : patterns) {
    mix(p.length());
    for (size_t i = 0; i < p.length(); ++i) {
      mix(static_cast<uint64_t>(static_cast<int64_t>(p[i])));
    }
  }
  return hash;
}

}  // namespace dist
}  // namespace nmine

// nmbench: the in-process half of the repository benchmark (run.py drives
// it; see README.md for the workloads and metrics).
//
//   nmbench gen --db F --matrix F --seed S --sequences N --min-len L
//       --max-len L --alphabet M --channel uniform|sparse [--alpha A]
//       [--compat F --diag D] [--plant-lengths K1,K2,... --plant-prob P]
//     Writes a generated .nmsq database and its compatibility matrix and
//     prints their sizes as one JSON line.
//
//   nmbench run --db F --matrix F --ref-csv F --threshold T --sample N
//       --delta D --max-span K --max-level K --seconds S --trace 0|1
//       [--trace-out F]
//     --trace 0: times BorderCollapseMiner::Mine over the files at 1 thread
//     for S seconds, then three times at 4 threads, and checks every result
//     against the reference CSV (`nmine_cli mine --csv` on the same files).
//     --trace 1: times the calls into each layer's public functions from
//     outside (bench-owned spans), replays Phase 2 level by level, and
//     writes the spans as Chrome-trace JSON to --trace-out.
//     Both print one JSON line with the raw measurements and the outcome
//     of every check; a failed check is listed under "failures".
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/match.h"
#include "nmine/core/match_kernel.h"
#include "nmine/core/matrix_io.h"
#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "nmine/eval/table.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/gen/noise_model.h"
#include "nmine/gen/sequence_generator.h"
#include "nmine/lattice/candidate_gen.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/lattice/pattern_set.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/symbol_scan.h"
#include "nmine/stats/chernoff.h"

namespace nmine {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        bad_ = key;
        return;
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) bad_ = argv[argc - 1];
  }
  const std::string& bad() const { return bad_; }
  std::string Str(const std::string& key, const std::string& dflt = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  double Num(const std::string& key, double dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atof(it->second.c_str());
  }
  size_t Size(const std::string& key, size_t dflt) const {
    return static_cast<size_t>(Num(key, static_cast<double>(dflt)));
  }

 private:
  std::map<std::string, std::string> values_;
  std::string bad_;
};

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out += ch;
  }
  return out + "\"";
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNum(v[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------- gen

int CmdGen(const Flags& flags) {
  const std::string db_path = flags.Str("db");
  const std::string matrix_path = flags.Str("matrix");
  const std::string channel = flags.Str("channel", "uniform");
  if (db_path.empty() || matrix_path.empty() ||
      (channel != "uniform" && channel != "sparse")) {
    std::fprintf(stderr, "gen: need --db, --matrix and a --channel\n");
    return 1;
  }
  Rng rng(static_cast<uint64_t>(flags.Num("seed", 1)));
  GeneratorConfig config;
  config.num_sequences = flags.Size("sequences", 1000);
  config.min_length = flags.Size("min-len", 40);
  config.max_length = flags.Size("max-len", 60);
  config.alphabet_size = flags.Size("alphabet", 20);
  config.plant_probability = flags.Num("plant-prob", 0.3);
  const size_t m = config.alphabet_size;
  // One planted pattern per listed length (symbols drawn from the seed).
  std::stringstream lengths(flags.Str("plant-lengths"));
  for (std::string k; std::getline(lengths, k, ',');) {
    config.planted.push_back(
        RandomPattern(static_cast<size_t>(std::atoi(k.c_str())), 0, m, &rng));
  }
  InMemorySequenceDatabase standard = GenerateDatabase(config, &rng);

  // The program sees only the observed database: the standard one pushed
  // through the noise channel the matrix describes.
  std::vector<SequenceRecord> observed;
  observed.reserve(standard.NumSequences());
  std::unique_ptr<CompatibilityMatrix> c;
  if (channel == "uniform") {
    const double alpha = flags.Num("alpha", 0.1);
    c = std::make_unique<CompatibilityMatrix>(UniformNoiseMatrix(m, alpha));
    for (const SequenceRecord& r : standard.records()) {
      observed.push_back({r.id, ApplyUniformNoise(r.symbols, alpha, m, &rng)});
    }
  } else {
    // Section 5.7 / Figure 15: each symbol compatible with ~compat of the
    // others; keep a symbol with probability diag, otherwise substitute a
    // random compatible one.
    const double diag = flags.Num("diag", 0.85);
    c = std::make_unique<CompatibilityMatrix>(
        SparseRandomMatrix(m, flags.Num("compat", 0.1), diag, &rng));
    for (const SequenceRecord& r : standard.records()) {
      SequenceRecord noisy{r.id, {}};
      noisy.symbols.reserve(r.symbols.size());
      for (SymbolId s : r.symbols) {
        if (rng.Bernoulli(diag)) {
          noisy.symbols.push_back(s);
        } else {
          const auto& row = c->RowNonZeros(s);
          noisy.symbols.push_back(row[rng.UniformInt(row.size())].symbol);
        }
      }
      observed.push_back(std::move(noisy));
    }
  }
  IoResult w = dbformat::WriteDatabaseFile(db_path, observed);
  if (!w.ok) {
    std::fprintf(stderr, "gen: %s\n", w.message.c_str());
    return 1;
  }
  MatrixIoResult mw = WriteCompatibilityMatrixFile(matrix_path, *c);
  if (!mw.ok) {
    std::fprintf(stderr, "gen: %s\n", mw.message.c_str());
    return 1;
  }
  uint64_t symbols = 0;
  for (const SequenceRecord& r : observed) symbols += r.symbols.size();
  struct stat st {};
  stat(db_path.c_str(), &st);
  std::printf(
      "{\"sequences\": %zu, \"symbols\": %llu, \"alphabet\": %zu, "
      "\"file_bytes\": %lld, \"matrix_sparsity\": %s, \"planted\": %zu}\n",
      observed.size(), static_cast<unsigned long long>(symbols), m,
      static_cast<long long>(st.st_size), JsonNum(c->Sparsity()).c_str(),
      config.planted.size());
  return 0;
}

// ---------------------------------------------------------------- run

// Everything a run needs from the files and flags.
struct Inputs {
  std::string db_path;
  std::string matrix_path;
  std::unique_ptr<DiskSequenceDatabase> db;
  std::unique_ptr<CompatibilityMatrix> c;
  std::string ref_csv;
  MinerOptions options;  // num_threads = 1
};

// Opens the database and reads the matrix: the program's set-up.
bool Open(Inputs* in, std::string* error) {
  Status s;
  in->db = DiskSequenceDatabase::Open(in->db_path, &s);
  if (in->db == nullptr) {
    *error = "open " + in->db_path + ": " + s.ToString();
    return false;
  }
  MatrixIoResult me;
  std::optional<CompatibilityMatrix> c =
      ReadCompatibilityMatrixFile(in->matrix_path, &me);
  if (!c.has_value()) {
    *error = "matrix " + in->matrix_path + ": " + me.message;
    return false;
  }
  in->c = std::make_unique<CompatibilityMatrix>(std::move(*c));
  return true;
}

// The exact bytes `nmine_cli mine --csv` prints for a result.
std::string ResultCsv(const MiningResult& r) {
  Table table({"pattern", "value"});
  for (const Pattern& p : r.border.ToSortedVector()) {
    auto it = r.values.find(p);
    table.AddRow({p.ToString(),
                  it == r.values.end() ? "-" : Table::Num(it->second, 5)});
  }
  std::ostringstream out;
  table.PrintCsv(out);
  return out.str();
}

bool SameLevels(const std::vector<LevelStats>& a,
                const std::vector<LevelStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].level != b[i].level ||
        a[i].num_candidates != b[i].num_candidates ||
        a[i].num_frequent != b[i].num_frequent) {
      return false;
    }
  }
  return true;
}

// Counts attempted runs and records why any of them was wrong.
struct Checks {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;

  // One measured run: every check that applies to it, counted once.
  void Run(const std::vector<std::pair<bool, std::string>>& checks) {
    ++attempted;
    bool ok = true;
    for (const auto& [pass, what] : checks) {
      if (pass) continue;
      ok = false;
      if (failures.size() < 20) failures.push_back(what);
    }
    if (!ok) ++failed;
  }

  std::string Json() const {
    std::string f = "[";
    for (size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) f += ", ";
      f += JsonStr(failures[i]);
    }
    return "\"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"failures\": " +
           f + "]";
  }
};

// The checks every Mine result must pass: status, the reference bytes,
// and the scan and per-level counts of the first result.
std::vector<std::pair<bool, std::string>> ResultChecks(
    const Inputs& in, const MiningResult& r, const MiningResult& first,
    int64_t db_scans, const char* label) {
  const std::string tag = std::string(label) + ": ";
  return {
      {r.ok(), tag + "mining failed: " + r.status.ToString()},
      {!r.truncated, tag + "candidate guardrail fired"},
      {ResultCsv(r) == in.ref_csv, tag + "CSV differs from nmine_cli"},
      {r.scans == first.scans, tag + "scan count changed"},
      {r.scans == db_scans, tag + "scans differ from the database counter"},
      {SameLevels(r.level_stats, first.level_stats),
       tag + "per-level candidate counts changed"},
  };
}

MiningResult MineOnce(const Inputs& in, size_t threads, double* seconds) {
  MinerOptions options = in.options;
  options.num_threads = threads;
  Clock::time_point start = Clock::now();
  MiningResult r = BorderCollapseMiner(Metric::kMatch, options).Mine(*in.db,
                                                                    *in.c);
  *seconds = SecondsSince(start);
  return r;
}

// Phase 1 + Phase 2 with the public calls Mine makes, at 1 thread.
SampleClassification Classify(const Inputs& in,
                              std::vector<SequenceRecord>* sample,
                              std::vector<double>* symbol_match) {
  Rng rng(in.options.seed);
  SymbolScanResult p1 = ScanSymbolsAndSample(*in.db, *in.c,
                                             in.options.sample_size, &rng);
  *sample = p1.sample.records();
  *symbol_match = p1.symbol_match;
  return ClassifySamplePatterns(*sample, *in.c, *symbol_match, Metric::kMatch,
                                in.options);
}

// The naive oracle: the full-database match of up to 8 of the patterns
// Phase 3 had to resolve, by SequenceMatch per sequence, must put each on
// the same side of the threshold as the miner did.
void OracleCheck(const Inputs& in, const std::vector<Pattern>& ambiguous,
                 const MiningResult& r, Checks* checks, size_t* checked) {
  std::vector<Pattern> picked;
  const size_t n = ambiguous.size();
  const size_t k = std::min<size_t>(n, 8);
  for (size_t i = 0; i < k; ++i) picked.push_back(ambiguous[i * n / k]);
  std::vector<double> sums(picked.size(), 0.0);
  Status s = in.db->Scan([&](const SequenceRecord& rec) {
    for (size_t i = 0; i < picked.size(); ++i) {
      sums[i] += SequenceMatch(*in.c, picked[i], rec.symbols);
    }
  });
  std::vector<std::pair<bool, std::string>> results;
  results.push_back({s.ok(), "oracle scan failed: " + s.ToString()});
  const double total = static_cast<double>(in.db->NumSequences());
  const double tau = in.options.min_threshold;
  for (size_t i = 0; i < picked.size(); ++i) {
    const double naive = sums[i] / total;
    if (std::abs(naive - tau) < 1e-9) continue;  // too close to call
    const bool frequent = r.frequent.Contains(picked[i]);
    results.push_back({frequent == (naive >= tau),
                       "oracle: " + picked[i].ToString() + " naive match " +
                           JsonNum(naive) + " but miner said " +
                           (frequent ? "frequent" : "infrequent")});
  }
  *checked = picked.size();
  checks->Run(results);
}

// --- untraced: end-to-end timings and checks

int RunEndToEnd(Inputs* in, double budget_s) {
  Checks checks;
  std::vector<double> setup;
  for (int i = 0; i < 9; ++i) {
    Clock::time_point start = Clock::now();
    std::string error;
    if (!Open(in, &error)) {
      std::fprintf(stderr, "run: %s\n", error.c_str());
      return 1;
    }
    setup.push_back(SecondsSince(start));
  }

  // Untimed warm-up at both thread counts; the first result is the yard
  // stick for the scan and level counts of every later one.
  double seconds = 0.0;
  int64_t before = in->db->scan_count();
  MiningResult first = MineOnce(*in, 1, &seconds);
  checks.Run(ResultChecks(*in, first, first, in->db->scan_count() - before,
                          "warm-up t1"));
  before = in->db->scan_count();
  MiningResult warm4 = MineOnce(*in, 4, &seconds);
  checks.Run(ResultChecks(*in, warm4, first, in->db->scan_count() - before,
                          "warm-up t4"));

  // The budget goes to 1-thread runs only: they are the gated figures, and
  // a 4-thread run between them would load every vCPU and halve their
  // count. A few 4-thread runs follow for the ungated mine_s_t4 and the
  // t1 = t4 identity check.
  std::vector<double> t1, t4;
  Clock::time_point loop = Clock::now();
  while (t1.size() < 3 || SecondsSince(loop) < budget_s) {
    // Set-up samples spread over the run, so drift hits them like the rest.
    Clock::time_point open = Clock::now();
    std::string error;
    if (!Open(in, &error)) {
      std::fprintf(stderr, "run: %s\n", error.c_str());
      return 1;
    }
    setup.push_back(SecondsSince(open));
    before = in->db->scan_count();
    MiningResult r = MineOnce(*in, 1, &seconds);
    t1.push_back(seconds);
    checks.Run(ResultChecks(*in, r, first, in->db->scan_count() - before,
                            "t1"));
  }
  for (int i = 0; i < 3; ++i) {
    before = in->db->scan_count();
    MiningResult r = MineOnce(*in, 4, &seconds);
    t4.push_back(seconds);
    checks.Run(ResultChecks(*in, r, first, in->db->scan_count() - before,
                            "t4"));
  }

  // Replay Phases 1-2 (untimed): they must reproduce Mine's counts, and
  // give the ambiguous set the oracle samples from.
  std::vector<SequenceRecord> sample;
  std::vector<double> symbol_match;
  SampleClassification cls = Classify(*in, &sample, &symbol_match);
  checks.Run({{cls.status.ok(), "phase-2 replay failed"},
              {SameLevels(cls.level_stats, first.level_stats),
               "phase-2 replay level counts differ from Mine"},
              {cls.ambiguous.size() == first.ambiguous_after_sample,
               "phase-2 replay ambiguous count differs from Mine"}});
  size_t oracle_checked = 0;
  OracleCheck(*in, cls.ambiguous, first, &checks, &oracle_checked);

  std::printf(
      "{\"setup_s\": %s, \"mine_s\": %s, \"mine_s_t4\": %s, "
      "\"scans\": %lld, \"peak_rss_mb\": %s, \"ambiguous\": %zu, "
      "\"oracle_patterns\": %zu, %s}\n",
      JsonList(setup).c_str(), JsonList(t1).c_str(), JsonList(t4).c_str(),
      static_cast<long long>(first.scans),
      JsonNum(PeakRssMb()).c_str(), first.ambiguous_after_sample,
      oracle_checked, checks.Json().c_str());
  return 0;
}

// --- traced: per-layer timings from bench-owned spans

// Spans kept in memory and written as Chrome-trace JSON at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    int run = 0;
  };

  // RAII span around one call; nests under the innermost open span.
  class Scope {
   public:
    Scope(Tracer* t, std::string name) : t_(t) {
      const int parent = t_->open_.empty() ? -1 : t_->open_.back();
      index_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back({std::move(name), t_->NowUs(), 0, parent, t_->run_});
      t_->open_.push_back(index_);
    }
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Ends the span and returns its length in seconds.
    double Close() {
      if (closed_) return Seconds();
      closed_ = true;
      t_->spans_[index_].end_us = t_->NowUs();
      t_->open_.pop_back();
      return Seconds();
    }

   private:
    double Seconds() const {
      const Span& s = t_->spans_[index_];
      return (s.end_us - s.start_us) / 1e6;
    }
    Tracer* t_;
    int index_ = 0;
    bool closed_ = false;
  };

  void NextRun() { ++run_; }

  // Self time: duration minus the part covered by direct children.
  std::vector<double> SelfUs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_us - s.start_us;
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    std::vector<double> self = SelfUs();
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "") << "{\"name\": " << JsonStr(s.name)
          << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
          << ", \"ts\": " << JsonNum(s.start_us)
          << ", \"dur\": " << JsonNum(s.end_us - s.start_us)
          << ", \"args\": {\"span_id\": " << i << ", \"parent\": " << s.parent
          << ", \"run\": " << s.run << ", \"self_us\": " << JsonNum(self[i])
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

// Phase 2 replayed level by level with the public calls it makes, so
// counting and candidate generation are timed per level.
struct Replay {
  std::vector<LevelStats> levels;
  std::vector<Pattern> ambiguous;
  std::vector<std::vector<Pattern>> candidates;  // per level
  double count_s = 0;
  double candgen_s = 0;
  double cells = 0;  // sum of candidates x sample sequences
};

double Spread(const Pattern& p, const std::vector<double>& symbol_match) {
  double r = 1.0;
  for (size_t i = 0; i < p.length(); ++i) {
    if (IsWildcard(p[i])) continue;
    r = std::min(r, symbol_match[static_cast<size_t>(p[i])]);
  }
  return r;
}

Replay ReplayPhase2(const Inputs& in,
                    const std::vector<SequenceRecord>& sample,
                    const std::vector<double>& symbol_match, Tracer* tracer) {
  Replay out;
  const MinerOptions& o = in.options;
  const size_t n = sample.size();
  std::vector<SymbolId> symbols(in.c->size());
  for (size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<SymbolId>(i);
  }
  PatternSet keep;
  std::vector<SymbolId> keep_symbols;
  std::vector<Pattern> cands = Level1Candidates(symbols);
  for (size_t level = 1; level <= o.max_level && !cands.empty(); ++level) {
    Tracer::Scope count(tracer, "lattice.CountMatchesInRecords");
    std::vector<double> values = CountMatchesInRecords(sample, *in.c, cands);
    out.count_s += count.Close();
    out.cells += static_cast<double>(cands.size() * n);
    LevelStats stats{level, cands.size(), 0};
    std::vector<Pattern> keep_level;
    for (size_t i = 0; i < cands.size(); ++i) {
      double eps = n > 0 ? ChernoffEpsilon(o.use_restricted_spread
                                               ? Spread(cands[i], symbol_match)
                                               : 1.0,
                                           o.delta, n)
                         : 0.0;
      PatternLabel label = ClassifyMatch(values[i], o.min_threshold, eps);
      if (label == PatternLabel::kInfrequent) continue;
      keep.Insert(cands[i]);
      keep_level.push_back(cands[i]);
      if (level == 1) keep_symbols.push_back(cands[i][0]);
      if (label == PatternLabel::kFrequent) {
        ++stats.num_frequent;
      } else {
        out.ambiguous.push_back(cands[i]);
      }
    }
    out.levels.push_back(stats);
    out.candidates.push_back(std::move(cands));
    if (keep_level.empty()) break;
    Tracer::Scope gen(tracer, "lattice.NextLevelCandidates");
    cands = NextLevelCandidates(
        keep_level, keep_symbols, o.space,
        [&keep](const Pattern& sub) { return keep.Contains(sub); },
        o.max_candidates_per_level);
    out.candgen_s += gen.Close();
  }
  return out;
}

int RunLayers(Inputs* in, const std::string& trace_out) {
  Tracer tracer;
  Checks checks;
  std::map<std::string, double> m;
  constexpr int kReps = 5;
  std::string error;

  std::vector<double> open_s;
  for (int i = 0; i < kReps; ++i) {
    Tracer::Scope span(&tracer, "db.Open");
    if (!Open(in, &error)) {
      std::fprintf(stderr, "run: %s\n", error.c_str());
      return 1;
    }
    open_s.push_back(span.Close());
  }
  m["db.open_s"] = Median(open_s);

  // The first Mine of the process pays the cold costs. Each later round
  // times an untraced Mine, a traced one, and the Phase-1 and Phase-2
  // calls it makes, so drift hits every figure of a round alike.
  double cold = 0.0;
  int64_t before = in->db->scan_count();
  MiningResult first = MineOnce(*in, 1, &cold);
  checks.Run(ResultChecks(*in, first, first, in->db->scan_count() - before,
                          "layers first Mine"));
  std::vector<double> plain, traced, t4, p1_s, p2_s, p2_t4_s, p3_s;
  std::vector<SequenceRecord> sample;
  std::vector<double> symbol_match;
  SampleClassification cls;
  for (int i = 0; i < kReps; ++i) {
    tracer.NextRun();
    Tracer::Scope round(&tracer, "bench.round");
    // The untraced and the traced Mine take turns going first.
    for (int k = 0; k < 2; ++k) {
      const bool with_span = (i + k) % 2 == 1;
      std::optional<Tracer::Scope> span;
      if (with_span) span.emplace(&tracer, "mining.Mine");
      double s = 0.0;
      before = in->db->scan_count();
      MiningResult r = MineOnce(*in, 1, &s);
      if (span) s = span->Close();
      (with_span ? traced : plain).push_back(s);
      checks.Run(ResultChecks(*in, r, first, in->db->scan_count() - before,
                              with_span ? "layers traced Mine"
                                        : "layers Mine"));
    }
    double s = 0.0;
    before = in->db->scan_count();
    MiningResult r4 = MineOnce(*in, 4, &s);
    t4.push_back(s);
    checks.Run(ResultChecks(*in, r4, first, in->db->scan_count() - before,
                            "layers Mine t4"));

    Rng rng(in->options.seed);
    Tracer::Scope s1(&tracer, "mining.ScanSymbolsAndSample");
    SymbolScanResult p1 = ScanSymbolsAndSample(*in->db, *in->c,
                                               in->options.sample_size, &rng);
    p1_s.push_back(s1.Close());
    sample = p1.sample.records();
    symbol_match = p1.symbol_match;
    Tracer::Scope s2(&tracer, "mining.ClassifySamplePatterns");
    cls = ClassifySamplePatterns(sample, *in->c, symbol_match, Metric::kMatch,
                                 in->options);
    p2_s.push_back(s2.Close());
    MinerOptions o4 = in->options;
    o4.num_threads = 4;
    Tracer::Scope s3(&tracer, "mining.ClassifySamplePatterns.t4");
    SampleClassification c4 = ClassifySamplePatterns(
        sample, *in->c, symbol_match, Metric::kMatch, o4);
    p2_t4_s.push_back(s3.Close());
    p3_s.push_back(traced.back() - p1_s.back() - p2_s.back());
    checks.Run({{cls.status.ok() && c4.status.ok(), "phase 2 failed"},
                {SameLevels(cls.level_stats, first.level_stats),
                 "phase-2 level counts differ from Mine"},
                {c4.ambiguous == cls.ambiguous,
                 "phase-2 ambiguous set differs at 4 threads"}});
  }
  const double mine_plain = Median(plain);
  m["mining.mine_s"] = mine_plain;
  m["mining.cold_extra_s"] = cold - mine_plain;
  m["obs.trace_overhead_frac"] = Median(traced) / mine_plain - 1.0;
  m["mining.phase1_s"] = Median(p1_s);
  m["mining.phase2_s"] = Median(p2_s);
  m["mining.phase3_s"] = Median(p3_s);
  m["exec.phase2_speedup_t4"] = Median(p2_s) / Median(p2_t4_s);
  m["exec.mine_s_t4"] = Median(t4);

  // Level-by-level replay of Phase 2 through its public calls.
  tracer.NextRun();
  std::optional<Tracer::Scope> replay_span;
  replay_span.emplace(&tracer, "bench.replay_phase2");
  Replay replay = ReplayPhase2(*in, sample, symbol_match, &tracer);
  replay_span.reset();
  checks.Run({{SameLevels(replay.levels, first.level_stats),
               "replayed level counts differ from MiningResult::level_stats"},
              {replay.ambiguous == cls.ambiguous,
               "replayed ambiguous set differs from ClassifySamplePatterns"}});
  m["lattice.candgen_s"] = replay.candgen_s;
  double candidates = 0;
  for (const LevelStats& l : replay.levels) {
    candidates += static_cast<double>(l.num_candidates);
  }
  m["lattice.candidates"] = candidates;
  m["lattice.ambiguous"] = static_cast<double>(first.ambiguous_after_sample);

  // The replayed levels counted again under the active kernel and under
  // the scalar one, alternating, so drift hits both kernels alike.
  const std::string active = ActiveMatchKernelName();
  SimdLevel auto_level = SimdLevel::kScalar;
  ResolveSimdLevel("auto", DetectCpuFeatures(), &auto_level, nullptr);
  std::vector<double> auto_s{replay.count_s}, ratio;
  for (int i = 0; i < kReps; ++i) {
    tracer.NextRun();
    double pass_s[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const SimdLevel level = k == 0 ? auto_level : SimdLevel::kScalar;
      if (!SetActiveMatchKernel(level, &error)) {
        std::fprintf(stderr, "run: %s\n", error.c_str());
        return 1;
      }
      const std::string name =
          std::string("lattice.CountMatchesInRecords.") + SimdLevelName(level);
      for (const std::vector<Pattern>& cands : replay.candidates) {
        Tracer::Scope span(&tracer, name);
        CountMatchesInRecords(sample, *in->c, cands);
        pass_s[k] += span.Close();
      }
    }
    auto_s.push_back(pass_s[0]);
    ratio.push_back(pass_s[0] / pass_s[1]);
  }
  SetActiveMatchKernel(auto_level, &error);
  m["lattice.records_ns_per_cs"] = Median(auto_s) * 1e9 / replay.cells;
  m["core.simd_vs_scalar_x"] = Median(ratio);

  // Full-database counting of the Phase-2 ambiguous set.
  std::vector<double> db_t1, db_t4;
  if (!cls.ambiguous.empty()) {
    std::vector<double> v1, v4;
    for (int i = 0; i < kReps; ++i) {
      tracer.NextRun();
      Tracer::Scope s1(&tracer, "lattice.TryCountMatches");
      Status a = TryCountMatches(*in->db, *in->c, cls.ambiguous, &v1);
      db_t1.push_back(s1.Close());
      exec::ExecPolicy four;
      four.num_threads = 4;
      Tracer::Scope s4(&tracer, "lattice.TryCountMatches.t4");
      Status b = TryCountMatches(*in->db, *in->c, cls.ambiguous, &v4, four);
      db_t4.push_back(s4.Close());
      checks.Run({{a.ok() && b.ok(), "TryCountMatches failed"},
                  {v1 == v4, "TryCountMatches differs at 4 threads"}});
    }
    const double cells = static_cast<double>(cls.ambiguous.size()) *
                         static_cast<double>(in->db->NumSequences());
    m["lattice.db_ns_per_cs"] = Median(db_t1) * 1e9 / cells;
    m["exec.count_speedup_t4"] = Median(db_t1) / Median(db_t4);
  } else {
    m["lattice.db_ns_per_cs"] = 0;
    m["exec.count_speedup_t4"] = 0;
  }

  // Bare decode: one Scan with a no-op visitor.
  struct stat st {};
  stat(in->db_path.c_str(), &st);
  std::vector<double> decode_s;
  for (int i = 0; i < kReps; ++i) {
    tracer.NextRun();
    Tracer::Scope span(&tracer, "db.Scan");
    Status s = in->db->Scan([](const SequenceRecord&) {});
    decode_s.push_back(span.Close());
    checks.Run({{s.ok(), "decode scan failed"}});
  }
  m["db.decode_mb_per_s"] =
      static_cast<double>(st.st_size) / 1e6 / Median(decode_s);

  size_t oracle_checked = 0;
  OracleCheck(*in, cls.ambiguous, first, &checks, &oracle_checked);

  if (!trace_out.empty() && !tracer.Write(trace_out)) {
    checks.Run({{false, "cannot write " + trace_out}});
  }
  std::string metrics = "{";
  for (const auto& [name, value] : m) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonStr(name) + ": " + JsonNum(value);
  }
  std::printf(
      "{\"metrics\": %s}, \"kernel\": %s, \"scans\": %lld, "
      "\"peak_rss_mb\": %s, \"oracle_patterns\": %zu, %s}\n",
      metrics.c_str(), JsonStr(active).c_str(),
      static_cast<long long>(first.scans), JsonNum(PeakRssMb()).c_str(),
      oracle_checked, checks.Json().c_str());
  return 0;
}

int CmdRun(const Flags& flags) {
  Inputs in;
  in.db_path = flags.Str("db");
  in.matrix_path = flags.Str("matrix");
  const std::string ref_path = flags.Str("ref-csv");
  if (in.db_path.empty() || in.matrix_path.empty() || ref_path.empty()) {
    std::fprintf(stderr, "run: need --db, --matrix and --ref-csv\n");
    return 1;
  }
  std::ifstream ref(ref_path);
  if (!ref) {
    std::fprintf(stderr, "run: cannot read %s\n", ref_path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << ref.rdbuf();
  in.ref_csv = buf.str();

  // The same options `nmine_cli mine` derives from these flags.
  MinerOptions& o = in.options;
  o.min_threshold = flags.Num("threshold", 0.1);
  o.space.max_span = flags.Size("max-span", 10);
  o.max_level = flags.Size("max-level", o.space.max_span);
  o.sample_size = flags.Size("sample", 1000);
  o.delta = flags.Num("delta", 1e-4);
  o.seed = static_cast<uint64_t>(flags.Num("seed", 42));
  o.num_threads = 1;

  if (flags.Str("trace", "0") == "1") {
    return RunLayers(&in, flags.Str("trace-out"));
  }
  return RunEndToEnd(&in, flags.Num("seconds", 10));
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: nmbench gen|run [--flag value]...\n");
    return 1;
  }
  Flags flags(argc, argv, 2);
  if (!flags.bad().empty()) {
    std::fprintf(stderr, "nmbench: bad argument '%s'\n", flags.bad().c_str());
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "run") return CmdRun(flags);
  std::fprintf(stderr, "nmbench: unknown command '%s'\n", cmd.c_str());
  return 1;
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }

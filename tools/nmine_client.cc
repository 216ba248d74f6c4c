// nmine_client: command-line client for nmine_server's line-JSON job
// protocol.
//
// Usage:
//   nmine_client ping   --port P [--host H]
//   nmine_client submit --port P --db DB.nmsq [job flags] [--client C]
//       [--tag T] [--wait] [--csv]
//   nmine_client status --port P --id N
//   nmine_client wait   --port P --id N [--csv]
//   nmine_client wait   --port P --distributed [--csv]   (nmine_coordinator
//       peer: waits for the coordinator's single job, no --id)
//   nmine_client jobs   --port P
//
// Job flags (forwarded into the job spec; same names and defaults as
// `nmine_cli mine`): --algorithm --metric --matrix --uniform-alpha
// --threshold --max-span --max-gap --max-level --sample --delta --seed
// --threads --fault-plan --scan-retries --retry-backoff-ms --retry-budget
// --deadline --memory-budget
//
// Robustness flags:
//   --timeout S   total wall-clock budget for the whole operation,
//                 including reconnects (default 30). Lost connections and
//                 "server draining" responses are retried with jittered
//                 exponential backoff (the db/retry.h schedule) until the
//                 timeout; submits carry an idempotency --tag (generated
//                 from client+seed when not given), so a resubmit after a
//                 lost ack reattaches to the original job instead of
//                 running it twice.
//   --client C    logical client name: the server's fair scheduler
//                 round-robins between clients (default "cli-<pid>")
//
// Tracing flags (submit; server must run with --trace for span capture):
//   --trace-id H  attach this 128-bit trace id (32 hex digits, nonzero) to
//                 the job instead of minting one. The id rides the submit
//                 request, is echoed in the ack (printed as "trace_id: H"
//                 on stderr), and stamps every server-side span, log line,
//                 and flight event of the job.
//   --trace-out F with --wait (or the wait op): after the job reaches a
//                 terminal state, fetch its trace ({"op": "trace"}) and
//                 write the Chrome trace JSON to F (open in Perfetto)
//
// Exit status: 0 success; 1 usage/connection failure (timeout included);
// 2 the job failed with a typed runtime error; 3 the job was cancelled or
// hit its deadline.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "nmine/eval/table.h"
#include "nmine/net/line_transport.h"
#include "nmine/net/retry.h"
#include "nmine/obs/json_parse.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/trace_context.h"
#include "nmine/serve/job.h"

namespace nmine {
namespace {

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string key = arg.substr(2);
        size_t eq = key.find('=');
        if (eq != std::string::npos) {
          values_[key.substr(0, eq)] = key.substr(eq + 1);
        } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          values_[key] = argv[++i];
        } else {
          values_[key] = "";
        }
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  long long GetInt(const std::string& key, long long dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atoll(it->second.c_str());
  }
  double GetDouble(const std::string& key, double dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

using Clock = std::chrono::steady_clock;

/// Longest reply line accepted from the server. Trace replies carry a
/// whole Chrome trace as one string member, so this is far above any
/// request cap, but a peer streaming without a newline still cannot grow
/// the buffer without bound.
constexpr size_t kMaxReplyLine = 64u << 20;

/// One server connection with deadline-aware reconnect. Every failure path
/// (connect refused, connection reset, server draining) sleeps the shared
/// net/retry reconnect schedule and tries again until `deadline`.
class Connection {
 public:
  Connection(std::string host, uint16_t port, Clock::time_point deadline)
      : host_(std::move(host)), port_(port), deadline_(deadline) {}

  /// Sends `line` and reads one response line, reconnecting (and
  /// re-sending — ops are idempotent) on any transport failure.
  /// DeadlineExceeded when the deadline passes first; InvalidArgument or
  /// ResourceExhausted (reply over kMaxReplyLine) at once.
  Status RoundTrip(const std::string& line, std::string* response) {
    auto before_deadline = [this] {
      return Clock::now() < deadline_
                 ? Status::Ok()
                 : Status::DeadlineExceeded("--timeout exhausted");
    };
    while (true) {
      Status s = client_.connected() ? Status::Ok()
                                     : client_.Connect(host_, port_);
      if (s.ok()) s = client_.RoundTrip(line, response, before_deadline);
      if (!s.IsTransient()) return s;
      if (!BackoffOrGiveUp()) {
        return Status::DeadlineExceeded("--timeout exhausted");
      }
    }
  }

  /// Sleeps the next backoff step; false when it would cross the
  /// deadline (the caller then reports a timeout).
  bool BackoffOrGiveUp() {
    double ms = backoff_.NextBackoffMs();
    auto wake = Clock::now() + std::chrono::duration<double, std::milli>(ms);
    if (wake >= deadline_) return false;
    std::this_thread::sleep_until(wake);
    return true;
  }

 private:
  std::string host_;
  uint16_t port_;
  Clock::time_point deadline_;
  net::LineClient client_{kMaxReplyLine};
  net::ReconnectBackoff backoff_;
};

serve::JobSpec SpecFromFlags(const Flags& flags) {
  serve::JobSpec spec;
  spec.db_path = flags.Get("db", "");
  spec.algorithm = flags.Get("algorithm", spec.algorithm);
  spec.metric = flags.Get("metric", spec.metric);
  spec.matrix_path = flags.Get("matrix", spec.matrix_path);
  if (flags.Has("uniform-alpha")) {
    spec.uniform_alpha = flags.GetDouble("uniform-alpha", 0.1);
  }
  spec.threshold = flags.GetDouble("threshold", spec.threshold);
  spec.max_span = static_cast<uint64_t>(
      flags.GetInt("max-span", static_cast<long long>(spec.max_span)));
  spec.max_gap = static_cast<uint64_t>(
      flags.GetInt("max-gap", static_cast<long long>(spec.max_gap)));
  spec.max_level = static_cast<uint64_t>(
      flags.GetInt("max-level", static_cast<long long>(spec.max_level)));
  spec.sample_size = static_cast<uint64_t>(
      flags.GetInt("sample", static_cast<long long>(spec.sample_size)));
  spec.delta = flags.GetDouble("delta", spec.delta);
  spec.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<long long>(spec.seed)));
  spec.num_threads = static_cast<uint64_t>(
      flags.GetInt("threads", static_cast<long long>(spec.num_threads)));
  spec.fault_plan = flags.Get("fault-plan", "");
  spec.scan_retries = flags.GetInt("scan-retries", spec.scan_retries);
  spec.retry_backoff_ms =
      flags.GetDouble("retry-backoff-ms", spec.retry_backoff_ms);
  spec.retry_budget = flags.GetInt("retry-budget", spec.retry_budget);
  spec.deadline_s = flags.GetDouble("deadline", spec.deadline_s);
  spec.memory_budget = static_cast<uint64_t>(
      flags.GetInt("memory-budget", 0));
  return spec;
}

/// Fetches job `job_id`'s trace ({"op": "trace", "id": N}) and writes the
/// Chrome trace JSON to `path`. Best-effort: a failure warns on stderr but
/// never changes the exit code — the mining result already happened.
void SaveTrace(Connection& connection, uint64_t job_id,
               const std::string& path) {
  std::string request =
      "{\"op\": \"trace\", \"id\": " + std::to_string(job_id) + "}\n";
  std::string line;
  Status fetched = connection.RoundTrip(request, &line);
  if (!fetched.ok()) {
    std::fprintf(stderr, "nmine_client: --trace-out: trace fetch failed: %s\n",
                 fetched.ToString().c_str());
    return;
  }
  std::optional<obs::JsonValue> response = obs::ParseJson(line);
  if (!response.has_value() || !response->is_object()) {
    std::fprintf(stderr, "nmine_client: --trace-out: malformed response\n");
    return;
  }
  const obs::JsonValue* ok = response->Get("ok");
  if (ok == nullptr || ok->type != obs::JsonValue::Type::kBool ||
      !ok->bool_value) {
    const obs::JsonValue* message = response->Get("message");
    std::fprintf(stderr, "nmine_client: --trace-out: %s\n",
                 message != nullptr && message->is_string()
                     ? message->string_value.c_str()
                     : "trace op failed");
    return;
  }
  const obs::JsonValue* trace_json = response->Get("trace_json");
  if (trace_json == nullptr || !trace_json->is_string()) {
    std::fprintf(stderr,
                 "nmine_client: --trace-out: response carries no trace\n");
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "nmine_client: --trace-out: cannot open '%s'\n",
                 path.c_str());
    return;
  }
  std::fputs(trace_json->string_value.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "trace written to %s\n", path.c_str());
}

/// Prints a terminal job result the way `nmine_cli mine --csv` prints a
/// solo run (the drill diffs them), or the typed error (plus the job's
/// trace_id, so a failure can be chased through /tracez). Returns the
/// process exit code.
int ReportResult(const obs::JsonValue& response, bool csv,
                 const std::string& trace_id) {
  const obs::JsonValue* result = response.Get("result");
  if (result == nullptr) {
    std::fprintf(stderr, "nmine_client: response carries no result\n");
    return 1;
  }
  std::optional<serve::JobResult> job_result =
      serve::JobResult::FromJson(*result);
  if (!job_result.has_value()) {
    std::fprintf(stderr, "nmine_client: malformed result payload\n");
    return 1;
  }
  if (!job_result->ok) {
    std::fprintf(stderr, "nmine_client: job failed: %s: %s\n",
                 job_result->error_code.c_str(), job_result->message.c_str());
    if (!trace_id.empty()) {
      std::fprintf(stderr, "nmine_client: trace_id: %s\n", trace_id.c_str());
    }
    return job_result->error_code == "CANCELLED" ||
                   job_result->error_code == "DEADLINE_EXCEEDED"
               ? 3
               : 2;
  }
  Table table({"pattern", "value"});
  for (const auto& [pattern, value] : job_result->rows) {
    table.AddRow({pattern, value});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    std::printf("patterns: %zu   scans: %lld%s%s\n", job_result->rows.size(),
                static_cast<long long>(job_result->scans),
                job_result->truncated ? "   [TRUNCATED]" : "",
                job_result->resumed_from_checkpoint ? "   [RESUMED]" : "");
    table.Print(std::cout);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: nmine_client <ping|submit|status|wait|jobs> --port P "
               "[flags]\nsee the header of tools/nmine_client.cc\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string op = argv[1];
  if (op != "ping" && op != "submit" && op != "status" && op != "wait" &&
      op != "jobs") {
    return Usage();
  }
  Flags flags(argc, argv, 2);
  long long port = flags.GetInt("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "nmine_client: --port is required\n");
    return 1;
  }
  double timeout_s = flags.GetDouble("timeout", 30.0);
  if (timeout_s <= 0.0) {
    std::fprintf(stderr, "nmine_client: bad --timeout (want seconds > 0)\n");
    return 1;
  }
  Connection connection(flags.Get("host", "127.0.0.1"),
                        static_cast<uint16_t>(port),
                        Clock::now() + std::chrono::duration_cast<
                                           Clock::duration>(
                                           std::chrono::duration<double>(
                                               timeout_s)));

  std::string client = flags.Get(
      "client", "cli-" + std::to_string(static_cast<long long>(::getpid())));

  // The whole operation is one retry loop: any transport loss or typed
  // retryable response (UNAVAILABLE drain, RESOURCE_EXHAUSTED shed) backs
  // off and retries until --timeout. Submits are made idempotent with a
  // tag, so "retry the whole request" is always safe.
  std::string request;
  bool is_submit = op == "submit";
  uint64_t job_id = 0;
  std::string trace_id;
  if (is_submit) {
    serve::JobSpec spec = SpecFromFlags(flags);
    if (spec.db_path.empty()) {
      std::fprintf(stderr, "nmine_client: submit needs --db\n");
      return 1;
    }
    // The client mints the trace id (or forwards --trace-id) so the
    // request is traceable before the server ever sees it; the ack echoes
    // the binding id (the original job's on a deduped resubmit).
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    if (flags.Has("trace-id")) {
      if (!obs::ParseTraceId(flags.Get("trace-id", ""), &trace_hi,
                             &trace_lo)) {
        std::fprintf(stderr,
                     "nmine_client: bad --trace-id '%s' (want 32 hex "
                     "digits, nonzero)\n",
                     flags.Get("trace-id", "").c_str());
        return 1;
      }
    } else {
      obs::TraceContext minted = obs::MintTraceContext();
      trace_hi = minted.trace_hi;
      trace_lo = minted.trace_lo;
    }
    trace_id = obs::FormatTraceId(trace_hi, trace_lo);
    std::string tag = flags.Get(
        "tag", client + "-seed" + std::to_string(spec.seed) + "-" +
                   spec.algorithm);
    request = "{\"op\": \"submit\", \"client\": ";
    obs::AppendJsonString(client, &request);
    request.append(", \"tag\": ");
    obs::AppendJsonString(tag, &request);
    request.append(", \"trace_id\": ");
    obs::AppendJsonString(trace_id, &request);
    request.append(", \"spec\": ");
    spec.AppendJson(&request);
    request.append("}\n");
  } else if (op == "status" || op == "wait") {
    if (op == "wait" && flags.Has("distributed")) {
      // Distributed mode: the peer is an nmine_coordinator, which runs
      // exactly one job and answers an id-less wait with its result.
      request = "{\"op\": \"wait\"}\n";
    } else {
      if (!flags.Has("id")) {
        std::fprintf(stderr, "nmine_client: %s needs --id\n", op.c_str());
        return 1;
      }
      job_id = static_cast<uint64_t>(flags.GetInt("id", 0));
      request = "{\"op\": \"" + op +
                "\", \"id\": " + std::to_string(job_id) + "}\n";
    }
  } else {
    request = "{\"op\": \"" + op + "\"}\n";
  }

  while (true) {
    std::string response_line;
    Status sent = connection.RoundTrip(request, &response_line);
    if (sent.code() == StatusCode::kDeadlineExceeded) {
      std::fprintf(stderr, "nmine_client: --timeout of %.3gs exhausted\n",
                   timeout_s);
      return 1;
    }
    if (!sent.ok()) {
      std::fprintf(stderr, "nmine_client: %s\n", sent.ToString().c_str());
      return 1;
    }
    std::optional<obs::JsonValue> response = obs::ParseJson(response_line);
    if (!response.has_value() || !response->is_object()) {
      std::fprintf(stderr, "nmine_client: malformed response: %s\n",
                   response_line.c_str());
      return 1;
    }
    const obs::JsonValue* ok = response->Get("ok");
    if (ok == nullptr || ok->type != obs::JsonValue::Type::kBool) {
      std::fprintf(stderr, "nmine_client: malformed response: %s\n",
                   response_line.c_str());
      return 1;
    }

    if (!ok->bool_value) {
      const obs::JsonValue* code = response->Get("error");
      std::string error =
          code != nullptr && code->is_string() ? code->string_value : "";
      const obs::JsonValue* message = response->Get("message");
      if (error == "RESOURCE_EXHAUSTED" || error == "UNAVAILABLE") {
        // Shed or draining: honor retry_after_s when the server sent one,
        // otherwise the jittered schedule, and try again.
        double hint = response->GetNumber("retry_after_s", -1.0);
        if (hint > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(hint, timeout_s / 4.0)));
        }
        if (connection.BackoffOrGiveUp()) continue;
        std::fprintf(stderr, "nmine_client: --timeout exhausted while %s\n",
                     error == "RESOURCE_EXHAUSTED" ? "shed" : "draining");
        return 1;
      }
      std::fprintf(
          stderr, "nmine_client: %s: %s\n", error.c_str(),
          message != nullptr ? message->string_value.c_str() : "");
      return 1;
    }

    if (is_submit) {
      job_id = static_cast<uint64_t>(response->GetNumber("id", 0.0));
      const obs::JsonValue* echoed = response->Get("trace_id");
      if (echoed != nullptr && echoed->is_string()) {
        trace_id = echoed->string_value;
      }
      // To stderr: with --wait --csv, stdout carries only the result rows
      // so it can be diffed against `nmine_cli mine --csv` output.
      std::fprintf(stderr, "submitted job %llu%s\n",
                   static_cast<unsigned long long>(job_id),
                   response->Get("deduped") != nullptr ? " (deduped)" : "");
      std::fprintf(stderr, "trace_id: %s\n", trace_id.c_str());
      if (!flags.Has("wait")) return 0;
      // Switch the loop over to waiting on the job we just got.
      is_submit = false;
      op = "wait";
      request = "{\"op\": \"wait\", \"id\": " + std::to_string(job_id) +
                "}\n";
      continue;
    }
    if (op == "status" || op == "wait") {
      const obs::JsonValue* state = response->Get("state");
      const obs::JsonValue* bound = response->Get("trace_id");
      if (bound != nullptr && bound->is_string()) {
        trace_id = bound->string_value;
      }
      if (op == "status") {
        std::printf("job %llu: %s\n",
                    static_cast<unsigned long long>(job_id),
                    state != nullptr ? state->string_value.c_str() : "?");
        if (response->Get("result") == nullptr) return 0;
      }
      int code = ReportResult(*response, flags.Has("csv"), trace_id);
      if (flags.Has("trace-out") && response->Get("result") != nullptr) {
        SaveTrace(connection, job_id, flags.Get("trace-out", ""));
      }
      return code;
    }
    // ping / jobs
    std::printf("%s\n", response_line.c_str());
    return 0;
  }
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }

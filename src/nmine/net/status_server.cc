#include "nmine/net/status_server.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "nmine/obs/export/openmetrics.h"
#include "nmine/obs/flight_recorder.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "nmine/runtime/run_status.h"

namespace nmine {
namespace net {
namespace {

struct Response {
  int status = 200;
  const char* content_type = "application/json";
  std::string body;
};

/// Process-wide extra endpoints (RegisterEndpoint). Guarded by a leaked
/// mutex so registration from static initializers and dispatch from accept
/// workers never race; lookups copy the handler out under the lock.
std::mutex& ExtraEndpointsMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

using QueryHandler = std::function<std::string(const std::string&)>;

std::map<std::string, QueryHandler>& ExtraEndpoints() {
  static auto* map = new std::map<std::string, QueryHandler>();
  return *map;
}

/// Process-wide /healthz contributors (RegisterHealthSignal), same
/// locking discipline as the endpoint map.
using HealthSignal = std::function<std::string(std::vector<std::string>*)>;

std::map<std::string, HealthSignal>& HealthSignals() {
  static auto* map = new std::map<std::string, HealthSignal>();
  return *map;
}

/// Poll-over-poll baseline for the "scan retries climbing" health signal:
/// the previous /healthz poll's db.scan.retries value, or -1 before the
/// first poll (the first poll only records the baseline, it never
/// degrades).
std::atomic<int64_t> g_health_last_retries{-1};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

std::string FormatResponse(const Response& response) {
  char header[256];
  int n = std::snprintf(header, sizeof(header),
                        "HTTP/1.0 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n\r\n",
                        response.status, ReasonPhrase(response.status),
                        response.content_type, response.body.size());
  if (n <= 0) return std::string();
  std::string out(header, static_cast<size_t>(n));
  out.append(response.body);
  return out;
}

Response Dispatch(const std::string& method, const std::string& path,
                  const std::string& query) {
  Response r;
  if (method != "GET") {
    r.status = 405;
    r.body = "{\"error\": \"only GET is served\"}\n";
    return r;
  }
  if (path == "/healthz") {
    r.body = StatusServer::HealthzBody();
  } else if (path == "/statusz") {
    r.body = runtime::RunStatusBoard::Global().StatusJson();
  } else if (path == "/metricsz") {
    r.content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    r.body =
        obs::RenderOpenMetrics(obs::MetricsRegistry::Global().Snapshot());
  } else if (path == "/profilez") {
    r.body = obs::Profiler::Global().SnapshotJson();
    r.body.push_back('\n');
  } else if (path == "/flightz") {
    r.body = obs::FlightRecorder::Global().SnapshotJson();
  } else {
    QueryHandler handler;
    {
      std::lock_guard<std::mutex> lock(ExtraEndpointsMutex());
      auto it = ExtraEndpoints().find(path);
      if (it != ExtraEndpoints().end()) handler = it->second;
    }
    if (handler) {
      r.body = handler(query);
      return r;
    }
    r.status = 404;
    r.body =
        "{\"error\": \"unknown path\", \"endpoints\": [\"/healthz\", "
        "\"/statusz\", \"/metricsz\", \"/profilez\", \"/flightz\"]}\n";
  }
  return r;
}

}  // namespace

void StatusServer::RegisterEndpoint(const std::string& path,
                                    std::function<std::string()> handler) {
  std::lock_guard<std::mutex> lock(ExtraEndpointsMutex());
  ExtraEndpoints()[path] = [handler = std::move(handler)](
                               const std::string&) { return handler(); };
}

void StatusServer::RegisterQueryEndpoint(
    const std::string& path,
    std::function<std::string(const std::string& query)> handler) {
  std::lock_guard<std::mutex> lock(ExtraEndpointsMutex());
  ExtraEndpoints()[path] = std::move(handler);
}

void StatusServer::RegisterHealthSignal(
    const std::string& name,
    std::function<std::string(std::vector<std::string>* reasons)>
        contributor) {
  std::lock_guard<std::mutex> lock(ExtraEndpointsMutex());
  HealthSignals()[name] = std::move(contributor);
}

std::string StatusServer::HealthzBody() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  runtime::RunStatusBoard& board = runtime::RunStatusBoard::Global();

  // Degradation signals, most severe first. All are "keep serving but let
  // the load balancer route around me" conditions — liveness stays 200.
  std::vector<std::string> reasons;
  if (board.governor_degradation_steps() > 0) {
    reasons.push_back("governor_ladder_engaged");
  }
  const int64_t retries = reg.CounterValue("db.scan.retries");
  const int64_t last =
      g_health_last_retries.exchange(retries, std::memory_order_relaxed);
  if (last >= 0 && retries > last) {
    reasons.push_back("scan_retries_climbing");
  }
  if (reg.CounterValue("db.scan.retry_budget_exhausted") > 0) {
    reasons.push_back("retry_budget_exhausted");
  }

  // Registered contributors (e.g. the serving layer's queue staleness
  // signal) add their reasons and optional extra body members.
  std::vector<HealthSignal> signals;
  {
    std::lock_guard<std::mutex> lock(ExtraEndpointsMutex());
    signals.reserve(HealthSignals().size());
    for (const auto& [name, fn] : HealthSignals()) signals.push_back(fn);
  }
  std::vector<std::string> extra_members;
  for (const HealthSignal& signal : signals) {
    std::string member = signal(&reasons);
    if (!member.empty()) extra_members.push_back(std::move(member));
  }

  std::string body = "{\"status\": ";
  obs::AppendJsonString(reasons.empty() ? "ok" : "degraded", &body);
  body.append(", \"uptime_s\": ");
  obs::AppendJsonNumber(static_cast<double>(board.uptime_us()) / 1e6, &body);
  body.append(", \"reasons\": [");
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) body.append(", ");
    obs::AppendJsonString(reasons[i], &body);
  }
  body.append("]");
  for (const std::string& member : extra_members) {
    body.append(", ");
    body.append(member);
  }
  body.append("}\n");
  return body;
}

bool StatusServer::Start(const Options& options, std::string* error) {
  LineServer::Options line_options;
  line_options.port = options.port;
  line_options.bind_address = options.bind_address;
  // Only the request line is read; headers after it never matter.
  line_options.max_line = 2048;
  Response too_long;
  too_long.status = 400;
  too_long.body = "{\"error\": \"request line exceeds 2 KiB\"}\n";
  line_options.overflow_reply = FormatResponse(too_long);
  if (!lines_.Start(line_options,
                    [this](const std::string& line) {
                      return LineReply{HandleRequestLine(line), true};
                    },
                    error)) {
    return false;
  }
  NMINE_LOG(kInfo, "net")
      .Msg("status server listening")
      .Str("address", options.bind_address)
      .Num("port", static_cast<int64_t>(port()));
  return true;
}

void StatusServer::Stop() { lines_.Stop(); }

std::string StatusServer::HandleRequestLine(const std::string& line) {
  // "METHOD SP path['?'query] SP version".
  std::istringstream in(line);
  std::string method;
  std::string target;
  in >> method >> target;
  const size_t q = target.find('?');
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Global().GetCounter("net.statusz.requests")
      .Increment();
  return FormatResponse(Dispatch(
      method, target.substr(0, q),
      q == std::string::npos ? std::string() : target.substr(q + 1)));
}

}  // namespace net
}  // namespace nmine

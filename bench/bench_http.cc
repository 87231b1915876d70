// bench_http — multi-client load generator for the HTTP serving frontier.
// Starts an in-process HttpServer + QueryService over the demo corpus and
// measures it over real loopback sockets, writing BENCH_http.json:
//
//   * results_identical_http — strict correctness key: the JSON page, the
//     SSE data payloads and the gated top-k page all byte-decode to the
//     in-process ServeQuery results (gated by check_perf.py regardless of
//     --strict);
//   * http_json — whole-request wall latency of a blocking /query JSON
//     page (p50/p95/p99 over the wire, connect included);
//   * http_sse_ttfs — time to the first SSE event byte on the wire, the
//     serving-path headline: the first slot must not wait for the page;
//   * overload — open-loop arrival at 1x/4x/16x of the measured service
//     rate: goodput (completed pages/s) and shed counts (503s from the
//     admission queue / deadline) per load factor.
//
// The client side deliberately reuses the test suite's independent HTTP
// client (tests/http_test_util.h) rather than src/http's parser, so a
// shared parsing bug cannot hide a wire regression from the bench either.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "../tests/http_test_util.h"
#include "bench_util.h"
#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "http/http_server.h"
#include "http/json.h"
#include "http/query_endpoints.h"
#include "search/corpus.h"
#include "xml/serializer.h"

namespace {

using namespace extract;
using extract::testing::Get;
using extract::testing::HttpResponse;
using extract::testing::ParseSseBody;
using extract::testing::SseEvent;
using extract::testing::UrlEncode;

constexpr const char* kQuery = "texas apparel retailer";
constexpr size_t kAdmissionConcurrent = 4;
constexpr size_t kAdmissionQueue = 8;
constexpr size_t kPageSize = 10;
constexpr int kLatencyRuns = 40;
constexpr size_t kOverloadRequests = 48;

struct Frontend {
  XmlCorpus corpus;
  XSeekEngine engine;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<QueryService> service;
};

Frontend StartFrontend() {
  Frontend f;
  RetailerDatasetOptions retailer;
  // Heavy enough that one page costs real CPU (search + score + render
  // over ~100 candidates): on a small box this is what lets arrivals
  // outpace service at 4x/16x so the admission queue actually sheds.
  retailer.num_matching_retailers = 96;
  retailer.num_other_retailers = 16;
  auto add = [&f](const char* name, const std::string& xml) {
    Status status = f.corpus.AddDocument(name, xml);
    if (!status.ok()) {
      std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
      std::abort();
    }
  };
  add("retailer", GenerateRetailerXml(retailer));
  add("stores", GenerateStoresXml());
  add("movies", GenerateMoviesXml());
  f.corpus.EnableSnippetCache();

  HttpServerOptions options;
  options.admission.max_concurrent = kAdmissionConcurrent;
  options.admission.max_queue = kAdmissionQueue;
  f.server = std::make_unique<HttpServer>(options);
  f.service = std::make_unique<QueryService>(&f.corpus, &f.engine,
                                             QueryServiceOptions{});
  f.service->Register(f.server.get());
  Status status = f.server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
    std::abort();
  }
  return f;
}

std::string QueryTarget(const std::string& extra) {
  return "/query?q=" + UrlEncode(kQuery) + extra;
}

// --------------------------------------------------------------- identity

/// Structural equality of two parsed JSON values (objects compare ordered,
/// as both sides come from the same canonical serializer).
bool JsonEquals(const JsonValue& a, const JsonValue& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.bool_value == b.bool_value;
    case JsonValue::Type::kNumber:
      return a.number_value == b.number_value;
    case JsonValue::Type::kString:
      return a.string_value == b.string_value;
    case JsonValue::Type::kArray: {
      if (a.array_items.size() != b.array_items.size()) return false;
      for (size_t i = 0; i < a.array_items.size(); ++i) {
        if (!JsonEquals(a.array_items[i], b.array_items[i])) return false;
      }
      return true;
    }
    case JsonValue::Type::kObject: {
      if (a.object_items.size() != b.object_items.size()) return false;
      for (size_t i = 0; i < a.object_items.size(); ++i) {
        if (a.object_items[i].first != b.object_items[i].first) return false;
        if (!JsonEquals(a.object_items[i].second, b.object_items[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

/// In-process ServeQuery with the server's exact per-request options;
/// returns the canonical slot payloads (RenderSlotJson — the serializer
/// both HTTP renderings share), keyed by slot.
std::map<size_t, std::string> ServeInProcess(const Frontend& f,
                                             size_t page_size, bool gated) {
  QueryServiceOptions defaults;
  CorpusServingOptions serving = defaults.serving;
  serving.page_size = gated ? page_size : 0;
  auto served =
      f.corpus.ServeQuery(Query::Parse(kQuery), f.engine, defaults.ranking,
                          serving, defaults.snippet, StreamOptions{});
  std::map<size_t, std::string> slots;
  if (!served.ok()) {
    std::fprintf(stderr, "fatal: %s\n", served.status().ToString().c_str());
    std::abort();
  }
  while (auto event = served->stream().Next()) {
    slots[event->slot] = RenderSlotJson(*event, served->page());
  }
  return slots;
}

/// One decoded wire payload vs its in-process twin.
bool SlotMatches(const JsonValue& decoded,
                 const std::map<size_t, std::string>& expected) {
  if (!decoded.is_object()) return false;
  const JsonValue* slot = decoded.Find("slot");
  if (slot == nullptr) return false;
  auto it = expected.find(static_cast<size_t>(slot->number_value));
  if (it == expected.end()) return false;
  auto want = JsonValue::Parse(it->second);
  return want.ok() && JsonEquals(decoded, *want);
}

/// The strict identity check: JSON page, SSE payloads and the gated top-k
/// page must all decode to the in-process ServeQuery results.
bool HttpResultsIdentical(const Frontend& f) {
  uint16_t port = f.server->port();

  // Blocking JSON page.
  auto expected = ServeInProcess(f, kPageSize, /*gated=*/false);
  HttpResponse json_page = Get(port, QueryTarget("&gated=0"));
  if (!json_page.valid || json_page.status != 200) return false;
  auto body = JsonValue::Parse(json_page.body);
  if (!body.ok()) return false;
  const JsonValue* results = body->Find("results");
  if (results == nullptr || !results->is_array()) return false;
  if (results->array_items.size() != expected.size()) return false;
  for (const JsonValue& entry : results->array_items) {
    if (!SlotMatches(entry, expected)) return false;
  }

  // SSE rendering of the same stream: every data payload decodes to the
  // same canonical slot object.
  HttpResponse sse = Get(port, QueryTarget("&gated=0&mode=sse"));
  if (!sse.valid || sse.status != 200) return false;
  size_t snippet_events = 0;
  for (const SseEvent& event : ParseSseBody(sse.body)) {
    if (event.event == "done") continue;
    auto payload = JsonValue::Parse(event.data);
    if (!payload.ok() || !SlotMatches(*payload, expected)) return false;
    ++snippet_events;
  }
  if (snippet_events != expected.size()) return false;

  // Gated top-k serving (page_size slots released incrementally).
  auto gated_expected = ServeInProcess(f, 5, /*gated=*/true);
  HttpResponse gated = Get(port, QueryTarget("&gated=1&page_size=5"));
  if (!gated.valid || gated.status != 200) return false;
  auto gated_body = JsonValue::Parse(gated.body);
  if (!gated_body.ok()) return false;
  const JsonValue* gated_results = gated_body->Find("results");
  if (gated_results == nullptr || !gated_results->is_array()) return false;
  if (gated_results->array_items.size() != gated_expected.size()) return false;
  for (const JsonValue& entry : gated_results->array_items) {
    if (!SlotMatches(entry, gated_expected)) return false;
  }
  return true;
}

// ---------------------------------------------------------------- latency

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Whole-request wall time of one blocking JSON page over the wire.
bench::LatencyPercentiles MeasureJsonLatency(uint16_t port) {
  std::string target = QueryTarget("&page_size=10");
  for (int i = 0; i < 5; ++i) Get(port, target);  // warm cache + allocator
  std::vector<double> samples;
  for (int i = 0; i < kLatencyRuns; ++i) {
    auto start = std::chrono::steady_clock::now();
    HttpResponse response = Get(port, target);
    double us = MicrosSince(start);
    if (response.status == 200) samples.push_back(us);
  }
  return bench::PercentilesFromSamplesMicros(std::move(samples));
}

/// Time to the first SSE event byte: connect + send, then clock the first
/// recv() that carries a `data:` field; drains the rest so the server
/// finishes cleanly (no disconnect-cancel noise in its counters).
bench::LatencyPercentiles MeasureSseTtfs(uint16_t port) {
  std::string request = "GET " + QueryTarget("&mode=sse&page_size=10") +
                        " HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::vector<double> samples;
  for (int i = 0; i < kLatencyRuns; ++i) {
    int fd = testing::ConnectLoopback(port);
    if (fd < 0) continue;
    auto start = std::chrono::steady_clock::now();
    if (!testing::SendAll(fd, request)) {
      ::close(fd);
      continue;
    }
    std::string buffer;
    char chunk[4096];
    double first_event_us = 0.0;
    for (;;) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      if (first_event_us == 0.0 &&
          buffer.find("data:") != std::string::npos) {
        first_event_us = MicrosSince(start);
      }
    }
    ::close(fd);
    if (first_event_us > 0.0) samples.push_back(first_event_us);
  }
  return bench::PercentilesFromSamplesMicros(std::move(samples));
}

// --------------------------------------------------------------- overload

struct OverloadResult {
  size_t offered = 0;
  size_t completed = 0;  ///< 200s — pages actually served
  size_t shed = 0;       ///< 503s — queue full or deadline expired queued
  size_t errors = 0;     ///< anything else (connect failures, 4xx)
  double wall_us = 0.0;
  double goodput_per_s = 0.0;
};

/// The overload phases serve the FULL blocking page (gated=0: search,
/// score and render every match) rather than the gated top-k page: each
/// request must cost well over the server's per-connection setup time,
/// or arrivals reach the admission gate no faster than connections can be
/// accepted and the queue never fills, even at 16x.
std::string OverloadTarget() {
  return QueryTarget("&gated=0&deadline_ms=250");
}

/// Closed-loop p50 of the overload request — the service time the load
/// factors are relative to (1x arrivals match it; 4x/16x outpace it).
double MeasureOverloadServiceUs(uint16_t port) {
  std::string target = OverloadTarget();
  Get(port, target);  // warm
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    auto start = std::chrono::steady_clock::now();
    HttpResponse response = Get(port, target);
    if (response.status == 200) samples.push_back(MicrosSince(start));
  }
  return bench::PercentilesFromSamplesMicros(std::move(samples)).p50_us;
}

/// Open-loop arrival: every client thread is spawned BEFORE the clock
/// starts and sleeps until its scheduled arrival (i * interval), then
/// fires regardless of how many requests are still in flight — so at 4x
/// and 16x the arrival rate genuinely exceeds the service rate and the
/// admission queue, not the generator (or thread-spawn cost), decides who
/// sheds.
OverloadResult RunOverload(uint16_t port, double interval_us) {
  std::string target = OverloadTarget();
  OverloadResult result;
  result.offered = kOverloadRequests;
  std::vector<std::thread> clients;
  clients.reserve(kOverloadRequests);
  std::vector<int> statuses(kOverloadRequests, 0);
  // Spawning ~50 threads takes milliseconds on a small box; schedule the
  // first arrival far enough out that every client is parked by then.
  auto start = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(5 + kOverloadRequests / 2);
  for (size_t i = 0; i < kOverloadRequests; ++i) {
    auto arrival =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::micro>(
                        interval_us * static_cast<double>(i)));
    clients.emplace_back([port, &target, &statuses, i, arrival] {
      std::this_thread::sleep_until(arrival);
      HttpResponse response = Get(port, target);
      statuses[i] = response.valid ? response.status : -1;
    });
  }
  for (std::thread& t : clients) t.join();
  result.wall_us = MicrosSince(start);
  for (int status : statuses) {
    if (status == 200) {
      ++result.completed;
    } else if (status == 503) {
      ++result.shed;
    } else {
      ++result.errors;
    }
  }
  result.goodput_per_s =
      result.wall_us > 0.0
          ? static_cast<double>(result.completed) / (result.wall_us / 1e6)
          : 0.0;
  return result;
}

void WriteOverload(bench::JsonWriter& json, const char* key,
                   const OverloadResult& r) {
  json.Key(key).BeginObject();
  json.Key("offered").Value(r.offered);
  json.Key("completed").Value(r.completed);
  json.Key("shed").Value(r.shed);
  json.Key("errors").Value(r.errors);
  json.Key("wall_us").Value(r.wall_us);
  json.Key("goodput_per_s").Value(r.goodput_per_s);
  json.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "BENCH_http.json";
  const char* runner_class = std::getenv("EXTRACT_BENCH_RUNNER_CLASS");

  Frontend frontend = StartFrontend();
  uint16_t port = frontend.server->port();
  std::printf("serving on 127.0.0.1:%u\n", port);

  bool identical = HttpResultsIdentical(frontend);
  std::printf("results_identical_http: %d\n", identical ? 1 : 0);

  bench::LatencyPercentiles json_latency = MeasureJsonLatency(port);
  std::printf("http_json p50 %.0fus p99 %.0fus\n", json_latency.p50_us,
              json_latency.p99_us);
  bench::LatencyPercentiles ttfs = MeasureSseTtfs(port);
  std::printf("http_sse_ttfs p50 %.0fus p99 %.0fus\n", ttfs.p50_us,
              ttfs.p99_us);

  // Load factors are relative to the overload request's own measured
  // closed-loop service time: 1x arrivals match the sustainable rate,
  // 4x/16x genuinely overload it.
  double service_us = MeasureOverloadServiceUs(port);
  double base_interval_us = service_us > 0.0 ? service_us : 1000.0;
  OverloadResult x1 = RunOverload(port, base_interval_us);
  OverloadResult x4 = RunOverload(port, base_interval_us / 4.0);
  OverloadResult x16 = RunOverload(port, base_interval_us / 16.0);
  std::printf("overload goodput/s: 1x %.1f  4x %.1f  16x %.1f "
              "(shed %zu/%zu/%zu)\n",
              x1.goodput_per_s, x4.goodput_per_s, x16.goodput_per_s, x1.shed,
              x4.shed, x16.shed);

  HttpServerStats server_stats = frontend.server->Stats();
  AdmissionStats admission_stats = frontend.server->admission().Stats();

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value(std::string("http_serving"));
  json.Key("runner_class")
      .Value(std::string(runner_class != nullptr ? runner_class : ""));
  json.Key("hardware_threads")
      .Value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Key("corpus_documents").Value(frontend.corpus.size());
  json.Key("admission_concurrent").Value(kAdmissionConcurrent);
  json.Key("admission_queue").Value(kAdmissionQueue);
  json.Key("results_identical_http").Value(static_cast<size_t>(identical));
  json.Key("http_json").BeginObject();
  bench::WritePercentiles(json, json_latency);
  json.EndObject();
  json.Key("http_sse_ttfs").BeginObject();
  bench::WritePercentiles(json, ttfs);
  json.EndObject();
  json.Key("overload").BeginObject();
  json.Key("requests_per_phase").Value(kOverloadRequests);
  json.Key("base_interval_us").Value(base_interval_us);
  WriteOverload(json, "x1", x1);
  WriteOverload(json, "x4", x4);
  WriteOverload(json, "x16", x16);
  json.EndObject();
  json.Key("server").BeginObject();
  json.Key("connections_accepted").Value(server_stats.connections_accepted);
  json.Key("responses_2xx").Value(server_stats.responses_2xx);
  json.Key("responses_5xx").Value(server_stats.responses_5xx);
  json.Key("sse_streams_opened").Value(server_stats.sse_streams_opened);
  json.EndObject();
  json.Key("admission").BeginObject();
  json.Key("admitted").Value(admission_stats.admitted);
  json.Key("admitted_after_wait").Value(admission_stats.admitted_after_wait);
  json.Key("shed_queue_full").Value(admission_stats.shed_queue_full);
  json.Key("shed_deadline").Value(admission_stats.shed_deadline);
  json.EndObject();
  json.EndObject();

  frontend.server->Stop();

  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path.c_str());
    return identical ? 0 : 1;
  }
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return 1;
}

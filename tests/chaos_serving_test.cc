// Chaos suite: seeded fault schedules replayed against a live in-process
// HTTP server (ISSUE tentpole). Each episode arms a schedule derived from
// its seed, drives JSON serving, SSE serving and a corpus mutation, and
// asserts the blast radius stayed inside the failure domain:
//
//   * every HTTP response carries a precise mapped status (200/404/413/503)
//     — never a 500, never a hung connection, never a leaked kInternal;
//   * SSE streams drain to a terminal `done` frame with per-slot error
//     events, not torn framing;
//   * after disarming, admission and epoch counters quiesce to zero and a
//     replay of the reference query is byte-identical to the pre-chaos
//     response (fault residue must not change results, only availability).
//
// Schedules are deterministic functions of the seed, so a failing episode
// reproduces by seed alone.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "http/http_server.h"
#include "http/json.h"
#include "http/query_endpoints.h"
#include "http_test_util.h"
#include "search/corpus.h"
#include "search/corpus_snapshot.h"

namespace extract {
namespace {

using testing::Get;
using testing::HttpResponse;
using testing::ParseSseBody;
using testing::SseEvent;

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// Points whose injected Status propagates to an HTTP response or a mutator
// return — the codes are restricted to ones HttpStatusFor maps precisely,
// so any 500 in an episode is a genuine kInternal leak, not schedule noise.
const char* const kStatusPoints[] = {
    "db.load",        "xml.tokenizer.next", "xml.parser.build",
    "search.execute", "snippet.stage",      "cache.get",
    "cache.put",      "admission.acquire",  "epoch.publish",
};
const StatusCode kInjectableCodes[] = {
    StatusCode::kUnavailable,
    StatusCode::kDeadlineExceeded,
    StatusCode::kResourceExhausted,
    StatusCode::kNotFound,
};

std::vector<FaultRule> ScheduleForSeed(uint64_t seed) {
  uint64_t rng = seed * 2654435761u + 0x9e3779b97f4a7c15u;
  XorShift(&rng);
  const size_t rules = 1 + XorShift(&rng) % 3;
  std::vector<FaultRule> schedule;
  for (size_t r = 0; r < rules; ++r) {
    FaultRule rule;
    rule.point = kStatusPoints[XorShift(&rng) %
                               (sizeof(kStatusPoints) / sizeof(char*))];
    rule.code = kInjectableCodes[XorShift(&rng) % 4];
    rule.message = "chaos seed " + std::to_string(seed);
    if (XorShift(&rng) % 2 == 0) {
      rule.nth_hit = 1 + XorShift(&rng) % 5;
      rule.max_fires = 1 + XorShift(&rng) % 2;
    } else {
      rule.nth_hit = 0;
      rule.probability = 0.05 + 0.35 * ((XorShift(&rng) % 1000) / 1000.0);
      rule.seed = XorShift(&rng) | 1;
      rule.max_fires = 0;
    }
    schedule.push_back(std::move(rule));
  }
  return schedule;
}

class ChaosServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(corpus_.AddDocument("retailer", GenerateRetailerXml()).ok());
    ASSERT_TRUE(corpus_.AddDocument("stores", GenerateStoresXml()).ok());
    corpus_.EnableSnippetCache();
    HttpServerOptions options;
    options.admission.max_concurrent = 4;
    options.admission.max_queue = 8;
    server_ = std::make_unique<HttpServer>(options);
    service_ = std::make_unique<QueryService>(&corpus_, &engine_,
                                              QueryServiceOptions{});
    service_->Register(server_.get());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    FaultInjector::Instance().Disarm();  // never leak an armed schedule
    server_->Stop();
  }

  /// The results array of a JSON page — the byte-comparable slice (stats
  /// carry timings, which legitimately differ between runs).
  static std::string ResultsSlice(const std::string& body) {
    const size_t begin = body.find("\"results\":");
    const size_t end = body.find(",\"stats\":");
    if (begin == std::string::npos || end == std::string::npos) return "";
    return body.substr(begin, end - begin);
  }

  void ExpectQuiesced(const char* where) {
    const AdmissionStats admission = server_->admission().Stats();
    EXPECT_EQ(admission.active, 0u) << where;
    EXPECT_EQ(admission.queued, 0u) << where;
    EXPECT_EQ(corpus_.EpochStatsSnapshot().pinned_readers, 0u) << where;
  }

  XmlCorpus corpus_;
  XSeekEngine engine_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<QueryService> service_;
};

constexpr const char kJsonQuery[] =
    "/query?q=texas&page_size=3&mode=json&order=slot";
constexpr const char kSseQuery[] =
    "/query?q=texas&page_size=3&mode=sse&order=slot";

TEST_F(ChaosServingTest, SeededSchedulesNeverBreachTheFailureDomain) {
  // Reference responses, captured disarmed. Replays must match bytewise.
  const HttpResponse reference = Get(server_->port(), kJsonQuery);
  ASSERT_TRUE(reference.valid);
  ASSERT_EQ(reference.status, 200);
  const std::string reference_results = ResultsSlice(reference.body);
  ASSERT_FALSE(reference_results.empty());

  const int kEpisodes = 200;
  for (uint64_t seed = 0; seed < kEpisodes; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    {
      ScopedFaultInjection arm(ScheduleForSeed(seed));

      // --- JSON serving under faults.
      HttpResponse json = Get(server_->port(), kJsonQuery);
      ASSERT_TRUE(json.valid);
      ASSERT_TRUE(json.status == 200 || json.status == 404 ||
                  json.status == 413 || json.status == 503)
          << "unexpected HTTP status " << json.status << ": " << json.body;
      if (json.status == 200) {
        auto decoded = JsonValue::Parse(json.body);
        ASSERT_TRUE(decoded.ok()) << decoded.status() << "\n" << json.body;
        ASSERT_NE(decoded->Find("results"), nullptr);
        ASSERT_NE(decoded->Find("stats"), nullptr);
        // Per-slot errors must carry the injected (mapped) code, never the
        // kInternal catch-all.
        for (const JsonValue& slot : decoded->Find("results")->array_items) {
          if (const JsonValue* status = slot.Find("status")) {
            EXPECT_NE(status->string_value, "Internal") << json.body;
          }
        }
      } else {
        EXPECT_EQ(json.body.find("Internal"), std::string::npos) << json.body;
      }

      // --- SSE serving under faults: framing stays intact, the stream
      // drains to `done` even when every slot errors.
      HttpResponse sse = Get(server_->port(), kSseQuery);
      ASSERT_TRUE(sse.valid);
      ASSERT_TRUE(sse.status == 200 || sse.status == 404 ||
                  sse.status == 413 || sse.status == 503)
          << "unexpected HTTP status " << sse.status;
      if (sse.status == 200) {
        std::vector<SseEvent> events = ParseSseBody(sse.body);
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(events.back().event, "done");
        for (const SseEvent& event : events) {
          ASSERT_TRUE(event.event == "snippet" || event.event == "error" ||
                      event.event == "done")
              << event.event;
          auto payload = JsonValue::Parse(event.data);
          ASSERT_TRUE(payload.ok()) << event.data;
          if (event.event == "error") {
            EXPECT_NE(payload->Find("status"), nullptr);
            EXPECT_NE(payload->Find("status")->string_value, "Internal");
          }
        }
      }

      // --- Mutation under faults: either it lands or it failed precisely
      // with nothing published; never a half-added document.
      Status add = corpus_.AddDocument("scratch", "<s><t>chaos</t></s>");
      if (add.ok()) {
        Status remove = corpus_.RemoveDocument("scratch");
        if (!remove.ok()) {
          EXPECT_NE(remove.code(), StatusCode::kInternal) << remove;
        }
      } else {
        EXPECT_NE(add.code(), StatusCode::kInternal) << add;
        EXPECT_EQ(corpus_.Find("scratch"), nullptr);
      }
    }

    // Disarmed cleanup of any mutation the schedule interrupted.
    if (corpus_.Find("scratch") != nullptr) {
      ASSERT_TRUE(corpus_.RemoveDocument("scratch").ok());
    }
    ExpectQuiesced("after episode");

    // Periodic disarmed replay: chaos must not leave result-changing
    // residue (a poisoned cache entry, a half-applied mutation).
    if (seed % 20 == 19) {
      HttpResponse replay = Get(server_->port(), kJsonQuery);
      ASSERT_TRUE(replay.valid);
      ASSERT_EQ(replay.status, 200);
      EXPECT_EQ(ResultsSlice(replay.body), reference_results);
    }
  }

  // Final disarmed replay, byte-identical to the pre-chaos reference.
  HttpResponse replay = Get(server_->port(), kJsonQuery);
  ASSERT_TRUE(replay.valid);
  ASSERT_EQ(replay.status, 200);
  EXPECT_EQ(ResultsSlice(replay.body), reference_results);
  ExpectQuiesced("after all episodes");
}

// Socket-level chaos: accept/read/write faults sever connections. The
// client must always reach EOF (no hang), and the server must keep serving
// fresh connections afterwards.
TEST_F(ChaosServingTest, SocketFaultsSeverConnectionsWithoutWedgingServer) {
  const char* const kSocketPoints[] = {"http.accept", "http.read",
                                       "http.write"};
  for (uint64_t seed = 0; seed < 36; ++seed) {
    SCOPED_TRACE("socket seed " + std::to_string(seed));
    {
      FaultRule rule;
      rule.point = kSocketPoints[seed % 3];
      rule.nth_hit = 1 + (seed / 3) % 2;
      rule.max_fires = 1;
      ScopedFaultInjection arm({rule});
      // RecvToEof returning at all is the no-hang assertion; a severed
      // connection legitimately yields an empty or truncated response.
      HttpResponse response = Get(server_->port(), kJsonQuery);
      if (response.valid) {
        EXPECT_TRUE(response.status == 200 || response.status == 404 ||
                    response.status == 413 || response.status == 503)
            << response.status;
      }
    }
    HttpResponse after = Get(server_->port(), "/healthz");
    ASSERT_TRUE(after.valid) << "server wedged after socket fault";
    EXPECT_EQ(after.status, 200);
    ExpectQuiesced("after socket episode");
  }
}

// ------------------------------------------------ degraded wire contract

TEST_F(ChaosServingTest, NodeBudgetDegradesJsonPage) {
  HttpResponse response =
      Get(server_->port(),
          "/query?q=texas&page_size=3&mode=json&order=slot&max_nodes=1");
  ASSERT_TRUE(response.valid);
  ASSERT_EQ(response.status, 200);  // degraded, not failed
  auto decoded = JsonValue::Parse(response.body);
  ASSERT_TRUE(decoded.ok()) << response.body;
  const JsonValue* stats = decoded->Find("stats");
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(stats->Find("degraded"), nullptr);
  EXPECT_TRUE(stats->Find("degraded")->bool_value) << response.body;
  bool saw_exhausted = false;
  for (const JsonValue& slot : decoded->Find("results")->array_items) {
    if (const JsonValue* status = slot.Find("status")) {
      if (status->string_value == "ResourceExhausted") saw_exhausted = true;
    }
  }
  EXPECT_TRUE(saw_exhausted) << response.body;
}

TEST_F(ChaosServingTest, NodeBudgetDegradesSseStream) {
  HttpResponse response =
      Get(server_->port(),
          "/query?q=texas&page_size=3&mode=sse&order=slot&max_nodes=1");
  ASSERT_TRUE(response.valid);
  ASSERT_EQ(response.status, 200);
  std::vector<SseEvent> events = ParseSseBody(response.body);
  ASSERT_FALSE(events.empty());
  ASSERT_EQ(events.back().event, "done");
  auto done = JsonValue::Parse(events.back().data);
  ASSERT_TRUE(done.ok());
  ASSERT_NE(done->Find("degraded"), nullptr);
  EXPECT_TRUE(done->Find("degraded")->bool_value) << events.back().data;
  bool saw_error = false;
  for (const SseEvent& event : events) {
    if (event.event == "error") saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

TEST_F(ChaosServingTest, ByteBudgetTruncatesJsonPage) {
  HttpResponse full = Get(server_->port(), kJsonQuery);
  ASSERT_TRUE(full.valid);
  ASSERT_EQ(full.status, 200);

  HttpResponse capped = Get(
      server_->port(),
      "/query?q=texas&page_size=3&mode=json&order=slot&max_bytes=64");
  ASSERT_TRUE(capped.valid);
  ASSERT_EQ(capped.status, 200);
  auto decoded = JsonValue::Parse(capped.body);
  ASSERT_TRUE(decoded.ok()) << capped.body;  // truncated BUT well-formed
  EXPECT_TRUE(decoded->Find("stats")->Find("degraded")->bool_value);
  EXPECT_LT(decoded->Find("results")->array_items.size(),
            JsonValue::Parse(full.body)->Find("results")->array_items.size());
}

TEST_F(ChaosServingTest, ByteBudgetTruncatesSseStream) {
  HttpResponse capped = Get(
      server_->port(),
      "/query?q=texas&page_size=3&mode=sse&order=slot&max_bytes=64");
  ASSERT_TRUE(capped.valid);
  ASSERT_EQ(capped.status, 200);
  std::vector<SseEvent> events = ParseSseBody(capped.body);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().event, "done");
  auto done = JsonValue::Parse(events.back().data);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->Find("degraded")->bool_value) << events.back().data;
}

TEST_F(ChaosServingTest, BadBudgetParamsAreRejected) {
  EXPECT_EQ(Get(server_->port(), "/query?q=texas&max_nodes=0").status, 400);
  EXPECT_EQ(Get(server_->port(), "/query?q=texas&max_nodes=abc").status, 400);
  EXPECT_EQ(Get(server_->port(), "/query?q=texas&max_bytes=0").status, 400);
}

// ------------------------------------------------ snapshot-backed chaos

std::string JsonResultsSlice(const std::string& body) {
  const size_t begin = body.find("\"results\":");
  const size_t end = body.find(",\"stats\":");
  if (begin == std::string::npos || end == std::string::npos) return "";
  return body.substr(begin, end - begin);
}

// The snapshot failure domain: fault-in, checksum and open faults while a
// snapshot-backed corpus serves and the snapshot is re-attached (epoch
// swap) mid-traffic. Responses stay precisely mapped (never a 500), SSE
// drains, and disarmed replays are byte-identical — a failed fault-in or
// swap must leave no residue in served results.
TEST(ChaosSnapshotServingTest, SnapshotFaultsStayInsideFailureDomain) {
  const std::string path = ::testing::TempDir() + "/chaos_snapshot.xcsn";
  {
    auto writer = CorpusSnapshotWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE(
        writer->Add("retailer", *XmlDatabase::Load(GenerateRetailerXml()))
            .ok());
    ASSERT_TRUE(writer->Add("stores", *XmlDatabase::Load(GenerateStoresXml()))
                    .ok());
    ASSERT_TRUE(writer->Finish().ok());
  }

  XmlCorpus corpus;
  {
    auto snapshot = CorpusSnapshot::Open(path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
  }
  corpus.EnableSnippetCache();
  XSeekEngine engine;
  HttpServerOptions options;
  options.admission.max_concurrent = 4;
  options.admission.max_queue = 8;
  HttpServer server(options);
  QueryService service(&corpus, &engine, QueryServiceOptions{});
  service.Register(&server);
  ASSERT_TRUE(server.Start().ok());

  const HttpResponse reference = Get(server.port(), kJsonQuery);
  ASSERT_TRUE(reference.valid);
  ASSERT_EQ(reference.status, 200);
  const std::string reference_results = JsonResultsSlice(reference.body);
  ASSERT_FALSE(reference_results.empty());

  const char* const kSnapshotPoints[] = {"snapshot.fault", "snapshot.checksum",
                                         "snapshot.open", "epoch.publish"};
  for (uint64_t seed = 0; seed < 48; ++seed) {
    SCOPED_TRACE("snapshot chaos seed " + std::to_string(seed));
    {
      uint64_t rng = seed * 0x9e3779b97f4a7c15u + 1;
      std::vector<FaultRule> schedule;
      const size_t rules = 1 + XorShift(&rng) % 2;
      for (size_t r = 0; r < rules; ++r) {
        FaultRule rule;
        rule.point = kSnapshotPoints[XorShift(&rng) % 4];
        rule.code = XorShift(&rng) % 2 == 0 ? StatusCode::kUnavailable
                                            : StatusCode::kDeadlineExceeded;
        rule.message = "snapshot chaos seed " + std::to_string(seed);
        rule.nth_hit = 0;
        rule.probability = 0.10 + 0.40 * ((XorShift(&rng) % 1000) / 1000.0);
        rule.seed = XorShift(&rng) | 1;
        rule.max_fires = 0;
        schedule.push_back(std::move(rule));
      }
      ScopedFaultInjection arm(std::move(schedule));

      HttpResponse json = Get(server.port(), kJsonQuery);
      ASSERT_TRUE(json.valid);
      ASSERT_TRUE(json.status == 200 || json.status == 404 ||
                  json.status == 413 || json.status == 503)
          << "unexpected HTTP status " << json.status << ": " << json.body;
      EXPECT_EQ(json.body.find("Internal"), std::string::npos) << json.body;

      HttpResponse sse = Get(server.port(), kSseQuery);
      ASSERT_TRUE(sse.valid);
      if (sse.status == 200) {
        std::vector<SseEvent> events = ParseSseBody(sse.body);
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(events.back().event, "done");
      }

      // Epoch swap under chaos: re-open and re-attach the same file.
      // Either it lands (fresh residency, same contents) or it fails with
      // the injected/mapped Status — never kInternal, never half-attached.
      auto reopened = CorpusSnapshot::Open(path);
      if (reopened.ok()) {
        Status attach = corpus.AttachSnapshot(*reopened);
        if (!attach.ok()) {
          EXPECT_NE(attach.code(), StatusCode::kInternal) << attach;
        }
      } else {
        EXPECT_NE(reopened.status().code(), StatusCode::kInternal)
            << reopened.status();
      }
      EXPECT_EQ(corpus.size(), 2u);
    }

    if (seed % 12 == 11) {
      HttpResponse replay = Get(server.port(), kJsonQuery);
      ASSERT_TRUE(replay.valid);
      ASSERT_EQ(replay.status, 200);
      EXPECT_EQ(JsonResultsSlice(replay.body), reference_results);
    }
  }

  FaultInjector::Instance().Disarm();
  HttpResponse replay = Get(server.port(), kJsonQuery);
  ASSERT_TRUE(replay.valid);
  ASSERT_EQ(replay.status, 200);
  EXPECT_EQ(JsonResultsSlice(replay.body), reference_results);
  server.Stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace extract

// Byte-equivalence of the HTTP frontier: JSON and SSE responses must
// decode to exactly the snippets / error shapes ServeQuery produces
// in-process. The wire adds framing, never content — document names and
// renders compare as strings, scores compare with operator== (the JSON
// writer emits round-tripping doubles).

#include "http/http_server.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "http/json.h"
#include "http/query_endpoints.h"
#include "http_test_util.h"
#include "search/corpus.h"
#include "xml/serializer.h"

namespace extract {
namespace {

using testing::Get;
using testing::HttpResponse;
using testing::ParseSseBody;
using testing::SseEvent;
using testing::UrlEncode;

/// What one served slot must decode to, computed from an in-process
/// ServeQuery run with the same options the server uses.
struct ExpectedSlot {
  bool ok = false;
  std::string document;
  double score = 0.0;
  bool has_key = false;
  std::string key;
  size_t edges = 0;
  std::string xml;
  std::string tree;
  std::string coverage;
  std::string status;  ///< error slots: the code name
};

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(corpus_.AddDocument("retailer", GenerateRetailerXml()).ok());
    ASSERT_TRUE(corpus_.AddDocument("stores", GenerateStoresXml()).ok());
    ASSERT_TRUE(corpus_.AddDocument("movies", GenerateMoviesXml()).ok());
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

  void TearDown() override { server_->Stop(); }

  /// Serves `text` in-process with the server's exact options and returns
  /// the expected decode of every slot, keyed by slot id.
  std::map<size_t, ExpectedSlot> ServeInProcess(const std::string& text,
                                                size_t page_size,
                                                bool gated) {
    QueryServiceOptions defaults;
    CorpusServingOptions serving = defaults.serving;
    serving.page_size = gated ? page_size : 0;
    auto served =
        corpus_.ServeQuery(Query::Parse(text), engine_, defaults.ranking,
                           serving, defaults.snippet, StreamOptions{});
    EXPECT_TRUE(served.ok()) << served.status();
    std::map<size_t, ExpectedSlot> slots;
    if (!served.ok()) return slots;
    while (auto event = served->stream().Next()) {
      ExpectedSlot expected;
      expected.ok = event->snippet.ok();
      if (expected.ok) {
        const CorpusResult& hit = served->page()[event->slot];
        const Snippet& snippet = *event->snippet;
        expected.document = hit.document;
        expected.score = hit.score;
        expected.has_key = snippet.key.found();
        expected.key = snippet.key.value;
        expected.edges = snippet.edges();
        expected.xml = snippet.tree ? WriteXml(*snippet.tree) : "";
        expected.tree = RenderSnippet(snippet);
        expected.coverage = RenderCoverage(snippet);
      } else {
        expected.status =
            std::string(StatusCodeToString(event->snippet.status().code()));
      }
      slots[event->slot] = std::move(expected);
    }
    return slots;
  }

  /// Asserts one decoded slot object matches its in-process twin exactly.
  void ExpectSlotMatches(const JsonValue& decoded,
                         const std::map<size_t, ExpectedSlot>& expected) {
    ASSERT_TRUE(decoded.is_object());
    const JsonValue* slot = decoded.Find("slot");
    ASSERT_NE(slot, nullptr);
    auto it = expected.find(static_cast<size_t>(slot->number_value));
    ASSERT_NE(it, expected.end())
        << "slot " << slot->number_value << " not served in-process";
    const ExpectedSlot& want = it->second;
    if (want.ok) {
      ASSERT_NE(decoded.Find("document"), nullptr);
      EXPECT_EQ(decoded.Find("document")->string_value, want.document);
      // operator== on the doubles: to_chars + strtod round-trips exactly.
      ASSERT_NE(decoded.Find("score"), nullptr);
      EXPECT_EQ(decoded.Find("score")->number_value, want.score);
      ASSERT_NE(decoded.Find("key"), nullptr);
      if (want.has_key) {
        EXPECT_EQ(decoded.Find("key")->string_value, want.key);
      } else {
        EXPECT_TRUE(decoded.Find("key")->is_null());
      }
      ASSERT_NE(decoded.Find("edges"), nullptr);
      EXPECT_EQ(static_cast<size_t>(decoded.Find("edges")->number_value),
                want.edges);
      ASSERT_NE(decoded.Find("xml"), nullptr);
      EXPECT_EQ(decoded.Find("xml")->string_value, want.xml);
      ASSERT_NE(decoded.Find("tree"), nullptr);
      EXPECT_EQ(decoded.Find("tree")->string_value, want.tree);
      ASSERT_NE(decoded.Find("coverage"), nullptr);
      EXPECT_EQ(decoded.Find("coverage")->string_value, want.coverage);
      EXPECT_EQ(decoded.Find("status"), nullptr);
    } else {
      EXPECT_EQ(decoded.Find("document"), nullptr);
      EXPECT_EQ(decoded.Find("score"), nullptr);
      ASSERT_NE(decoded.Find("status"), nullptr);
      EXPECT_EQ(decoded.Find("status")->string_value, want.status);
      ASSERT_NE(decoded.Find("message"), nullptr);
    }
  }

  XmlCorpus corpus_;
  XSeekEngine engine_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(HttpServerTest, Healthz) {
  HttpResponse response = Get(server_->port(), "/healthz");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 200);
  auto decoded = JsonValue::Parse(response.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->Find("status")->string_value, "ok");
  EXPECT_EQ(decoded->Find("documents")->number_value, 3.0);
}

TEST_F(HttpServerTest, JsonPageMatchesInProcessServing) {
  const std::string text = "Texas, apparel, retailer";
  auto expected = ServeInProcess(text, 0, /*gated=*/false);
  ASSERT_FALSE(expected.empty());

  HttpResponse response = Get(
      server_->port(), "/query?q=" + UrlEncode(text) + "&gated=0&mode=json");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["content-type"], "application/json");

  auto decoded = JsonValue::Parse(response.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->Find("query")->string_value, text);
  const JsonValue* results = decoded->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_array());
  ASSERT_EQ(results->array_items.size(), expected.size());
  for (size_t i = 0; i < results->array_items.size(); ++i) {
    // JSON pages are slot-ordered.
    EXPECT_EQ(results->array_items[i].Find("slot")->number_value,
              static_cast<double>(i));
    ExpectSlotMatches(results->array_items[i], expected);
  }
  const JsonValue* stats = decoded->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->Find("stream")->Find("emitted")->number_value,
            static_cast<double>(expected.size()));
  EXPECT_EQ(stats->Find("stream")->Find("failed")->number_value, 0.0);
}

TEST_F(HttpServerTest, SsePageMatchesInProcessServing) {
  const std::string text = "Texas, apparel, retailer";
  auto expected = ServeInProcess(text, 0, /*gated=*/false);
  ASSERT_FALSE(expected.empty());

  HttpResponse response =
      Get(server_->port(),
          "/query?q=" + UrlEncode(text) + "&gated=0&mode=sse&order=slot");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["content-type"], "text/event-stream");
  EXPECT_EQ(response.headers["transfer-encoding"], "chunked");

  std::vector<SseEvent> events = ParseSseBody(response.body);
  ASSERT_EQ(events.size(), expected.size() + 1);  // slots + done
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_EQ(events[i].event, "snippet");
    EXPECT_EQ(events[i].id, std::to_string(i));  // order=slot
    auto decoded = JsonValue::Parse(events[i].data);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectSlotMatches(*decoded, expected);
  }
  EXPECT_EQ(events.back().event, "done");
  auto done = JsonValue::Parse(events.back().data);
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(done->Find("stream")->Find("succeeded")->number_value,
            static_cast<double>(expected.size()));
}

TEST_F(HttpServerTest, JsonAndSseRenderingsAgreePerSlot) {
  const std::string target = "/query?q=" + UrlEncode("texas store") +
                             "&gated=0";
  HttpResponse json = Get(server_->port(), target + "&mode=json");
  HttpResponse sse =
      Get(server_->port(), target + "&mode=sse&order=slot");
  ASSERT_TRUE(json.valid);
  ASSERT_TRUE(sse.valid);

  auto page = JsonValue::Parse(json.body);
  ASSERT_TRUE(page.ok());
  const JsonValue* results = page->Find("results");
  ASSERT_NE(results, nullptr);
  std::vector<SseEvent> events = ParseSseBody(sse.body);
  ASSERT_EQ(events.size(), results->array_items.size() + 1);
  // The two renderings share one serializer: the SSE data payload is the
  // byte-identical JSON page entry.
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    auto sse_decoded = JsonValue::Parse(events[i].data);
    ASSERT_TRUE(sse_decoded.ok());
    const JsonValue& entry = results->array_items[i];
    ASSERT_EQ(entry.object_items.size(), sse_decoded->object_items.size());
    for (size_t f = 0; f < entry.object_items.size(); ++f) {
      EXPECT_EQ(entry.object_items[f].first,
                sse_decoded->object_items[f].first);
      EXPECT_EQ(entry.object_items[f].second.type,
                sse_decoded->object_items[f].second.type);
      EXPECT_EQ(entry.object_items[f].second.string_value,
                sse_decoded->object_items[f].second.string_value);
      EXPECT_EQ(entry.object_items[f].second.number_value,
                sse_decoded->object_items[f].second.number_value);
    }
  }
}

TEST_F(HttpServerTest, GatedTopKPageMatchesInProcessServing) {
  const std::string text = "texas";
  const size_t k = 3;
  auto expected = ServeInProcess(text, k, /*gated=*/true);
  ASSERT_EQ(expected.size(), k);

  HttpResponse response =
      Get(server_->port(), "/query?q=" + UrlEncode(text) +
                               "&page_size=3&gated=1&mode=json");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 200);
  auto decoded = JsonValue::Parse(response.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const JsonValue* results = decoded->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array_items.size(), k);
  for (const JsonValue& entry : results->array_items) {
    ExpectSlotMatches(entry, expected);
  }
  // The incremental search's counters ride along.
  const JsonValue* search = decoded->Find("stats")->Find("search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->Find("results_released")->number_value,
            static_cast<double>(k));
  EXPECT_TRUE(search->Find("finished")->bool_value);

  // The gated page is byte-identical to the blocking page's first k slots.
  auto blocking = ServeInProcess(text, 0, /*gated=*/false);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(expected[i].document, blocking[i].document);
    EXPECT_EQ(expected[i].score, blocking[i].score);
    EXPECT_EQ(expected[i].xml, blocking[i].xml);
  }
}

TEST_F(HttpServerTest, WarmCacheServesIdenticalPage) {
  const std::string target =
      "/query?q=" + UrlEncode("Texas, apparel") + "&gated=0&mode=json";
  HttpResponse cold = Get(server_->port(), target);
  ASSERT_TRUE(cold.valid);
  ASSERT_EQ(cold.status, 200);
  HttpResponse warm = Get(server_->port(), target);
  ASSERT_TRUE(warm.valid);
  ASSERT_EQ(warm.status, 200);

  // Timing stats differ between runs; the results array must not. Compare
  // the raw bytes of the "results" member (both runs serialize through the
  // same writer, so equal content means equal bytes).
  auto results_bytes = [](const std::string& body) {
    size_t begin = body.find("\"results\":");
    size_t end = body.find(",\"stats\":");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return body.substr(begin, end - begin);
  };
  EXPECT_EQ(results_bytes(cold.body), results_bytes(warm.body));

  // And the cache actually served: its hit counter moved.
  EXPECT_GT(corpus_.snippet_cache()->Stats().hits, 0u);
}

TEST_F(HttpServerTest, ErrorResponsesAreWellFormedJson) {
  struct Case {
    std::string target;
    int status;
    std::string code;
  };
  const Case cases[] = {
      {"/query", 400, "InvalidArgument"},                  // missing q
      {"/query?q=", 400, "InvalidArgument"},               // empty q
      {"/query?q=%2C%2C", 400, "InvalidArgument"},         // no keywords
      {"/query?q=texas&page_size=0", 400, "InvalidArgument"},
      {"/query?q=texas&page_size=abc", 400, "InvalidArgument"},
      {"/query?q=texas&deadline_ms=abc", 400, "InvalidArgument"},
      {"/query?q=texas&mode=xml", 400, "InvalidArgument"},
      {"/query?q=texas&order=rank", 400, "InvalidArgument"},
      {"/query?q=texas&gated=2", 400, "InvalidArgument"},
      {"/nope", 404, "NotFound"},
  };
  for (const Case& c : cases) {
    HttpResponse response = Get(server_->port(), c.target);
    ASSERT_TRUE(response.valid) << c.target;
    EXPECT_EQ(response.status, c.status) << c.target;
    auto decoded = JsonValue::Parse(response.body);
    ASSERT_TRUE(decoded.ok()) << c.target << ": " << decoded.status();
    EXPECT_EQ(decoded->Find("status")->string_value, c.code) << c.target;
    ASSERT_NE(decoded->Find("message"), nullptr) << c.target;
  }
}

TEST_F(HttpServerTest, MethodNotAllowed) {
  HttpResponse response = testing::Fetch(
      server_->port(), "POST /query HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 405);
}

TEST_F(HttpServerTest, HeadSuppressesBody) {
  HttpResponse response = testing::Fetch(
      server_->port(), "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.body.empty());
  EXPECT_NE(response.headers["content-length"], "0");
}

TEST_F(HttpServerTest, StatsEndpointReportsServingCounters) {
  // Serve twice (one cold, one warm) so every counter family has moved.
  const std::string target =
      "/query?q=" + UrlEncode("texas") + "&page_size=2&mode=json";
  ASSERT_EQ(Get(server_->port(), target).status, 200);
  ASSERT_EQ(Get(server_->port(), target).status, 200);

  HttpResponse response = Get(server_->port(), "/stats");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 200);
  auto decoded = JsonValue::Parse(response.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  const JsonValue* server = decoded->Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->Find("requests_parsed")->number_value, 2.0);
  EXPECT_GE(server->Find("responses_2xx")->number_value, 2.0);

  const JsonValue* admission = decoded->Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_GE(admission->Find("admitted")->number_value, 2.0);
  EXPECT_EQ(admission->Find("active")->number_value, 0.0);

  // Stage + stream + top-k search counters from the registry.
  const JsonValue* stages = decoded->Find("stages");
  ASSERT_NE(stages, nullptr);
  bool saw_search = false, saw_stream = false;
  for (const JsonValue& stage : stages->array_items) {
    const std::string& name = stage.Find("name")->string_value;
    if (name == "search") saw_search = true;
    if (name == "stream.emitted") saw_stream = true;
  }
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_stream);

  const JsonValue* cache = decoded->Find("cache");
  ASSERT_NE(cache, nullptr);
  ASSERT_TRUE(cache->is_object());
  EXPECT_GT(cache->Find("hits")->number_value, 0.0);
}

TEST_F(HttpServerTest, DeadlineSlotsDecodeAsDeadlineExceeded) {
  // Burn the whole budget before serving: admission admits instantly (no
  // load), but the remaining stream deadline is ~0, so slots that have not
  // started emit kDeadlineExceeded — delivered as well-formed error events,
  // not a broken response.
  HttpResponse response =
      Get(server_->port(),
          "/query?q=" + UrlEncode("texas") + "&deadline_ms=1&mode=json");
  ASSERT_TRUE(response.valid);
  EXPECT_EQ(response.status, 200);
  auto decoded = JsonValue::Parse(response.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  for (const JsonValue& entry : decoded->Find("results")->array_items) {
    const JsonValue* status = entry.Find("status");
    if (status != nullptr) {
      EXPECT_EQ(status->string_value, "DeadlineExceeded");
      ASSERT_NE(entry.Find("message"), nullptr);
      EXPECT_EQ(entry.Find("document"), nullptr);
    } else {
      ASSERT_NE(entry.Find("document"), nullptr);  // fast slot: completed
    }
  }
}

}  // namespace
}  // namespace extract

// The query surface of the HTTP frontier: binds XmlCorpus::ServeQuery to
// routes on an HttpServer.
//
//   GET /query?q=...   — serve one query. Two renderings of the SAME
//     stream: `mode=json` (default) collects every slot event and answers
//     with one JSON page in slot order; `mode=sse` (or Accept:
//     text/event-stream) streams one SSE event per page slot as it
//     completes — exactly the SnippetStream event model, including error
//     slots (kDeadlineExceeded, kCancelled, ...) — then a final `done`
//     event with the stream + search stats. Parameters:
//       q            keyword query (required, non-empty)
//       page_size    page slots (default/max in QueryServiceOptions)
//       deadline_ms  per-request deadline, admission wait included
//       order        sse only: completion (default) | slot
//       gated        1 (default) = incremental top-k serving
//                    (CorpusServingOptions::page_size = page_size);
//                    0 = blocking search of the whole corpus
//   GET /stats   — server + admission + serving-stage + cache counters,
//     plus the corpus epoch block (epoch, pinned readers, retired views).
//   GET /healthz — liveness ("ok") with the corpus document count.
//
// Both renderings share one slot serializer (RenderSlotJson), so a JSON
// page entry and an SSE `data:` payload for the same slot are byte
// identical — the equivalence suite (tests/http_server_test.cc) decodes
// either and compares against an in-process ServeQuery run.
//
// Admission: every /query acquires a slot from the server's
// AdmissionController before touching the corpus, waiting at most until
// the request deadline; sheds answer 503 (queue full / kUnavailable) with
// Retry-After, or a kDeadlineExceeded body when the deadline expired
// queued. The remaining deadline after admission becomes
// StreamOptions::deadline, so a request that burned its budget waiting
// emits deadline events instead of computing. A client that disconnects
// mid-SSE cancels the underlying stream (freeing pool slots) and releases
// its admission ticket.
//
// Live mutation: /query pins the corpus epoch right after admission
// (released just before its admission slot is handed on) and serves
// against that pinned view — so a request admitted at epoch E searches,
// ranks and snippets epoch E even while AddDatabase/RemoveDocument publish
// newer epochs underneath it.

#ifndef EXTRACT_HTTP_QUERY_ENDPOINTS_H_
#define EXTRACT_HTTP_QUERY_ENDPOINTS_H_

#include <chrono>
#include <cstddef>
#include <string>

#include "http/http_server.h"
#include "search/corpus.h"

namespace extract {

struct QueryServiceOptions {
  RankingOptions ranking;
  SnippetOptions snippet;
  /// Only `serving.budget` is read: it is each request's default budget
  /// (the request's max_nodes / max_bytes override it). The request's
  /// `page_size`/`gated` parameters decide the serving mode; every other
  /// field here is ignored.
  CorpusServingOptions serving;
  /// Stream producer width (StreamOptions::num_threads).
  size_t stream_threads = 0;
  size_t default_page_size = 10;
  size_t max_page_size = 100;
  /// Deadline applied when the request carries no `deadline_ms`; requests
  /// are clamped to `max_deadline`. Zero default = no implicit deadline.
  std::chrono::milliseconds default_deadline{0};
  std::chrono::milliseconds max_deadline{30000};
};

/// \brief Serializes one slot event as the canonical JSON object used by
/// BOTH renderings (one JSON page entry == one SSE data payload).
///
/// OK events carry the result and its snippet renders:
///   {"slot": i, "document": ..., "score": ..., "key": <value or null>,
///    "edges": ..., "xml": WriteXml(tree), "tree": RenderSnippet,
///    "coverage": RenderCoverage}
/// Error events carry only {"slot": i, "status": <code name>,
/// "message": ...} — under page-gated serving an errored slot may have no
/// page entry at all, so error payloads never touch the page.
std::string RenderSlotJson(const SnippetEvent& event,
                           const std::vector<CorpusResult>& page);

/// \brief Owns the route handlers. Borrows corpus, engine and server; all
/// must outlive the service. Call Register exactly once, before Start.
class QueryService {
 public:
  QueryService(const XmlCorpus* corpus, const SearchEngine* engine,
               const QueryServiceOptions& options);

  /// Registers /query, /stats and /healthz on `server`.
  void Register(HttpServer* server);

 private:
  void HandleQuery(const HttpRequest& request, ResponseWriter& writer);
  void HandleStats(const HttpRequest& request, ResponseWriter& writer);
  void HandleHealth(const HttpRequest& request, ResponseWriter& writer);

  const XmlCorpus* corpus_;
  const SearchEngine* engine_;
  QueryServiceOptions options_;
  HttpServer* server_ = nullptr;  ///< set by Register
};

}  // namespace extract

#endif  // EXTRACT_HTTP_QUERY_ENDPOINTS_H_

#include "http/query_endpoints.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/string_util.h"
#include "http/json.h"
#include "xml/serializer.h"

namespace extract {

namespace {

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kResourceExhausted:
      return 413;
    case StatusCode::kUnimplemented:
      return 501;
    default:
      return 500;
  }
}

void AppendStreamStatsJson(const StreamStats& stats, JsonBuilder& json) {
  json.BeginObject()
      .Key("total_slots")
      .Number(stats.total_slots)
      .Key("emitted")
      .Number(stats.emitted)
      .Key("succeeded")
      .Number(stats.succeeded)
      .Key("failed")
      .Number(stats.failed)
      .Key("cancelled")
      .Number(stats.cancelled)
      .Key("deadline_expired")
      .Number(stats.deadline_expired)
      .Key("first_snippet_ns")
      .Number(static_cast<size_t>(stats.first_snippet_ns))
      .EndObject();
}

void AppendSearchStatsJson(const TopKSearchStats& stats, JsonBuilder& json) {
  json.BeginObject()
      .Key("candidates_total")
      .Number(stats.candidates_total)
      .Key("candidates_scored")
      .Number(stats.candidates_scored)
      .Key("results_released")
      .Number(stats.results_released)
      .Key("producers")
      .Number(stats.producers)
      .Key("pull_rounds")
      .Number(stats.pull_rounds)
      .Key("first_result_ns")
      .Number(static_cast<size_t>(stats.first_result_ns))
      .Key("finished")
      .Bool(stats.finished)
      .Key("early_terminated")
      .Bool(stats.early_terminated)
      .EndObject();
}

/// The trailing stats object of both renderings (the JSON page's "stats"
/// member and the SSE `done` event payload). `degraded` is true when any
/// QueryBudget cap (node visits stream-side, output bytes here) truncated
/// the page — the response is well-formed but partial. Shared by both
/// renderings, so the degraded contract stays wire-equivalent.
std::string RenderFinalStatsJson(const CorpusQueryStream& stream,
                                 bool degraded) {
  JsonBuilder json;
  json.BeginObject().Key("degraded").Bool(degraded).Key("stream");
  AppendStreamStatsJson(stream.Stats(), json);
  json.Key("search");
  AppendSearchStatsJson(stream.SearchStats(), json);
  json.EndObject();
  return std::move(json).str();
}

struct SseFrame {
  std::string text;

  SseFrame& Event(std::string_view name) {
    text.append("event: ").append(name).append("\n");
    return *this;
  }
  SseFrame& Id(size_t id) {
    text.append("id: ").append(std::to_string(id)).append("\n");
    return *this;
  }
  /// `payload` must be newline-free (compact JSON always is).
  SseFrame& Data(std::string_view payload) {
    text.append("data: ").append(payload).append("\n");
    return *this;
  }
  std::string Finish() && {
    text.append("\n");
    return std::move(text);
  }
};

}  // namespace

std::string RenderSlotJson(const SnippetEvent& event,
                           const std::vector<CorpusResult>& page) {
  JsonBuilder json;
  json.BeginObject().Key("slot").Number(event.slot);
  if (event.snippet.ok()) {
    // An OK slot's page entry is published before its event is delivered
    // (blocking pages are complete from the start; gated pages publish
    // entry i when slot i is released).
    const CorpusResult& hit = page[event.slot];
    const Snippet& snippet = *event.snippet;
    json.Key("document").String(hit.document);
    json.Key("score").Number(hit.score);
    json.Key("key");
    if (snippet.key.found()) {
      json.String(snippet.key.value);
    } else {
      json.Null();
    }
    json.Key("edges").Number(snippet.edges());
    json.Key("xml").String(snippet.tree != nullptr ? WriteXml(*snippet.tree)
                                                   : std::string());
    json.Key("tree").String(RenderSnippet(snippet));
    json.Key("coverage").String(RenderCoverage(snippet));
  } else {
    // Errored slots may have no page entry at all (a mid-search failure
    // fails slots the search never released), so the payload carries only
    // the slot's status — never document or score.
    json.Key("status").String(StatusCodeToString(event.snippet.status().code()));
    json.Key("message").String(event.snippet.status().message());
  }
  json.EndObject();
  return std::move(json).str();
}

QueryService::QueryService(const XmlCorpus* corpus, const SearchEngine* engine,
                           const QueryServiceOptions& options)
    : corpus_(corpus), engine_(engine), options_(options) {}

void QueryService::Register(HttpServer* server) {
  server_ = server;
  server->Handle("/query", [this](const HttpRequest& request,
                                  ResponseWriter& writer) {
    HandleQuery(request, writer);
  });
  server->Handle("/stats", [this](const HttpRequest& request,
                                  ResponseWriter& writer) {
    HandleStats(request, writer);
  });
  server->Handle("/healthz", [this](const HttpRequest& request,
                                    ResponseWriter& writer) {
    HandleHealth(request, writer);
  });
}

void QueryService::HandleQuery(const HttpRequest& request,
                               ResponseWriter& writer) {
  const std::string* q = request.FindParam("q");
  if (q == nullptr || q->empty()) {
    writer.SendError(400, Status::InvalidArgument(
                              "missing required parameter 'q'"));
    return;
  }
  Query query = Query::Parse(*q);
  if (query.keywords.empty()) {
    writer.SendError(400, Status::InvalidArgument(
                              "query contains no keywords: '" + *q + "'"));
    return;
  }

  size_t page_size = options_.default_page_size;
  if (const std::string* raw = request.FindParam("page_size")) {
    auto parsed = ParseDecimalSize(*raw);
    if (!parsed.has_value() || *parsed == 0) {
      writer.SendError(400, Status::InvalidArgument(
                                "bad page_size: '" + *raw + "'"));
      return;
    }
    page_size = std::min(*parsed, options_.max_page_size);
  }

  // Request deadline: explicit deadline_ms, else the configured default
  // (0 = none). The budget covers admission waiting AND serving.
  std::chrono::milliseconds deadline_ms = options_.default_deadline;
  if (const std::string* raw = request.FindParam("deadline_ms")) {
    auto parsed = ParseDecimalSize(*raw);
    if (!parsed.has_value() || *parsed == 0) {
      writer.SendError(400, Status::InvalidArgument(
                                "bad deadline_ms: '" + *raw + "'"));
      return;
    }
    deadline_ms = std::min(std::chrono::milliseconds(*parsed),
                           options_.max_deadline);
  }
  const auto deadline =
      deadline_ms.count() > 0
          ? std::chrono::steady_clock::now() + deadline_ms
          : std::chrono::steady_clock::time_point::max();

  bool gated = true;
  if (const std::string* raw = request.FindParam("gated")) {
    if (*raw != "0" && *raw != "1") {
      writer.SendError(
          400, Status::InvalidArgument("bad gated (want 0|1): '" + *raw + "'"));
      return;
    }
    gated = *raw == "1";
  }

  StreamOptions stream_options;
  stream_options.num_threads = options_.stream_threads;
  stream_options.order = StreamOrder::kCompletion;
  if (const std::string* raw = request.FindParam("order")) {
    if (*raw == "slot") {
      stream_options.order = StreamOrder::kSlot;
    } else if (*raw != "completion") {
      writer.SendError(400, Status::InvalidArgument(
                                "bad order (want completion|slot): '" + *raw +
                                "'"));
      return;
    }
  }

  // Per-request budget overrides; the configured serving budget is the
  // default. 0 is rejected (use absence for "unlimited").
  QueryBudget budget = options_.serving.budget;
  if (const std::string* raw = request.FindParam("max_nodes")) {
    auto parsed = ParseDecimalSize(*raw);
    if (!parsed.has_value() || *parsed == 0) {
      writer.SendError(400, Status::InvalidArgument(
                                "bad max_nodes: '" + *raw + "'"));
      return;
    }
    budget.max_node_visits = *parsed;
  }
  if (const std::string* raw = request.FindParam("max_bytes")) {
    auto parsed = ParseDecimalSize(*raw);
    if (!parsed.has_value() || *parsed == 0) {
      writer.SendError(400, Status::InvalidArgument(
                                "bad max_bytes: '" + *raw + "'"));
      return;
    }
    budget.max_output_bytes = *parsed;
  }

  const std::string* mode = request.FindParam("mode");
  bool sse;
  if (mode != nullptr) {
    if (*mode != "sse" && *mode != "json") {
      writer.SendError(400, Status::InvalidArgument(
                                "bad mode (want json|sse): '" + *mode + "'"));
      return;
    }
    sse = *mode == "sse";
  } else {
    const std::string* accept = request.FindHeader("accept");
    sse = accept != nullptr &&
          accept->find("text/event-stream") != std::string::npos;
  }

  // Admission: wait for a serving slot at most until the request deadline.
  // Shedding answers before any corpus work happens.
  auto ticket = server_->admission().Acquire(deadline);
  if (!ticket.ok()) {
    writer.SendError(HttpStatusFor(ticket.status()), ticket.status());
    return;
  }
  // One admitted request observes one corpus epoch end to end: mutations
  // mid-request never touch it. Declared after the ticket, so the pin is
  // released before the slot is handed to the next request.
  CorpusPin pin = corpus_->PinView();

  // Whatever budget admission left becomes the stream deadline. An already
  // expired budget still opens the stream — every slot then emits
  // kDeadlineExceeded, the same shape a slow in-flight request produces.
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    const auto remaining = deadline - std::chrono::steady_clock::now();
    stream_options.deadline = std::max<std::chrono::nanoseconds>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining),
        std::chrono::nanoseconds(1));
  }

  CorpusServingOptions serving = options_.serving;
  serving.page_size = gated ? page_size : 0;
  serving.budget = budget;

  // The pin outlives the drain below, so the pinned view cannot be
  // reclaimed while this request streams.
  auto served = corpus_->ServeQuery(query, *engine_, options_.ranking, serving,
                                    options_.snippet, stream_options, pin);
  if (!served.ok()) {
    writer.SendError(HttpStatusFor(served.status()), served.status());
    return;
  }
  CorpusQueryStream& stream = *served;

  if (!sse) {
    // Blocking JSON page: drain the stream, reassemble in slot order. An
    // output-byte trip drops the over-cap slot and everything after it
    // (cancelling the stream so unstarted slots stop costing pool time)
    // but still answers 200 with the slots that fit — truncated, flagged.
    std::vector<std::pair<size_t, std::string>> slots;
    bool truncated = false;
    size_t rendered_bytes = 0;
    while (auto event = stream.stream().Next()) {
      // A vanished client cannot be answered; stop burning pool time on it.
      if (!writer.CheckClientAlive()) stream.Cancel();
      if (truncated) continue;  // drain the cancelled tail
      std::string slot_json = RenderSlotJson(*event, stream.page());
      if (budget.max_output_bytes != 0 &&
          rendered_bytes + slot_json.size() > budget.max_output_bytes) {
        truncated = true;
        stream.Cancel();
        continue;
      }
      rendered_bytes += slot_json.size();
      slots.emplace_back(event->slot, std::move(slot_json));
    }
    std::sort(slots.begin(), slots.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string body = "{\"query\":";
    AppendJsonString(*q, &body);
    body += ",\"results\":[";
    for (size_t i = 0; i < slots.size(); ++i) {
      if (i > 0) body += ",";
      body += slots[i].second;
    }
    body += "],\"stats\":";
    body += RenderFinalStatsJson(stream, stream.degraded() || truncated);
    body += "}";
    writer.SendJson(200, body);
    return;
  }

  // SSE rendering: one event per slot, completion order by default.
  server_->RecordSseOpened();
  if (!writer.BeginChunked(200, "text/event-stream")) {
    server_->RecordSseDisconnect();
    stream.Cancel();
    while (stream.stream().Next()) {
    }
    return;
  }
  bool disconnected = false;
  bool truncated = false;
  size_t sent_bytes = 0;
  while (auto event = stream.stream().Next()) {
    if (disconnected || truncated) continue;  // drain the tail silently
    SseFrame frame;
    frame.Event(event->snippet.ok() ? "snippet" : "error")
        .Id(event->slot)
        .Data(RenderSlotJson(*event, stream.page()));
    std::string text = std::move(frame).Finish();
    // Output-byte trip: suppress this and every later snippet frame; the
    // stream is cancelled but still drained, and the `done` frame below
    // closes the stream well-formed with degraded set.
    if (budget.max_output_bytes != 0 &&
        sent_bytes + text.size() > budget.max_output_bytes) {
      truncated = true;
      stream.Cancel();
      continue;
    }
    sent_bytes += text.size();
    if (!writer.WriteChunk(text) || !writer.CheckClientAlive()) {
      // Client is gone: cancel the stream so unstarted slots free the pool
      // immediately, then keep draining (cancelled events are instant).
      disconnected = true;
      server_->RecordSseDisconnect();
      stream.Cancel();
    }
  }
  if (!disconnected) {
    SseFrame done;
    done.Event("done").Data(
        RenderFinalStatsJson(stream, stream.degraded() || truncated));
    writer.WriteChunk(std::move(done).Finish());
    writer.EndChunked();
  }
}

void QueryService::HandleStats(const HttpRequest& request,
                               ResponseWriter& writer) {
  (void)request;
  JsonBuilder json;
  json.BeginObject();

  json.Key("server").BeginObject();
  HttpServerStats server = server_->Stats();
  json.Key("connections_accepted").Number(server.connections_accepted);
  json.Key("connections_rejected_capacity")
      .Number(server.connections_rejected_capacity);
  json.Key("requests_parsed").Number(server.requests_parsed);
  json.Key("parse_errors").Number(server.parse_errors);
  json.Key("responses_2xx").Number(server.responses_2xx);
  json.Key("responses_4xx").Number(server.responses_4xx);
  json.Key("responses_5xx").Number(server.responses_5xx);
  json.Key("sse_streams_opened").Number(server.sse_streams_opened);
  json.Key("sse_client_disconnects").Number(server.sse_client_disconnects);
  json.EndObject();

  json.Key("admission").BeginObject();
  AdmissionStats admission = server_->admission().Stats();
  json.Key("admitted").Number(admission.admitted);
  json.Key("admitted_after_wait").Number(admission.admitted_after_wait);
  json.Key("shed_queue_full").Number(admission.shed_queue_full);
  json.Key("shed_deadline").Number(admission.shed_deadline);
  json.Key("active").Number(admission.active);
  json.Key("queued").Number(admission.queued);
  json.Key("peak_active").Number(admission.peak_active);
  json.Key("peak_queued").Number(admission.peak_queued);
  json.Key("total_wait_ns").Number(static_cast<size_t>(admission.total_wait_ns));
  json.Key("max_wait_ns").Number(static_cast<size_t>(admission.max_wait_ns));
  json.EndObject();

  // Serving-time breakdown: pipeline stages plus the "search", "search.*"
  // (top-k) and "stream.*" pseudo-stages the corpus folds in per query.
  json.Key("stages").BeginArray();
  for (const StageStat& stage : corpus_->StageStatsSnapshot()) {
    json.BeginObject()
        .Key("name")
        .String(stage.name)
        .Key("calls")
        .Number(static_cast<size_t>(stage.calls))
        .Key("total_ns")
        .Number(static_cast<size_t>(stage.total_ns))
        .Key("max_ns")
        .Number(static_cast<size_t>(stage.max_ns))
        .EndObject();
  }
  json.EndArray();

  json.Key("cache");
  if (const SnippetCache* cache = corpus_->snippet_cache()) {
    SnippetCacheStats stats = cache->Stats();
    json.BeginObject()
        .Key("hits")
        .Number(stats.hits)
        .Key("misses")
        .Number(stats.misses)
        .Key("evictions")
        .Number(stats.evictions)
        .Key("entries")
        .Number(stats.entries)
        .Key("capacity")
        .Number(stats.capacity)
        .EndObject();
  } else {
    json.Null();
  }

  // The live-mutation surface: which epoch is serving, how many readers
  // are pinned (current or retired views), and how retirement is draining.
  json.Key("corpus").BeginObject();
  EpochStats epochs = corpus_->EpochStatsSnapshot();
  json.Key("epoch").Number(static_cast<size_t>(epochs.epoch));
  json.Key("published").Number(static_cast<size_t>(epochs.published));
  json.Key("pinned_readers").Number(epochs.pinned_readers);
  json.Key("retired_views_live").Number(epochs.retired_live);
  json.Key("retired_views_reclaimed")
      .Number(static_cast<size_t>(epochs.reclaimed));
  json.EndObject();

  // The persistent-corpus surface: how much of the attached snapshot has
  // faulted in, and what open + fault-in cost so far. Null without one.
  json.Key("snapshot");
  if (std::optional<CorpusSnapshotStats> snapshot =
          corpus_->SnapshotStatsSnapshot()) {
    json.BeginObject()
        .Key("path")
        .String(snapshot->path)
        .Key("documents")
        .Number(static_cast<size_t>(snapshot->documents))
        .Key("resident")
        .Number(static_cast<size_t>(snapshot->resident))
        .Key("faults")
        .Number(static_cast<size_t>(snapshot->faults))
        .Key("fault_failures")
        .Number(static_cast<size_t>(snapshot->fault_failures))
        .Key("fault_ns")
        .Number(static_cast<size_t>(snapshot->fault_ns))
        .Key("open_ns")
        .Number(static_cast<size_t>(snapshot->open_ns))
        .Key("file_bytes")
        .Number(static_cast<size_t>(snapshot->file_bytes))
        .EndObject();
  } else {
    json.Null();
  }

  json.Key("documents").Number(corpus_->size());
  json.EndObject();
  writer.SendJson(200, json.str());
}

void QueryService::HandleHealth(const HttpRequest& request,
                                ResponseWriter& writer) {
  (void)request;
  JsonBuilder json;
  json.BeginObject()
      .Key("status")
      .String("ok")
      .Key("documents")
      .Number(corpus_->size())
      .EndObject();
  writer.SendJson(200, json.str());
}

}  // namespace extract

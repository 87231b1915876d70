// Interactive shell reproducing the demo's web UI flow (paper §4): select a
// data set, view it, issue keyword queries, tune the snippet size bound,
// inspect snippets and open full results — all from a terminal.
//
//   $ ./build/examples/extract_shell           # interactive
//   $ echo "open stores
//   query store texas
//   quit" | ./build/examples/extract_shell     # scripted
//
// Commands:
//   open <retailer|stores|movies>   load a built-in data set
//   datasets                        list loaded data sets
//   use <name>                      switch the active data set
//   schema                          show the Data Analyzer's summary
//   bound <n>                       set the snippet size bound (edges) and
//                                   regenerate the last query's snippets —
//                                   reusing the query's memoized lookups, so
//                                   only IList, selection + materialize
//                                   re-run
//   query <keywords...>             search + snippets (active data set)
//   queryall <keywords...>          search every loaded data set, ranked
//                                   (SearchAll + parallel snippet batch)
//   stream <keywords...>            queryall, but incremental top-k: print
//                                   each snippet the moment its slot
//                                   completes, while lower ranks are still
//                                   being searched (page-gated ServeQuery;
//                                   shows time-to-first-snippet and
//                                   candidates scored vs total)
//   result <rank>                   print the full tree of a result of the
//                                   last query, from the data set it ran on
//   html <path>                     write the last page shown (by query,
//                                   bound, queryall or stream) as HTML
//   save <path> / load <path>       snapshot the active data set's index
//                                   as a one-document snapshot image
//   snapshot save <path>            persist the whole corpus as one
//                                   mmap-able snapshot image
//   snapshot open <path>            attach a corpus snapshot: documents
//                                   become queryable at once and decode
//                                   lazily on first touch
//   snapshot stats                  fault-in counters of the attached
//                                   snapshot
//   load <name> <file>              parse an XML file into the live corpus
//                                   under <name>, printing the epoch
//                                   transition (safe mid-session: pinned
//                                   query sessions keep their snapshot)
//   unload <name>                   remove a data set, printing the epoch
//                                   transition; a live query session
//                                   pinned to the retired epoch keeps
//                                   working (e.g. `bound` still
//                                   regenerates against it)
//   cache [clear]                   snippet-cache stats / drop all entries
//   stats [reset]                   per-stage serving-time breakdown
//   help / quit

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "common/string_util.h"
#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "render/html_renderer.h"
#include "schema/schema_summary.h"
#include "search/corpus.h"
#include "search/result_builder.h"
#include "snippet/distinguishability.h"
#include "snippet/snippet_context.h"
#include "snippet/snippet_service.h"
#include "snippet/stage_stats.h"
#include "xml/serializer.h"

namespace {

using namespace extract;

// The live pipeline of the last `query`: service + per-query context kept
// across commands, so changing only the size bound regenerates snippets
// from the context's memoized statistics/entity/key lookups instead of
// re-running the whole pipeline from scratch.
struct QuerySession {
  std::string document;  ///< data set the session is bound to
  std::string text;      ///< raw query text, to detect query changes
  /// The epoch the session serves against. Holding the pin keeps `db`
  /// alive even after `unload` retires the data set — the session's
  /// memoized scans stay valid against exactly the content it queried.
  CorpusPin pin;
  const XmlDatabase* db = nullptr;  ///< resolved from `pin`
  std::unique_ptr<SnippetService> service;
  std::unique_ptr<SnippetContext> context;
};

struct ShellState {
  XmlCorpus corpus;
  std::string active;
  size_t bound = 10;
  /// The last page printed by `query`, `bound`, `queryall` or `stream`:
  /// its query and its snippets in rank order. `html` writes this page.
  Query page_query;
  std::vector<Snippet> page_snippets;
  /// Raw text of the query that produced last_results — `bound` only
  /// regenerates when the live session still matches it.
  std::string last_query_text;
  /// Data set that produced last_results. Matched against the session
  /// (not `active`): the session may outlive an `unload` via its pin.
  std::string last_results_document;
  std::vector<QueryResult> last_results;
  QuerySession session;
  /// Stage time of retired query sessions (a new query replaces the
  /// session; its counters are folded in here first).
  StageStatsRegistry retired_stats;

  ShellState() { corpus.EnableSnippetCache(); }

  const XmlDatabase* ActiveDb() const { return corpus.Find(active); }

  /// True when the live session is the one that produced last_results —
  /// a failed or differently-targeted query in between must not mix
  /// another query's context or document with these results. The session
  /// is matched against the results' data set, NOT `active`: a session
  /// pinned to a since-unloaded epoch still matches (the pin keeps its
  /// snapshot alive — the live-mutation demo).
  bool SessionHoldsLastResults() const {
    return session.service != nullptr && !last_results.empty() &&
           session.document == last_results_document &&
           session.text == last_query_text;
  }

  /// The session bound to (active data set, query text), creating it (and
  /// retiring any previous one) if needed. Requires an active data set.
  QuerySession& SessionFor(const std::string& text, const Query& query) {
    if (session.service != nullptr && session.document == active &&
        session.text == text) {
      return session;
    }
    if (session.service != nullptr) {
      retired_stats.Merge(session.service->StageStatsSnapshot());
    }
    // Pin the current epoch for the session's lifetime: later `unload`s
    // retire the view but cannot free it under the session. Resolution goes
    // through the view, so a snapshot-backed data set faults in here.
    session.pin = corpus.PinView();
    Result<ResolvedDocument> resolved = session.pin->Resolve(active);
    session.db = resolved.ok() ? resolved->db->get() : nullptr;
    session.document = active;
    session.text = text;
    if (session.db == nullptr) {
      session.service.reset();
      session.context.reset();
      return session;
    }
    session.service = std::make_unique<SnippetService>(session.db);
    session.context = std::make_unique<SnippetContext>(session.db, query);
    return session;
  }
};

void CmdOpen(ShellState* state, const std::string& name) {
  std::string xml;
  if (name == "retailer") {
    xml = GenerateRetailerXml();
  } else if (name == "stores") {
    xml = GenerateStoresXml();
  } else if (name == "movies") {
    xml = GenerateMoviesXml();
  } else {
    std::printf("unknown data set '%s' (try retailer|stores|movies)\n",
                name.c_str());
    return;
  }
  if (state->corpus.Find(name) == nullptr) {
    Status status = state->corpus.AddDocument(name, xml);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
  }
  state->active = name;
  std::printf("opened '%s' (%zu nodes)\n", name.c_str(),
              state->ActiveDb()->index().num_nodes());
}

void PrintSnippets(const ShellState& state) {
  std::printf("%zu result(s), snippet bound %zu\n\n",
              state.last_results.size(), state.bound);
  for (size_t i = 0; i < state.page_snippets.size(); ++i) {
    const Snippet& s = state.page_snippets[i];
    std::string key_note = s.key.found() ? "  key: " + s.key.value : "";
    std::printf("[%zu]%s\n%s\n", i + 1, key_note.c_str(),
                RenderSnippet(s).c_str());
  }
}

void CmdQuery(ShellState* state, const std::string& text) {
  if (state->ActiveDb() == nullptr) {
    std::printf("no data set open; use: open stores\n");
    return;
  }
  Query query = Query::Parse(text);
  // Search through the session's pinned snapshot, so search, snippets and
  // later `bound` regenerations all observe the same content even if the
  // data set is unloaded or replaced between commands.
  QuerySession& session = state->SessionFor(text, query);
  if (session.db == nullptr) {
    std::printf("error: cannot resolve '%s'\n", state->active.c_str());
    return;
  }
  XSeekEngine engine;
  auto results = engine.Search(*session.db, query);
  if (!results.ok()) {
    std::printf("error: %s\n", results.status().ToString().c_str());
    return;
  }
  SnippetOptions options;
  options.size_bound = state->bound;
  auto snippets = GenerateDiverseSnippets(*session.service, *session.context,
                                          *results, options,
                                          DiversifyOptions{});
  if (!snippets.ok()) {
    std::printf("error: %s\n", snippets.status().ToString().c_str());
    return;
  }
  state->page_query = std::move(query);
  state->page_snippets = std::move(*snippets);
  state->last_query_text = text;
  state->last_results_document = session.document;
  state->last_results = std::move(*results);
  PrintSnippets(*state);
}

// `bound <n>`: regenerate the last query's snippets at the new bound. The
// session context memoizes the statistics, return entity and key, so this
// re-runs only the IList, instance selection and materialization — no
// re-search, no re-analysis.
void CmdBound(ShellState* state, const std::string& rest) {
  const std::optional<size_t> bound = ParseDecimalSize(rest);
  if (!bound.has_value()) {
    std::printf("error: bound takes a non-negative number of edges, got '%s'"
                " (bound stays %zu)\n",
                rest.c_str(), state->bound);
    return;
  }
  state->bound = *bound;
  std::printf("snippet size bound = %zu\n", state->bound);
  if (!state->SessionHoldsLastResults()) return;
  SnippetOptions options;
  options.size_bound = state->bound;
  auto snippets = GenerateDiverseSnippets(
      *state->session.service, *state->session.context, state->last_results,
      options, DiversifyOptions{});
  if (!snippets.ok()) {
    std::printf("error: %s\n", snippets.status().ToString().c_str());
    return;
  }
  state->page_snippets = std::move(*snippets);
  PrintSnippets(*state);
}

void CmdStats(ShellState* state, const std::string& arg) {
  if (arg == "reset") {
    state->corpus.ResetStageStats();
    state->retired_stats.Reset();
    if (state->session.service != nullptr) {
      state->session.service->ResetStageStats();
    }
    std::printf("serving stats reset\n");
    return;
  }
  std::vector<StageStat> corpus_stats = state->corpus.StageStatsSnapshot();
  if (!corpus_stats.empty()) {
    std::printf("corpus serving (queryall):\n%s",
                FormatStageStats(corpus_stats).c_str());
  }
  StageStatsRegistry query_stats;
  query_stats.Merge(state->retired_stats.Snapshot());
  if (state->session.service != nullptr) {
    query_stats.Merge(state->session.service->StageStatsSnapshot());
  }
  std::vector<StageStat> pipeline_stats = query_stats.Snapshot();
  if (!pipeline_stats.empty()) {
    std::printf("%squery pipeline (query/bound):\n%s",
                corpus_stats.empty() ? "" : "\n",
                FormatStageStats(pipeline_stats).c_str());
  }
  if (corpus_stats.empty() && pipeline_stats.empty()) {
    std::printf("no serving stats yet — run a query\n");
  }
}

void CmdQueryAll(ShellState* state, const std::string& text) {
  if (state->corpus.size() == 0) {
    std::printf("no data sets loaded\n");
    return;
  }
  Query query = Query::Parse(text);
  XSeekEngine engine;
  auto hits = state->corpus.SearchAll(query, engine);
  if (!hits.ok()) {
    std::printf("error: %s\n", hits.status().ToString().c_str());
    return;
  }
  std::printf("%zu hit(s) across %zu data set(s)\n", hits->size(),
              state->corpus.size());
  // One parallel batch over the merged page: hits of the same document
  // share a snippet context, output order matches the ranked hits.
  SnippetOptions options;
  options.size_bound = state->bound;
  auto snippets = state->corpus.GenerateSnippets(query, *hits, options);
  if (snippets.ok()) {
    for (size_t i = 0; i < hits->size(); ++i) {
      const CorpusResult& hit = (*hits)[i];
      std::printf("\n[%zu] %s (score %.2f)\n%s", i + 1, hit.document.c_str(),
                  hit.score, RenderSnippet((*snippets)[i]).c_str());
    }
    state->page_query = std::move(query);
    state->page_snippets = std::move(*snippets);
    return;
  }
  // A bad hit fails the whole batch (the Status names it); degrade to
  // per-hit generation so the surviving hits still render.
  std::printf("error: %s\n", snippets.status().ToString().c_str());
  std::vector<Snippet> page;
  for (size_t i = 0; i < hits->size(); ++i) {
    const CorpusResult& hit = (*hits)[i];
    const XmlDatabase* db = state->corpus.Find(hit.document);
    if (db == nullptr) continue;
    SnippetService service(db);
    auto snippet = service.Generate(query, hit.result, options);
    if (!snippet.ok()) continue;
    std::printf("\n[%zu] %s (score %.2f)\n%s", i + 1, hit.document.c_str(),
                hit.score, RenderSnippet(*snippet).c_str());
    page.push_back(std::move(*snippet));
  }
  state->page_query = std::move(query);
  state->page_snippets = std::move(page);
}

// `stream <keywords...>`: the progressive counterpart of queryall — the
// incremental top-k path: the threshold bound merge releases each page
// slot the moment no unseen document can beat it, and its snippet renders
// the moment it completes, while lower-ranked slots are still being
// searched. Slots are labeled with their page rank, so out-of-order
// arrivals stay attributable.
void CmdStream(ShellState* state, const std::string& text) {
  if (state->corpus.size() == 0) {
    std::printf("no data sets loaded\n");
    return;
  }
  Query query = Query::Parse(text);
  XSeekEngine engine;
  SnippetOptions options;
  options.size_bound = state->bound;
  CorpusServingOptions serving;
  serving.page_size = 10;  // gated top-k serving: search runs in-stream
  StreamOptions stream;  // completion order: lowest time-to-first-snippet
  auto served = state->corpus.ServeQuery(query, engine, RankingOptions{},
                                         serving, options, stream);
  if (!served.ok()) {
    std::printf("error: %s\n", served.status().ToString().c_str());
    return;
  }
  std::printf("streaming up to %zu top slot(s) across %zu data set(s) as "
              "they complete\n",
              serving.page_size, state->corpus.size());
  std::fflush(stdout);
  size_t arrival = 0;
  // Slots arrive in completion order; the page `html` writes keeps the
  // successful ones in rank order.
  std::map<size_t, Snippet> by_rank;
  // The page grows while the merge runs: page()[event.slot] is settled
  // once the slot's event arrives, but the page size is unknown (and
  // unreadable) until the stream has drained.
  served->stream().ForEach([&](SnippetEvent event) {
    ++arrival;
    const CorpusResult& hit = served->page()[event.slot];
    if (event.snippet.ok()) {
      std::printf("\n[rank %zu, arrival %zu] %s (score %.2f)\n%s",
                  event.slot + 1, arrival, hit.document.c_str(), hit.score,
                  RenderSnippet(*event.snippet).c_str());
      by_rank.emplace(event.slot, std::move(*event.snippet));
    } else {
      std::printf("\n[rank %zu] error: %s\n", event.slot + 1,
                  event.snippet.status().ToString().c_str());
    }
    std::fflush(stdout);
  });
  state->page_query = query;
  state->page_snippets.clear();
  for (auto& [slot, snippet] : by_rank) {
    state->page_snippets.push_back(std::move(snippet));
  }
  StreamStats stats = served->Stats();
  if (stats.succeeded > 0) {
    std::printf("\nstream: %zu emitted (%zu ok, %zu failed), first snippet "
                "after %.2f ms\n",
                stats.emitted, stats.succeeded, stats.failed,
                static_cast<double>(stats.first_snippet_ns) / 1e6);
  } else {
    std::printf("\nstream: %zu emitted, no snippet succeeded (%zu failed)\n",
                stats.emitted, stats.failed);
  }
  TopKSearchStats search = served->SearchStats();
  std::printf("search: %zu of %zu candidate(s) scored across %zu "
              "document(s)%s, first result after %.2f ms\n",
              search.candidates_scored, search.candidates_total,
              search.producers,
              search.early_terminated ? " (early termination)" : "",
              static_cast<double>(search.first_result_ns) / 1e6);
}

void CmdResult(ShellState* state, const std::string& rest) {
  const std::optional<size_t> rank = ParseDecimalSize(rest);
  if (!rank.has_value()) {
    std::printf("error: result takes a rank (1, 2, ...), got '%s'\n",
                rest.c_str());
    return;
  }
  // Results are node ids of the document the last query ran on: read them
  // from the session's pinned copy, never from whatever is active now.
  if (!state->SessionHoldsLastResults() || *rank == 0 ||
      *rank > state->last_results.size()) {
    std::printf("no such result\n");
    return;
  }
  auto tree =
      MaterializeResult(*state->session.db, state->last_results[*rank - 1]);
  std::printf("%s\n", RenderXmlTree(*tree).c_str());
}

// `html <path>`: writes the last page shown, whichever command showed it.
void CmdHtml(ShellState* state, const std::string& path) {
  if (state->page_snippets.empty()) {
    std::printf("run a query first\n");
    return;
  }
  std::string html =
      RenderResultsPageHtml(state->page_query, state->page_snippets);
  std::ofstream out(path);
  if (!out) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  out << html;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), html.size());
}

void CmdSchema(const ShellState& state) {
  const XmlDatabase* db = state.ActiveDb();
  if (db == nullptr) {
    std::printf("no data set open\n");
    return;
  }
  std::printf("%s",
              RenderSchemaSummary(db->index(), db->classification(), db->keys())
                  .c_str());
}

void CmdSave(const ShellState& state, const std::string& path) {
  const XmlDatabase* db = state.ActiveDb();
  if (db == nullptr) {
    std::printf("no data set open\n");
    return;
  }
  Result<CorpusSnapshotWriter> writer = CorpusSnapshotWriter::Create(path);
  Status status = writer.status();
  if (status.ok()) status = writer->Add(state.active, *db);
  if (status.ok()) status = writer->Finish();
  std::printf("%s\n", status.ok() ? "saved" : status.ToString().c_str());
}

void CmdLoad(ShellState* state, const std::string& path) {
  auto snapshot = CorpusSnapshot::Open(path);
  if (!snapshot.ok()) {
    std::printf("error: %s\n", snapshot.status().ToString().c_str());
    return;
  }
  if ((*snapshot)->doc_count() != 1) {
    std::printf("error: %s holds %zu documents, expected one (see "
                "'snapshot open')\n",
                path.c_str(), (*snapshot)->doc_count());
    return;
  }
  auto doc = (*snapshot)->Fault(0);
  if (!doc.ok()) {
    std::printf("error: %s\n", doc.status().ToString().c_str());
    return;
  }
  std::string name = "snapshot:" + path;
  Status status = state->corpus.AddDatabase(name, (*doc)->db);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  state->active = name;
  std::printf("loaded snapshot as '%s'\n", name.c_str());
}

// `load <name> <file>`: parse an XML file into the live corpus. Safe while
// query sessions are open — the add publishes a new epoch; pinned sessions
// keep theirs.
void CmdLoadFile(ShellState* state, const std::string& name,
                 const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::printf("cannot read %s\n", path.c_str());
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EpochStats before = state->corpus.EpochStatsSnapshot();
  Status status = state->corpus.AddDocument(name, buffer.str());
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  EpochStats after = state->corpus.EpochStatsSnapshot();
  state->active = name;
  std::printf("loaded '%s' (%zu nodes) — epoch %llu -> %llu, "
              "%zu reader(s) pinned\n",
              name.c_str(), state->ActiveDb()->index().num_nodes(),
              static_cast<unsigned long long>(before.epoch),
              static_cast<unsigned long long>(after.epoch),
              after.pinned_readers);
}

// `unload <name>`: remove a data set from the live corpus. A query session
// pinned to the retired epoch keeps serving against it.
void CmdUnload(ShellState* state, const std::string& name) {
  EpochStats before = state->corpus.EpochStatsSnapshot();
  Status status = state->corpus.RemoveDocument(name);
  if (!status.ok()) {
    std::printf("error: %s\n", status.ToString().c_str());
    return;
  }
  EpochStats after = state->corpus.EpochStatsSnapshot();
  std::printf("unloaded '%s' — epoch %llu -> %llu, %zu retired view(s) "
              "live, %llu reclaimed\n",
              name.c_str(), static_cast<unsigned long long>(before.epoch),
              static_cast<unsigned long long>(after.epoch),
              after.retired_live,
              static_cast<unsigned long long>(after.reclaimed));
  if (state->session.service != nullptr && state->session.document == name) {
    std::printf("note: the live query session still pins the retired epoch "
                "— 'bound' keeps regenerating against it\n");
  }
  if (state->active == name) state->active.clear();
}

// `snapshot save <path>`: persist every visible document as one mmap-able
// corpus snapshot image. `snapshot open <path>`: attach such an image —
// its documents become queryable immediately and decode lazily on first
// touch. `snapshot stats`: fault-in counters of the attached snapshot.
void CmdSnapshot(ShellState* state, const std::string& rest) {
  std::istringstream args(rest);
  std::string sub, path;
  args >> sub >> path;
  if (sub == "save" && !path.empty()) {
    Status status = state->corpus.SaveSnapshot(path);
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("saved %zu document(s) to %s\n", state->corpus.size(),
                path.c_str());
    return;
  }
  if (sub == "open" && !path.empty()) {
    auto snapshot = CorpusSnapshot::Open(path);
    if (!snapshot.ok()) {
      std::printf("error: %s\n", snapshot.status().ToString().c_str());
      return;
    }
    CorpusSnapshotStats stats = (*snapshot)->Stats();
    Status status = state->corpus.AttachSnapshot(std::move(*snapshot));
    if (!status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    std::printf("attached %llu document(s) from %s (%.2f MB mapped, "
                "opened in %.3f ms)\n",
                static_cast<unsigned long long>(stats.documents),
                path.c_str(),
                static_cast<double>(stats.file_bytes) / 1e6,
                static_cast<double>(stats.open_ns) / 1e6);
    return;
  }
  if (sub == "stats") {
    auto stats = state->corpus.SnapshotStatsSnapshot();
    if (!stats.has_value()) {
      std::printf("no snapshot attached\n");
      return;
    }
    std::printf("snapshot %s: %llu document(s), %llu resident, "
                "%llu fault(s) (%llu failed), %.2f ms faulting, "
                "opened in %.3f ms\n",
                stats->path.c_str(),
                static_cast<unsigned long long>(stats->documents),
                static_cast<unsigned long long>(stats->resident),
                static_cast<unsigned long long>(stats->faults),
                static_cast<unsigned long long>(stats->fault_failures),
                static_cast<double>(stats->fault_ns) / 1e6,
                static_cast<double>(stats->open_ns) / 1e6);
    return;
  }
  std::printf(
      "usage: snapshot save <path> | snapshot open <path> | snapshot stats\n");
}

void CmdCache(ShellState* state, const std::string& arg) {
  SnippetCache* cache = state->corpus.snippet_cache();
  if (cache == nullptr) {
    std::printf("snippet cache disabled\n");
    return;
  }
  if (arg == "clear") {
    cache->Clear();
    std::printf("snippet cache cleared\n");
    return;
  }
  SnippetCacheStats stats = cache->Stats();
  std::printf(
      "snippet cache: %zu/%zu entries, %zu hit(s), %zu miss(es), "
      "%zu eviction(s), hit rate %.2f\n",
      stats.entries, stats.capacity, stats.hits, stats.misses,
      stats.evictions, stats.hit_rate());
}

void PrintHelp() {
  std::printf(
      "commands: open <retailer|stores|movies> | datasets | use <name> | "
      "schema |\n  bound <n> | query <kw...> | queryall <kw...> | "
      "stream <kw...> |\n  result <rank> | html <path> (the last page shown) |"
      "\n  save <path> | load <path> | load <name> <file> | unload <name> |"
      "\n  snapshot save|open <path> | snapshot stats | "
      "cache [clear] | stats [reset] |\n  help | quit\n");
}

}  // namespace

int main() {
  ShellState state;
  std::printf("eXtract shell — type 'help' for commands\n");
  std::string line;
  while (std::printf("extract> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string trimmed(TrimView(line));
    if (trimmed.empty()) continue;
    std::istringstream iss(trimmed);
    std::string command;
    iss >> command;
    std::string rest;
    std::getline(iss, rest);
    rest = std::string(TrimView(rest));

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
    } else if (command == "open") {
      CmdOpen(&state, rest);
    } else if (command == "datasets") {
      for (const std::string& name : state.corpus.DocumentNames()) {
        std::printf("%s%s\n", name.c_str(),
                    name == state.active ? " (active)" : "");
      }
    } else if (command == "use") {
      if (state.corpus.Find(rest) == nullptr) {
        std::printf("unknown data set '%s'\n", rest.c_str());
      } else {
        state.active = rest;
      }
    } else if (command == "schema") {
      CmdSchema(state);
    } else if (command == "bound") {
      CmdBound(&state, rest);
    } else if (command == "query") {
      CmdQuery(&state, rest);
    } else if (command == "queryall") {
      CmdQueryAll(&state, rest);
    } else if (command == "stream") {
      CmdStream(&state, rest);
    } else if (command == "result") {
      CmdResult(&state, rest);
    } else if (command == "html") {
      CmdHtml(&state, rest);
    } else if (command == "save") {
      CmdSave(state, rest);
    } else if (command == "load") {
      // Two arguments = live XML load under a name; one = legacy snapshot.
      std::istringstream load_args(rest);
      std::string name, path;
      load_args >> name >> path;
      if (!path.empty()) {
        CmdLoadFile(&state, name, path);
      } else {
        CmdLoad(&state, rest);
      }
    } else if (command == "unload") {
      CmdUnload(&state, rest);
    } else if (command == "snapshot") {
      CmdSnapshot(&state, rest);
    } else if (command == "cache") {
      CmdCache(&state, rest);
    } else if (command == "stats") {
      CmdStats(&state, rest);
    } else {
      std::printf("unknown command '%s' — try 'help'\n", command.c_str());
    }
  }
  return 0;
}

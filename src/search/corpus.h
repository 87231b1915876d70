// Multi-document corpus: the demo UI lets users pick among several XML
// data sets (movies, stores, ...) and query whichever is selected; a full
// deployment searches across all of them. XmlCorpus owns named databases,
// merges cross-document search results by ranking score, and serves
// snippets for merged result pages (GenerateSnippets) — with an
// optional cross-query snippet cache so repeated/hot queries skip
// generation entirely (snippet/snippet_cache.h).
//
// The document table is two-layered: an in-memory overlay (documents added
// at runtime) over an optional mmap-backed persistent snapshot
// (search/corpus_snapshot.h, attached via AttachSnapshot) whose documents
// fault in lazily on first touch. Serving code only sees the merged view.
//
// The corpus is LIVE MUTABLE: document add/remove is safe concurrently
// with serving. Internally the document table is an epoch-published
// immutable snapshot (CorpusView behind an EpochDomain, common/epoch.h):
//
//   * Readers pin a view (PinView, or implicitly per call) and serve the
//     whole query — search, rank, snippet stream — against exactly that
//     snapshot. A pinned view is immutable and stays alive until the pin
//     drops, so an in-flight query can never observe a torn table, a
//     half-removed document, or a freed database.
//   * Writers (AddDocument / AddDatabase / RemoveDocument) build the next
//     view off the serving path — parsing and indexing happen before the
//     writer lock does anything — then publish it atomically. Publishing
//     is a shallow map copy plus a pointer swap; concurrent writers
//     serialize, readers never wait.
//   * A retired view is reclaimed when its last pin drains. Epoch /
//     reader / retired-view counters are exposed via EpochStatsSnapshot
//     (the HTTP /stats "corpus" object).
//   * Snippet-cache invalidation rides the epoch transition instead of
//     racing it: every document registration gets a monotonic instance id,
//     cache keys are scoped to the instance ("name@instance"), and removal
//     invalidates the retired instance's entries after the new view is
//     published. An in-flight query pinned to the old epoch may still
//     repopulate entries of the OLD instance — harmless residue that no
//     new epoch's keys can ever alias, aged out by the LRU.
//
// Query evaluation has two schedules of one answer: SearchAll is the plain
// document loop (search and rank each document in name order, then one
// stable sort), and SearchTopK is the incremental threshold merge that
// settles the first k entries of that same page with early termination.
// Blocking SearchTopK and page-gated ServeQuery run that merge with one
// pull schedule on one thread: the caller's, or the stream consumer's.
// Per-stage serving time (search plus every snippet pipeline stage)
// accumulates into a StageStatsRegistry for production observability (the
// shell's `stats` command).
//
// Snippet serving is streaming-first (snippet/snippet_stream.h): every
// streamed page — StreamSnippets over a caller's page, blocking ServeQuery
// over the SearchAll page, page-gated ServeQuery over the slots SearchTopK
// releases — opens through one path with one compute closure. Cache hits
// of a page known at open are emitted the moment the stream opens; gated
// slots probe the cache when they compute. GenerateSnippets is the batch
// collector over the same stream. Each serving call has one declaration
// whose trailing `const CorpusPin& pin = {}` names the view to serve; an
// empty pin pins the current view for the duration of the call.

#ifndef EXTRACT_SEARCH_CORPUS_H_
#define EXTRACT_SEARCH_CORPUS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/epoch.h"
#include "search/corpus_snapshot.h"
#include "search/ranking.h"
#include "search/search_engine.h"
#include "snippet/snippet_cache.h"
#include "snippet/snippet_options.h"
#include "snippet/snippet_stream.h"
#include "snippet/snippet_tree.h"
#include "snippet/stage_stats.h"

namespace extract {

namespace internal {
class TopKCoordinator;
}  // namespace internal

/// One cross-corpus search hit.
struct CorpusResult {
  /// Name of the document the hit came from.
  std::string document;
  QueryResult result;
  double score = 0.0;
};

/// One immutable document entry of a CorpusView.
struct CorpusDocument {
  /// Shared with every view (current or retired) that contains this
  /// registration, so copying a view never copies an index.
  std::shared_ptr<const XmlDatabase> db;
  /// Monotonic registration id, never reused — re-adding a name after
  /// removal yields a different instance, so state scoped to an instance
  /// (snippet-cache keys) can never alias across epochs.
  uint64_t instance = 0;
  /// The snippet-cache document id of this registration:
  /// "<name>@<instance>".
  std::string cache_id;
};

/// \brief One document resolved against a CorpusView: the loaded database
/// plus the identity serving state is scoped to. The pointers alias either
/// an overlay CorpusDocument or a faulted-in snapshot document — both are
/// stable for as long as the view stays pinned.
struct ResolvedDocument {
  const std::shared_ptr<const XmlDatabase>* db = nullptr;
  const std::string* cache_id = nullptr;
  uint64_t instance = 0;
};

/// \brief The immutable snapshot one query serves against: the document
/// table (names -> loaded databases, with their inverted indexes) at one
/// epoch. Published atomically by corpus mutators; pinned by readers via
/// CorpusPin.
///
/// The table has two layers. `documents` is the in-memory overlay — every
/// AddDocument/AddDatabase registration. Underneath it, an optional
/// mmap-backed CorpusSnapshot contributes its documents by name, minus the
/// `hidden` set (names RemoveDocument has masked out; copy-on-write, so
/// hiding one name never touches the mapping). Overlay wins on a name
/// collision with a hidden snapshot entry; AttachSnapshot rejects
/// collisions with *visible* ones, so readers never see two documents
/// under one name. Snapshot documents decode lazily on first touch
/// (CorpusSnapshot::Fault) and stay resident; the view's shared_ptr keeps
/// the mapping (and every resident document) alive while pinned.
struct CorpusView {
  std::map<std::string, CorpusDocument, std::less<>> documents;
  std::shared_ptr<const CorpusSnapshot> snapshot;
  /// Snapshot names masked out by RemoveDocument, sorted. Null == empty.
  std::shared_ptr<const std::vector<std::string>> hidden;

  /// One visible document: either an overlay entry (overlay != nullptr) or
  /// the snapshot document at snapshot_index. `name` borrows from the map
  /// key / the mapped name arena — valid while the view is pinned.
  struct DocEntry {
    std::string_view name;
    const CorpusDocument* overlay = nullptr;
    size_t snapshot_index = 0;
    /// Upper bound on the score of any hit of this document (see
    /// MatchingDocs); +infinity when unknown.
    double score_bound = std::numeric_limits<double>::infinity();
  };

  /// Every visible document in name order (overlay merged with the
  /// non-hidden snapshot names). O(visible); never faults anything in.
  std::vector<DocEntry> VisibleDocs() const;

  /// \brief The visible documents that can hold a hit of `query` under
  /// `engine`, in name order. Never faults anything in.
  ///
  /// For an engine that RequiresAllKeywords over an attached snapshot, the
  /// snapshot documents come from its term directory
  /// (CorpusSnapshot::ForEachCandidate) — O(overlay + candidates), not
  /// O(snapshot) — and, when `ranking` is given, each one carries
  /// engine.DocumentScoreBound of its keyword stats: every listed document
  /// holds every keyword. Overlay documents are always listed, unbounded.
  /// Any other engine, or a keyword-less query, gets VisibleDocs().
  /// ParseError when a term list the query reads is corrupt.
  Result<std::vector<DocEntry>> MatchingDocs(
      const Query& query, const SearchEngine& engine,
      const RankingOptions* ranking) const;

  /// Number of visible documents. O(hidden), never O(corpus).
  size_t VisibleCount() const;

  /// True when `name` is visible (overlay or non-hidden snapshot).
  bool Contains(std::string_view name) const;

  /// True when `name` is in the hidden set.
  bool IsHidden(std::string_view name) const;

  /// Resolves one enumerated entry to its database, faulting a snapshot
  /// document in on first touch. Fault-in failures (corrupt payload,
  /// injected fault) surface here and are retryable.
  Result<ResolvedDocument> Materialize(const DocEntry& entry) const;

  /// Contains + Materialize by name: kNotFound for an invisible name,
  /// otherwise the fault-in result.
  Result<ResolvedDocument> Resolve(std::string_view name) const;
};

/// A reader's hold on one CorpusView (see EpochDomain::Pin): keeps exactly
/// that snapshot alive until dropped. Copy to extend, move to transfer.
using CorpusPin = EpochDomain<CorpusView>::Pin;

/// \brief Cost counters of one incremental top-k search (SearchTopK, or
/// ServeQuery with CorpusServingOptions::page_size > 0): how much of the
/// corpus the threshold merge actually touched before the page settled.
struct TopKSearchStats {
  /// Driving-list postings a full (blocking) search of the opened documents
  /// would scan, summed over their producers.
  size_t candidates_total = 0;
  /// Driving-list postings actually scanned so far.
  size_t candidates_scored = 0;
  /// Page slots released so far (== min(k, total hits) once cleanly done).
  size_t results_released = 0;
  /// Incremental producers opened (one per opened document; a snapshot
  /// document whose score bound never reaches the page is never opened).
  size_t producers = 0;
  /// Coordinator pull rounds (each pulls >= 1 producers once).
  size_t pull_rounds = 0;
  /// Elapsed ns from open to the first released slot (0 until then) — the
  /// time-to-first-result the incremental path is judged on.
  uint64_t first_result_ns = 0;
  /// True once the search settled every slot (or failed).
  bool finished = false;
  /// True when the search finished with some producer never exhausted or
  /// some candidate document never opened: the threshold bound proved the
  /// rest of the corpus could not reach the page.
  bool early_terminated = false;
};

/// \brief Per-query resource caps — the degraded-response failure domain.
///
/// A query that exceeds a cap is not killed: the slot that trips emits
/// kResourceExhausted, every later slot short-circuits the same way, the
/// already-emitted snippets stand, and CorpusQueryStream::degraded() turns
/// true so the serving layer can mark the (well-formed, truncated)
/// response as partial instead of failing it. Zero disables a cap.
struct QueryBudget {
  /// Cap on indexed nodes visited by snippet generation across the whole
  /// page (each slot charges its result subtree's node count before
  /// generating; cache hits are free — the budget caps work, not output).
  size_t max_node_visits = 0;
  /// Cap on response payload bytes, enforced by the HTTP layer as it
  /// renders (the stream cannot see wire encoding). Carried here so one
  /// struct names the whole budget.
  size_t max_output_bytes = 0;
};

/// \brief Serving knobs of one corpus query.
struct CorpusServingOptions {
  /// Unread: every search schedule runs on one thread. Kept only because
  /// the repository benchmark (perfbench/) still sets it; it goes with the
  /// next change to that benchmark.
  size_t search_threads = 0;

  /// Per-query resource caps; default-constructed = unlimited.
  QueryBudget budget;

  /// Page size of incremental top-k serving (ServeQuery only): 0 keeps the
  /// blocking search-then-stream path; > 0 serves the best page_size hits
  /// through the threshold bound-merge (see SearchTopK), releasing each
  /// page slot to the snippet stream the moment its rank is settled —
  /// snippets of the top hits generate while lower slots are still being
  /// searched. The served page is byte-identical to the blocking path's
  /// first page_size entries.
  size_t page_size = 0;
};

/// \brief One live streamed query: the merged ranked page plus a
/// SnippetStream emitting one snippet per page slot as the consumer pulls
/// it — what XmlCorpus::ServeQuery returns.
///
/// The page is owned by the session (stable across moves), so slot i of
/// the stream always describes page()[i]. The session holds a pin on the
/// view it serves, so corpus mutations while the stream is live never
/// affect it — the stream drains against the epoch it opened on. The
/// corpus object itself must still outlive the session (it owns the cache
/// and the stats registry); destruction resolves undelivered slots as
/// cancelled, and folds the per-document stage stats plus the
/// stream's own counters ("stream.*" pseudo-stages) into the corpus
/// StageStatsRegistry.
class CorpusQueryStream {
 public:
  CorpusQueryStream(CorpusQueryStream&&) noexcept = default;

  /// \brief The merged ranked hits, best score first (slot i <-> page()[i]).
  ///
  /// Under page-gated serving (CorpusServingOptions::page_size > 0) the
  /// page grows as the search settles slots: entry i is stable and safe to
  /// read once slot i's event has been delivered, but size() and iteration
  /// are only meaningful after the stream drains. Blocking-mode pages are
  /// complete from the start.
  const std::vector<CorpusResult>& page() const { return *page_; }
  SnippetStream& stream() { return session_.stream(); }
  void Cancel() { session_.Cancel(); }
  StreamStats Stats() const { return session_.Stats(); }

  /// Incremental-search counters of this page (page-gated serving only;
  /// empty stats on a blocking-mode stream). Call it from the consuming
  /// thread, between pulls — a point-in-time snapshot; `finished` turns
  /// true once the search has settled every slot.
  TopKSearchStats SearchStats() const;

  /// True once any slot tripped the QueryBudget node-visit cap: the stream
  /// still drains (later slots emit kResourceExhausted) and everything
  /// emitted before the trip stands — a truncated page, not a failed one.
  bool degraded() const { return degraded_->load(std::memory_order_relaxed); }

  /// Indexed nodes charged against QueryBudget::max_node_visits so far.
  size_t nodes_visited() const {
    return nodes_visited_->load(std::memory_order_relaxed);
  }

 private:
  friend class XmlCorpus;
  CorpusQueryStream(ServingSession session,
                    const std::vector<CorpusResult>* page,
                    internal::TopKCoordinator* coordinator,
                    const std::atomic<bool>* degraded,
                    const std::atomic<size_t>* nodes_visited)
      : session_(std::move(session)),
        page_(page),
        coordinator_(coordinator),
        degraded_(degraded),
        nodes_visited_(nodes_visited) {}

  ServingSession session_;
  // Everything below is owned by session_'s payload.
  const std::vector<CorpusResult>* page_;
  internal::TopKCoordinator* coordinator_;  ///< null for blocking mode
  const std::atomic<bool>* degraded_;
  const std::atomic<size_t>* nodes_visited_;
};

/// \brief A named collection of loaded databases with epoch-published
/// snapshots (see the file comment for the mutation model).
class XmlCorpus {
 public:
  // ------------------------------------------------------------- mutation
  //
  // Every mutator builds the next CorpusView off the serving path and
  // publishes it atomically; in-flight queries keep the view they pinned.
  // Mutators serialize against each other and are safe concurrently with
  // any number of readers. Precise failure modes:
  //   * duplicate add            -> kAlreadyExists
  //   * remove of an absent name -> kNotFound
  //   * malformed XML            -> kParseError (nothing published)
  //   * any mutation after BeginShutdown -> kFailedPrecondition

  /// Parses and adds a document, publishing a new epoch on success.
  Status AddDocument(const std::string& name, std::string_view xml);

  /// Adds an already-loaded database, publishing a new epoch on success.
  Status AddDatabase(const std::string& name, XmlDatabase db);
  Status AddDatabase(const std::string& name,
                     std::shared_ptr<const XmlDatabase> db);

  /// Removes the document registered under `name`, publishing a new epoch
  /// and invalidating the removed instance's cached snippets (after the
  /// publish — see the file comment). Queries pinned to older epochs keep
  /// serving the document until they drain. A snapshot-backed document is
  /// hidden (masked out of the view) rather than erased — the mapping is
  /// immutable — which serves identically.
  Status RemoveDocument(std::string_view name);

  /// \brief Attaches an open mmap-backed snapshot (corpus_snapshot.h): its
  /// documents become visible by name underneath the in-memory overlay,
  /// decoding lazily on first touch. Publishes a new epoch; replaces any
  /// previously attached snapshot (whose mapping stays alive until pinned
  /// readers drain). kAlreadyExists when a snapshot name collides with a
  /// registered overlay document; kFailedPrecondition after BeginShutdown.
  /// Assigns the snapshot's instance-id range for cache scoping (the
  /// pointer is taken mutable for exactly that; views hold it const).
  Status AttachSnapshot(std::shared_ptr<CorpusSnapshot> snapshot);

  /// \brief Writes every visible document of the current view to `path` as
  /// one corpus snapshot image (faulting snapshot-backed documents in as
  /// needed). The result reopens via CorpusSnapshot::Open / AttachSnapshot.
  Status SaveSnapshot(const std::string& path) const;

  /// Fault-in / open counters of the attached snapshot, or nullopt when no
  /// snapshot is attached (the HTTP /stats "snapshot" object).
  std::optional<CorpusSnapshotStats> SnapshotStatsSnapshot() const;

  /// \brief Marks the corpus shutting down: every subsequent mutator fails
  /// with kFailedPrecondition. Serving continues against the last
  /// published view (drain traffic, then destroy). Idempotent.
  void BeginShutdown();

  // -------------------------------------------------------------- reading

  /// Pins the current view. Hold the pin for the lifetime of one logical
  /// read (a query, an admission ticket) and pass it as every serving
  /// call's `pin`, so every step of the read sees the same snapshot.
  CorpusPin PinView() const { return views_.Acquire(); }

  /// Epoch / pinned-reader / retired-view counters (see EpochStats).
  EpochStats EpochStatsSnapshot() const { return views_.Stats(); }

  /// The database registered under `name` in the CURRENT view, or nullptr.
  /// The raw pointer is kept alive only by the current view — a removal
  /// publishing a new epoch can free it once every pin drains. Callers
  /// that outlive one statement should hold a pin (PinView) and resolve
  /// through it instead.
  const XmlDatabase* Find(std::string_view name) const;

  /// Registered names in the current view, sorted.
  std::vector<std::string> DocumentNames() const;

  size_t size() const { return PinView()->VisibleCount(); }

  /// \brief Searches every document and merges the hits best-score-first
  /// (ties: document name, then document order).
  ///
  /// The sequential document loop on the calling thread: each document
  /// that can hold a hit (CorpusView::MatchingDocs) is faulted in,
  /// searched and ranked in name order, then the hits are stable-sorted
  /// into the page. A fault-in or engine failure reports the first failing
  /// document's error. `serving` is unread; it stays only because the
  /// repository benchmark (perfbench/) passes it.
  ///
  /// Searches exactly `pin`'s snapshot; an empty pin pins the current view
  /// for the duration of the call.
  Result<std::vector<CorpusResult>> SearchAll(
      const Query& query, const SearchEngine& engine,
      const RankingOptions& ranking = {},
      const CorpusServingOptions& serving = {},
      const CorpusPin& pin = {}) const;

  /// \brief Incremental top-k search: the first `k` entries of SearchAll's
  /// merged page, computed with early termination.
  ///
  /// Each document becomes a lazy scored-result producer
  /// (SearchEngine::OpenIncremental) with a sound score upper bound, and a
  /// threshold bound-merge releases a page slot as soon as no producer's
  /// bound can still place a hit before it — documents whose bound never
  /// reaches the page are never fully enumerated. Snapshot documents with a
  /// directory score bound (CorpusView::MatchingDocs) wait in a heap
  /// ordered by bound, then name, and are faulted in and opened only once
  /// their bound could still place a hit before the current front; the
  /// rest (overlay documents, engines without a bound, keyword-less
  /// queries) open up front. The merge runs on the calling thread with the
  /// same pull schedule as page-gated ServeQuery, so both do the same work
  /// (equal TopKSearchStats counters). The returned page is byte-identical
  /// to SearchAll(...) truncated to its first k entries, for every engine
  /// that honors the OpenIncremental and DocumentScoreBound contracts; only
  /// the work done differs. Any k is valid, including
  /// std::numeric_limits<size_t>::max() (the whole SearchAll page).
  ///
  /// `serving` is unread (`k` is explicit); like SearchAll's, it stays only
  /// because the repository benchmark passes it. k == 0 returns an empty
  /// page without searching. Errors: a failure in a document the search
  /// opens (fault-in, open or pull) reports exactly the error SearchAll
  /// reports — the lowest failing document in name order, since every
  /// candidate named below the failure is then opened and drained too. A
  /// document the bound never opens cannot fail the search, so SearchTopK
  /// may succeed where SearchAll reports a fault-in failure. `stats`
  /// (optional) receives the search's cost counters. An empty pin pins the
  /// current view for the duration of the call.
  Result<std::vector<CorpusResult>> SearchTopK(
      const Query& query, const SearchEngine& engine,
      const RankingOptions& ranking, const CorpusServingOptions& serving,
      size_t k, TopKSearchStats* stats = nullptr,
      const CorpusPin& pin = {}) const;

  /// \brief Generates one snippet per merged hit — the serving path for a
  /// cross-corpus result page.
  ///
  /// Hits of the same document share one SnippetContext (statistics,
  /// entity/key and instance lookups are computed once per result), and the
  /// batch runs on the calling thread with deterministic ordering: output
  /// i corresponds to corpus_results[i]. Fails with the hit's index and
  /// document name if a hit references an unknown document or an invalid
  /// result. When a snippet cache is enabled, each hit's signature is
  /// consulted first and only the misses generate; output stays
  /// byte-identical to uncached serving.
  ///
  /// Pass the pin the hits were searched under when mutations may be in
  /// flight — hits name documents of THAT snapshot. An empty pin pins the
  /// current view for the duration of the call.
  Result<std::vector<Snippet>> GenerateSnippets(
      const Query& query, const std::vector<CorpusResult>& corpus_results,
      const SnippetOptions& options, const CorpusPin& pin = {}) const;

  /// \brief The streaming core behind GenerateSnippets: a slot stream over
  /// `corpus_results` (snippet/snippet_stream.h).
  ///
  /// Cache hits (when the snippet cache is enabled) are emitted the moment
  /// the stream opens, before any miss computes. `corpus_results` and the
  /// corpus are borrowed and must outlive the session. Fails up front —
  /// with the exact GenerateSnippets error — when a hit references an
  /// unknown document. The session holds `pin` — or, when it is empty, a
  /// pin on the current view — until it is destroyed.
  Result<ServingSession> StreamSnippets(
      const Query& query, const std::vector<CorpusResult>& corpus_results,
      const SnippetOptions& options, const StreamOptions& stream,
      const CorpusPin& pin = {}) const;

  /// \brief End-to-end streamed serving. The returned CorpusQueryStream
  /// owns the page AND a pin on the served view, so the caller only needs
  /// to keep the corpus object alive — concurrent mutations never touch a
  /// live stream.
  ///
  /// With serving.page_size == 0: search + rank the whole corpus (blocking
  /// — ranking is global), then stream one snippet per page slot as the
  /// consumer pulls. With page_size > 0: the incremental top-k path — the
  /// stream opens gated before any searching happens, each pull that finds
  /// its slot unsettled drives the threshold merge (SearchTopK) one step
  /// on the consumer's thread, and each slot computes the moment its rank
  /// settles, so the first snippets arrive while the tail of the page is
  /// still unsearched. The page (and its snippets) is byte-identical between the
  /// two modes; `engine` is borrowed until the session is destroyed.
  /// Mid-search failures surface per slot (every unreleased slot emits the
  /// search error; Collect reports the lowest one) rather than failing
  /// ServeQuery itself, which has already returned by then.
  ///
  /// Serves exactly `pin`'s snapshot (the HTTP layer passes the admission
  /// ticket's pin, so one request observes one epoch end to end); an empty
  /// pin pins the current view at entry.
  Result<CorpusQueryStream> ServeQuery(const Query& query,
                                       const SearchEngine& engine,
                                       const RankingOptions& ranking,
                                       const CorpusServingOptions& serving,
                                       const SnippetOptions& options,
                                       const StreamOptions& stream,
                                       const CorpusPin& pin = {}) const;

  /// \brief Turns on the cross-query snippet cache for GenerateSnippets.
  ///
  /// Document removal invalidates the removed instance's entries
  /// automatically (scoped by the epoch transition — see the file
  /// comment); Invalidate/Clear on snippet_cache() are the manual hooks.
  /// Calling again replaces the cache (and drops its contents). Unlike the
  /// mutators, this is NOT safe concurrently with serving — enable the
  /// cache before traffic starts.
  void EnableSnippetCache(const SnippetCache::Options& options = {});

  /// The enabled cache, or nullptr. Exposes stats, Invalidate and Clear.
  SnippetCache* snippet_cache() const { return snippet_cache_.get(); }

  /// \brief Cumulative serving-time breakdown: the pseudo-stage "search"
  /// (the wall time of every SearchAll, SearchTopK and page-gated search,
  /// fault-in included) plus each snippet pipeline stage, aggregated over
  /// all pages served by this corpus.
  std::vector<StageStat> StageStatsSnapshot() const {
    return stage_stats_.Snapshot();
  }
  void ResetStageStats() { stage_stats_.Reset(); }

 private:
  /// Session-owned producer state of one streamed page (defined in
  /// corpus.cc): the pinned view, the query copy, the page (owned or
  /// borrowed), per-document state, per-slot cache keys and, when gated,
  /// the top-k coordinator.
  struct StreamPayload;

  /// The one open path of StreamSnippets and both ServeQuery modes.
  /// `payload->pin`, `query` and `page` must be set. Without a coordinator
  /// the page is known now: every document is resolved up front and the
  /// cache is probed here. With one, slots arrive as the coordinator
  /// releases them and probe the cache when they compute.
  Result<CorpusQueryStream> OpenStream(std::shared_ptr<StreamPayload> payload,
                                       const SnippetOptions& options,
                                       const StreamOptions& stream) const;

  /// The epoch-published document table. Mutators hold
  /// views_.writer_mutex() across their read-copy-update sequence (which
  /// also guards next_instance_ / shutdown_); readers only Acquire.
  EpochDomain<CorpusView> views_;
  uint64_t next_instance_ = 1;  ///< guarded by views_.writer_mutex()
  bool shutdown_ = false;       ///< guarded by views_.writer_mutex()
  /// Shared by every document; keys carry the registration's cache_id.
  std::unique_ptr<SnippetCache> snippet_cache_;
  /// Observability only (mutated by const serving calls): internally
  /// synchronized, never affects results.
  mutable StageStatsRegistry stage_stats_;
};

}  // namespace extract

#endif  // EXTRACT_SEARCH_CORPUS_H_

#include "search/corpus.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "common/fault.h"
#include "snippet/snippet_context.h"
#include "snippet/snippet_service.h"

namespace extract {

namespace {

/// The merged-page order: best score first, ties by document name, then
/// document order. A strict weak ordering shared by SearchAll's sort and
/// the top-k bound-merge, so both produce the same page.
bool CorpusHitBefore(const CorpusResult& a, const CorpusResult& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.document != b.document) return a.document < b.document;
  return a.result.root < b.result.root;
}

/// Heap comparator putting the hit that appears *first* in the page order
/// at the front of a std::push_heap/pop_heap max-heap.
bool CorpusHitWorse(const CorpusResult& a, const CorpusResult& b) {
  return CorpusHitBefore(b, a);
}

}  // namespace

bool CorpusView::IsHidden(std::string_view name) const {
  if (hidden == nullptr) return false;
  return std::binary_search(hidden->begin(), hidden->end(), name);
}

size_t CorpusView::VisibleCount() const {
  size_t count = documents.size();
  if (snapshot != nullptr) {
    count += snapshot->doc_count();
    // Hidden names are always live snapshot names (RemoveDocument only
    // hides what is visible), so the subtraction is exact.
    if (hidden != nullptr) count -= hidden->size();
  }
  return count;
}

bool CorpusView::Contains(std::string_view name) const {
  if (documents.find(name) != documents.end()) return true;
  if (snapshot == nullptr || IsHidden(name)) return false;
  return snapshot->FindIndex(name) >= 0;
}

namespace {

/// Merges the overlay (name-ordered map) with name-ordered snapshot entries.
/// Visible names never collide across the layers (AttachSnapshot and
/// AddDatabase both reject the overlap), so plain alternation suffices.
std::vector<CorpusView::DocEntry> MergeWithOverlay(
    const std::map<std::string, CorpusDocument, std::less<>>& overlay,
    std::vector<CorpusView::DocEntry> snapshot_entries) {
  if (overlay.empty()) return snapshot_entries;
  std::vector<CorpusView::DocEntry> out;
  out.reserve(overlay.size() + snapshot_entries.size());
  auto it = overlay.begin();
  auto snap = snapshot_entries.begin();
  while (it != overlay.end() || snap != snapshot_entries.end()) {
    if (snap == snapshot_entries.end() ||
        (it != overlay.end() && it->first < snap->name)) {
      out.push_back(CorpusView::DocEntry{it->first, &it->second});
      ++it;
    } else {
      out.push_back(*snap++);
    }
  }
  return out;
}

}  // namespace

std::vector<CorpusView::DocEntry> CorpusView::VisibleDocs() const {
  std::vector<DocEntry> snapshot_entries;
  const size_t snap_n = snapshot == nullptr ? 0 : snapshot->doc_count();
  snapshot_entries.reserve(snap_n);
  for (size_t i = 0; i < snap_n; ++i) {
    if (!IsHidden(snapshot->name(i))) {
      snapshot_entries.push_back(DocEntry{snapshot->name(i), nullptr, i});
    }
  }
  return MergeWithOverlay(documents, std::move(snapshot_entries));
}

Result<std::vector<CorpusView::DocEntry>> CorpusView::MatchingDocs(
    const Query& query, const SearchEngine& engine,
    const RankingOptions* ranking) const {
  // A keyword-less query gives the directory nothing to prune by: every
  // visible document, unbounded, so each search reports the engine's error.
  if (snapshot == nullptr || !engine.RequiresAllKeywords() ||
      query.keywords.empty()) {
    return VisibleDocs();
  }
  std::vector<DocEntry> snapshot_entries;
  EXTRACT_RETURN_IF_ERROR(snapshot->ForEachCandidate(
      query, [&](size_t i, std::span<const TermDocStats> stats) {
        const std::string_view name = snapshot->name(i);
        if (IsHidden(name)) return;
        DocEntry entry{name, nullptr, i};
        if (ranking != nullptr) {
          entry.score_bound = engine.DocumentScoreBound(*ranking, stats);
        }
        snapshot_entries.push_back(entry);
      }));
  return MergeWithOverlay(documents, std::move(snapshot_entries));
}

Result<ResolvedDocument> CorpusView::Materialize(const DocEntry& entry) const {
  ResolvedDocument out;
  if (entry.overlay != nullptr) {
    out.db = &entry.overlay->db;
    out.cache_id = &entry.overlay->cache_id;
    out.instance = entry.overlay->instance;
    return out;
  }
  Result<const CorpusSnapshot::SnapshotDocument*> doc =
      snapshot->Fault(entry.snapshot_index);
  EXTRACT_RETURN_IF_ERROR(doc.status());
  out.db = &(*doc)->db;
  out.cache_id = &(*doc)->cache_id;
  out.instance = (*doc)->instance;
  return out;
}

Result<ResolvedDocument> CorpusView::Resolve(std::string_view name) const {
  auto it = documents.find(name);
  if (it != documents.end()) {
    ResolvedDocument out;
    out.db = &it->second.db;
    out.cache_id = &it->second.cache_id;
    out.instance = it->second.instance;
    return out;
  }
  if (snapshot != nullptr && !IsHidden(name)) {
    const ptrdiff_t i = snapshot->FindIndex(name);
    if (i >= 0) {
      DocEntry entry;
      entry.name = name;
      entry.snapshot_index = static_cast<size_t>(i);
      return Materialize(entry);
    }
  }
  return Status::NotFound("document '" + std::string(name) +
                          "' not registered");
}

namespace internal {

/// \brief The threshold-algorithm bound-merge behind XmlCorpus::SearchTopK
/// and page-gated ServeQuery.
///
/// Each opened document is an incremental producer feeding a per-document
/// max-heap of scored-but-unreleased hits. Each step either releases the
/// best buffered hit (the front) — allowed exactly when no open producer's
/// bound and no unopened candidate's bound could still place a hit before
/// it under the page order — or does the work blocking that release:
/// opening the best-bound candidates, or pulling one chunk from the
/// blocking producers (with nothing buffered at all, from whichever holds
/// the highest bound). Because releases happen in the page order and the
/// bound test is conservative on ties, the released sequence is precisely
/// the k-prefix of SearchAll's merged page.
///
/// Candidates: documents with a finite directory score bound (snapshot
/// documents, see CorpusView::MatchingDocs) wait unopened — not faulted in
/// — in a heap ordered by bound, then name; everything else opens in Open.
/// An opened document's effective bound is the lesser of its producer's
/// bound and its directory bound.
///
/// Thread model: every step runs under mu_, so any number of stream
/// producers may call AdvanceForStream concurrently — they serialize, and
/// the search runs on whichever thread has nothing better to do. Drain
/// (the blocking SearchTopK driver) holds mu_ throughout. Both drivers run
/// the same steps, and each step pulls its producers one after another on
/// the stepping thread, so a blocking and a page-gated search of one page
/// do identical work.
class TopKCoordinator {
 public:
  TopKCoordinator(Query query, const SearchEngine* engine,
                  RankingOptions ranking, size_t k)
      : query_(std::move(query)),
        engine_(engine),
        ranking_(ranking),
        k_(k) {}

  /// Receives each released hit, in final page order, with mu_ held.
  /// Everything a released slot's consumers read must be in place when it
  /// returns — the gate releases the slot right after.
  std::function<void(CorpusResult&&)> on_release;

  /// Bound to the gated stream when serving; empty (every call a no-op)
  /// under blocking SearchTopK.
  StreamGate gate;

  /// The page length this coordinator settles at most.
  size_t k() const { return k_; }

  /// Lists the pinned view's candidate documents (CorpusView::MatchingDocs)
  /// and opens, in name order, every one without a directory score bound,
  /// faulting snapshot-backed documents in on the way; bounded ones wait in
  /// the candidate heap. The view must stay alive for the coordinator's
  /// lifetime — callers keep the pin in the session payload or on the
  /// stack. On failure (candidate listing, fault-in or open) the error is
  /// resolved with blocking-loop parity (ResolveFailureLocked).
  Status Open(const CorpusView& view) {
    std::lock_guard<std::mutex> lock(mu_);
    start_ = std::chrono::steady_clock::now();
    view_ = &view;
    Result<std::vector<CorpusView::DocEntry>> entries =
        view.MatchingDocs(query_, *engine_, &ranking_);
    if (!entries.ok()) {
      error_ = entries.status();
      open_ns_ += ElapsedNsSince(start_);
      FinishLocked();
      return error_;
    }
    // No usable bound (+infinity, or NaN from a misbehaving engine): open
    // now. A -infinity bound promises no hit at all: never open.
    const auto unbounded = [](const CorpusView::DocEntry& entry) {
      return !(entry.score_bound < kUnbounded);
    };
    producers_.reserve(static_cast<size_t>(
        std::count_if(entries->begin(), entries->end(), unbounded)));
    bool failed = false;
    for (const CorpusView::DocEntry& entry : *entries) {
      if (unbounded(entry)) failed = !OpenLocked(entry) || failed;
    }
    candidates_ = std::move(*entries);
    std::erase_if(candidates_, [&](const CorpusView::DocEntry& entry) {
      return unbounded(entry) ||
             entry.score_bound == -std::numeric_limits<double>::infinity();
    });
    std::make_heap(candidates_.begin(), candidates_.end(), CandidateAfter);
    open_ns_ += ElapsedNsSince(start_);
    if (failed) {
      ResolveFailureLocked();
      return error_;
    }
    if (k_ == 0) FinishLocked();
    return Status::OK();
  }

  /// Runs the search to completion (the SearchTopK driver).
  Status Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    while (!finished_) StepLocked();
    return error_;
  }

  /// One step on behalf of the gated stream; false iff already finished.
  bool AdvanceForStream() {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return false;
    StepLocked();
    return true;
  }

  TopKSearchStats StatsSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    TopKSearchStats s;
    s.producers = producers_.size();
    for (const Producer& p : producers_) {
      if (!p.producer) continue;
      s.candidates_total += p.producer->candidates_total();
      s.candidates_scored += p.producer->candidates_scored();
    }
    s.results_released = released_;
    s.pull_rounds = pull_rounds_;
    s.first_result_ns = first_result_ns_;
    s.finished = finished_;
    s.early_terminated = early_terminated_;
    return s;
  }

  /// Folds the search-time breakdown into `registry`: "search" (active
  /// open + merge + pull time, fault-in included), "search.enumerate" /
  /// "search.score" (summed producer counters) and "search.merge"
  /// (bound-merge bookkeeping).
  void RecordStageStats(StageStatsRegistry& registry) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t enumerate_ns = 0;
    uint64_t score_ns = 0;
    for (const Producer& p : producers_) {
      if (!p.producer) continue;
      enumerate_ns += p.producer->enumerate_ns();
      score_ns += p.producer->score_ns();
    }
    registry.Record("search", open_ns_ + merge_ns_ + pull_ns_);
    registry.Record("search.enumerate", enumerate_ns);
    registry.Record("search.score", score_ns);
    registry.Record("search.merge", merge_ns_);
  }

 private:
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  struct Producer {
    /// Owned: snapshot-backed names live in the mapped name arena, not in
    /// the overlay map, so there is no long-lived std::string to alias.
    std::string name;
    std::unique_ptr<ResultProducer> producer;  ///< null iff open failed
    /// The document's directory score bound (kUnbounded if none).
    double doc_bound = kUnbounded;
    /// Pulled-but-unreleased hits; max-heap under CorpusHitWorse, so the
    /// front is the hit appearing first in the page order.
    std::vector<CorpusResult> heap;
    Status status;  ///< sticky first error (open or pull)

    /// Bound on any hit a future pull may add; -infinity when exhausted.
    double Bound() const {
      if (!producer || producer->Exhausted()) {
        return -std::numeric_limits<double>::infinity();
      }
      return std::min(producer->ScoreUpperBound(), doc_bound);
    }
  };

  /// True when a document named `name` whose hits score at most `bound`
  /// could place one at or before (`score`, `document`) in the page order.
  /// Equal bound counts when the name would win the tie — including the
  /// front's own document (a same-score lower root may still arrive, since
  /// producers do not emit in score order).
  static bool CouldPrecede(double bound, std::string_view name, double score,
                           std::string_view document) {
    return bound > score || (bound == score && name <= document);
  }

  /// Candidate heap order: the top is the highest bound, ties to the lower
  /// name — the candidate most able to precede any front.
  static bool CandidateAfter(const CorpusView::DocEntry& a,
                             const CorpusView::DocEntry& b) {
    if (a.score_bound != b.score_bound) return a.score_bound < b.score_bound;
    return a.name > b.name;
  }

  /// Descent order among open producers: higher bound (this step's
  /// bounds_) first, ties to the lower name.
  bool ProducerFirst(size_t a, size_t b) const {
    if (bounds_[a] != bounds_[b]) return bounds_[a] > bounds_[b];
    return producers_[a].name < producers_[b].name;
  }

  /// Faults `entry` in and opens its producer, appending it to producers_
  /// (which may reallocate: no reference into producers_ survives this
  /// call). False when the fault-in or the open failed.
  bool OpenLocked(const CorpusView::DocEntry& entry) {
    Producer p;
    p.name = std::string(entry.name);
    p.doc_bound = entry.score_bound;
    Result<ResolvedDocument> doc = view_->Materialize(entry);
    if (doc.ok()) {
      Result<std::unique_ptr<ResultProducer>> opened =
          engine_->OpenIncremental(**doc->db, query_, ranking_, k_);
      if (opened.ok()) {
        p.producer = std::move(*opened);
      } else {
        p.status = opened.status();
      }
    } else {
      p.status = doc.status();
    }
    producers_.push_back(std::move(p));
    return producers_.back().status.ok();
  }

  void StepLocked() {
    if (finished_) return;
    if (released_ >= k_) {
      FinishLocked();
      return;
    }
    const auto merge_start = std::chrono::steady_clock::now();
    // The front: the best buffered hit across all heaps. Distinct document
    // names make CorpusHitBefore strict across producers, so the choice is
    // schedule-independent.
    const size_t n = producers_.size();
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (producers_[i].heap.empty()) continue;
      if (best == n || CorpusHitBefore(producers_[i].heap.front(),
                                       producers_[best].heap.front())) {
        best = i;
      }
    }
    pull_set_.clear();
    // Every producer's bound, once per step: ScoreUpperBound is not free.
    bounds_.resize(n);
    for (size_t i = 0; i < n; ++i) bounds_[i] = producers_[i].Bound();
    if (best < n) {
      const CorpusResult& front = producers_[best].heap.front();
      // Blockers: open producers that could still place a hit before it.
      size_t top_blocker = n;
      for (size_t i = 0; i < n; ++i) {
        const Producer& p = producers_[i];
        if (p.producer && !p.producer->Exhausted() &&
            CouldPrecede(bounds_[i], p.name, front.score, front.document)) {
          pull_set_.push_back(i);
          if (top_blocker == n || ProducerFirst(i, top_blocker)) {
            top_blocker = i;
          }
        }
      }
      // Unopened candidates that could precede the front open before the
      // blockers are pulled only when the best of them outranks every
      // blocker: pulling a higher-ranked producer first often raises the
      // front enough to rule the candidates out.
      if (!candidates_.empty() &&
          CouldPrecede(candidates_.front().score_bound,
                       candidates_.front().name, front.score,
                       front.document) &&
          (top_blocker == n ||
           CouldPrecede(candidates_.front().score_bound,
                        candidates_.front().name, bounds_[top_blocker],
                        producers_[top_blocker].name))) {
        const double score = front.score;
        const std::string document = front.document;  // opening invalidates
        merge_ns_ += ElapsedNsSince(merge_start);
        OpenCandidatesLocked(score, document);
        return;
      }
      if (pull_set_.empty()) {
        Producer& p = producers_[best];
        std::pop_heap(p.heap.begin(), p.heap.end(), CorpusHitWorse);
        CorpusResult hit = std::move(p.heap.back());
        p.heap.pop_back();
        ++released_;
        open_batch_ = 1;
        if (first_result_ns_ == 0) first_result_ns_ = ElapsedNsSince(start_);
        merge_ns_ += ElapsedNsSince(merge_start);
        if (on_release) on_release(std::move(hit));
        gate.ReleaseSlots(1);
        if (released_ >= k_) FinishLocked();
        return;
      }
      merge_ns_ += ElapsedNsSince(merge_start);
      PullLocked();
      return;
    }
    // Nothing buffered anywhere: finish if the corpus is exhausted, else
    // descend into the highest bound only — opening the best candidates, or
    // pulling the highest-bound producer. Pulling every producer here
    // would fully scan documents the bound-merge may never need (exactly
    // the work early termination exists to skip).
    size_t top = n;  // the open producer first in (bound, name) order
    for (size_t i = 0; i < n; ++i) {
      const Producer& p = producers_[i];
      if (p.producer && !p.producer->Exhausted() &&
          (top == n || ProducerFirst(i, top))) {
        top = i;
      }
    }
    if (!candidates_.empty() &&
        (top == n || CouldPrecede(candidates_.front().score_bound,
                                  candidates_.front().name, bounds_[top],
                                  producers_[top].name))) {
      merge_ns_ += ElapsedNsSince(merge_start);
      if (top == n) {
        OpenCandidatesLocked(-std::numeric_limits<double>::infinity(), {});
      } else {
        const std::string name = producers_[top].name;  // opening invalidates
        OpenCandidatesLocked(bounds_[top], name);
      }
      return;
    }
    merge_ns_ += ElapsedNsSince(merge_start);
    if (top == n) {
      FinishLocked();
      return;
    }
    pull_set_.push_back(top);
    PullLocked();
  }

  /// Opens up to open_batch_ of the best candidates that could precede
  /// (`score`, `document`), then pulls each of them once. The batch doubles
  /// until the next release, so a search that must open many documents
  /// takes logarithmically many steps, while one whose bounds are tight
  /// opens about one document per released hit.
  void OpenCandidatesLocked(double score, const std::string& document) {
    const auto open_start = std::chrono::steady_clock::now();
    pull_set_.clear();
    while (pull_set_.size() < open_batch_ && !candidates_.empty() &&
           CouldPrecede(candidates_.front().score_bound,
                        candidates_.front().name, score, document)) {
      std::pop_heap(candidates_.begin(), candidates_.end(), CandidateAfter);
      const CorpusView::DocEntry entry = candidates_.back();
      candidates_.pop_back();
      if (!OpenLocked(entry)) {
        open_ns_ += ElapsedNsSince(open_start);
        ResolveFailureLocked();
        return;
      }
      pull_set_.push_back(producers_.size() - 1);
    }
    open_ns_ += ElapsedNsSince(open_start);
    open_batch_ *= 2;
    PullLocked();
  }

  /// Pulls one chunk from each producer of pull_set_ in turn; a failed
  /// pull ends the round and resolves the search's error.
  void PullLocked() {
    ++pull_rounds_;
    const auto pull_start = std::chrono::steady_clock::now();
    for (size_t i : pull_set_) {
      Producer& p = producers_[i];
      std::vector<RankedResult> buf;
      p.status = p.producer->Pull(&buf);
      if (!p.status.ok()) {
        pull_ns_ += ElapsedNsSince(pull_start);
        ResolveFailureLocked();
        return;
      }
      for (RankedResult& r : buf) {
        p.heap.push_back(CorpusResult{p.name, std::move(r.result), r.score});
        std::push_heap(p.heap.begin(), p.heap.end(), CorpusHitWorse);
      }
    }
    pull_ns_ += ElapsedNsSince(pull_start);
  }

  /// Blocking-loop error parity: the sequential document loop reports the
  /// first failure in name order, and it searches each document to
  /// completion before moving on — so every candidate named below the
  /// lowest known failure is opened (if it is still waiting) and drained
  /// to exhaustion first, in case it fails too.
  void ResolveFailureLocked() {
    const auto resolve_start = std::chrono::steady_clock::now();
    size_t f = producers_.size();
    for (size_t i = 0; i < producers_.size(); ++i) {
      if (!producers_[i].status.ok() &&
          (f == producers_.size() || producers_[i].name < producers_[f].name)) {
        f = i;
      }
    }
    const std::string failed_name = producers_[f].name;
    std::vector<CorpusView::DocEntry> below;
    for (const CorpusView::DocEntry& entry : candidates_) {
      if (entry.name < failed_name) below.push_back(entry);
    }
    std::erase_if(candidates_, [&](const CorpusView::DocEntry& entry) {
      return entry.name < failed_name;
    });
    std::make_heap(candidates_.begin(), candidates_.end(), CandidateAfter);
    for (const CorpusView::DocEntry& entry : below) OpenLocked(entry);

    std::vector<size_t> order(producers_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return producers_[a].name < producers_[b].name;
    });
    for (size_t i : order) {
      if (producers_[i].name >= failed_name) break;
      Producer& p = producers_[i];
      std::vector<RankedResult> buf;
      while (p.status.ok() && p.producer && !p.producer->Exhausted()) {
        buf.clear();
        Status st = p.producer->Pull(&buf);
        if (!st.ok()) p.status = st;
      }
      if (!p.status.ok()) {
        f = i;
        break;
      }
    }
    error_ = producers_[f].status;
    open_ns_ += ElapsedNsSince(resolve_start);
    FinishLocked();
  }

  void FinishLocked() {
    if (finished_) return;
    finished_ = true;
    early_terminated_ = !candidates_.empty();
    for (const Producer& p : producers_) {
      if (p.producer && !p.producer->Exhausted()) {
        early_terminated_ = true;
        break;
      }
    }
    if (error_.ok()) {
      gate.CompleteUpstream(released_);
    } else {
      gate.FailUpstream(error_);
    }
  }

  const Query query_;
  const SearchEngine* engine_;
  const RankingOptions ranking_;
  const size_t k_;

  mutable std::mutex mu_;
  const CorpusView* view_ = nullptr;  ///< the pinned view, set by Open
  std::vector<Producer> producers_;   ///< opening order
  /// Unopened bounded documents; heap under CandidateAfter.
  std::vector<CorpusView::DocEntry> candidates_;
  std::vector<size_t> pull_set_;  ///< scratch, reused across steps
  std::vector<double> bounds_;    ///< Producer::Bound() of this step
  size_t open_batch_ = 1;  ///< see OpenCandidatesLocked
  size_t released_ = 0;
  size_t pull_rounds_ = 0;
  /// Open, candidate-open and failure-resolution batches, fault-in
  /// included: each batch is timed as a whole.
  uint64_t open_ns_ = 0;
  uint64_t merge_ns_ = 0;
  uint64_t pull_ns_ = 0;
  uint64_t first_result_ns_ = 0;
  std::chrono::steady_clock::time_point start_;
  bool finished_ = false;
  bool early_terminated_ = false;
  Status error_;
};

}  // namespace internal

Status XmlCorpus::AddDocument(const std::string& name, std::string_view xml,
                              const LoadOptions& options) {
  // Parse and index outside the writer lock: loading is the expensive part
  // of a mutation, and nothing serving-visible happens until AddDatabase
  // publishes. A malformed document fails here with nothing published.
  auto db = XmlDatabase::Load(xml, options);
  EXTRACT_RETURN_IF_ERROR(db.status());
  return AddDatabase(name, std::move(*db));
}

Status XmlCorpus::AddDatabase(const std::string& name, XmlDatabase db) {
  return AddDatabase(name, std::make_shared<const XmlDatabase>(std::move(db)));
}

Status XmlCorpus::AddDatabase(const std::string& name,
                              std::shared_ptr<const XmlDatabase> db) {
  // Read-copy-update under the writer mutex: copy the current view
  // (shallow — documents are shared_ptrs), add the new registration,
  // publish. Readers pinned to older epochs are untouched.
  std::lock_guard<std::mutex> writer(views_.writer_mutex());
  if (shutdown_) {
    return Status::FailedPrecondition("corpus is shutting down; add of '" +
                                      name + "' rejected");
  }
  CorpusPin current = views_.Acquire();
  if (current->documents.find(name) != current->documents.end() ||
      (current->snapshot != nullptr && !current->IsHidden(name) &&
       current->snapshot->FindIndex(name) >= 0)) {
    return Status::AlreadyExists("document '" + name +
                                 "' already registered");
  }
  CorpusView next = *current;
  CorpusDocument doc;
  doc.db = std::move(db);
  doc.instance = next_instance_++;
  doc.cache_id = name + "@" + std::to_string(doc.instance);
  next.documents.emplace(name, std::move(doc));
  // Last failable step before the publish: a fired fault means the whole
  // mutation fails with NOTHING published — in-flight readers keep the old
  // view and a retry starts clean (a fresh instance id).
  EXTRACT_INJECT_FAULT("epoch.publish");
  views_.Publish(std::move(next));
  // No cache invalidation needed: a fresh instance id means no cached
  // entry — from any epoch, under any interleaving — can name this
  // registration.
  return Status::OK();
}

Status XmlCorpus::RemoveDocument(std::string_view name) {
  std::string cache_id;
  {
    std::lock_guard<std::mutex> writer(views_.writer_mutex());
    if (shutdown_) {
      return Status::FailedPrecondition("corpus is shutting down; remove of '" +
                                        std::string(name) + "' rejected");
    }
    CorpusPin current = views_.Acquire();
    auto it = current->documents.find(name);
    if (it != current->documents.end()) {
      cache_id = it->second.cache_id;
      CorpusView next = *current;
      next.documents.erase(next.documents.find(name));
      EXTRACT_INJECT_FAULT("epoch.publish");
      views_.Publish(std::move(next));
    } else {
      // Snapshot-backed document: the mapping is immutable, so removal
      // masks the name out of the view instead (copy-on-write hidden set —
      // older epochs keep the unmasked set they pinned). Serving cannot
      // tell the difference; re-adding the name later registers a fresh
      // overlay instance on top of the still-hidden snapshot entry.
      ptrdiff_t index = -1;
      if (current->snapshot != nullptr && !current->IsHidden(name)) {
        index = current->snapshot->FindIndex(name);
      }
      if (index < 0) {
        return Status::NotFound("document '" + std::string(name) +
                                "' not registered");
      }
      cache_id = std::string(name) + "@" +
                 std::to_string(current->snapshot->instance_base() +
                                static_cast<uint64_t>(index));
      CorpusView next = *current;
      auto hidden =
          next.hidden == nullptr
              ? std::make_shared<std::vector<std::string>>()
              : std::make_shared<std::vector<std::string>>(*next.hidden);
      hidden->insert(
          std::lower_bound(hidden->begin(), hidden->end(), name),
          std::string(name));
      next.hidden = std::move(hidden);
      EXTRACT_INJECT_FAULT("epoch.publish");
      views_.Publish(std::move(next));
    }
  }
  // Invalidate AFTER the publish: every new pin already misses the
  // document, so no new-epoch query can re-cache under this instance.
  // Queries pinned to older epochs may still Put entries of the retired
  // instance afterwards — harmless residue (the instance id never comes
  // back, so nothing can read them as current) aged out by the LRU.
  if (snippet_cache_) snippet_cache_->Invalidate(cache_id);
  return Status::OK();
}

Status XmlCorpus::AttachSnapshot(std::shared_ptr<CorpusSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("null snapshot");
  }
  std::lock_guard<std::mutex> writer(views_.writer_mutex());
  if (shutdown_) {
    return Status::FailedPrecondition(
        "corpus is shutting down; snapshot attach rejected");
  }
  CorpusPin current = views_.Acquire();
  // The overlay is small next to a snapshot, so probe each overlay name
  // against the snapshot's O(log n) directory rather than the reverse.
  for (const auto& [name, doc] : current->documents) {
    if (snapshot->FindIndex(name) >= 0) {
      return Status::AlreadyExists("document '" + name +
                                   "' already registered");
    }
  }
  // Reserve the snapshot's instance-id range so its documents get snippet
  // cache scoping like any registration (document i = base + i). The range
  // is monotonic and never reused; a failed publish below just skips ids.
  snapshot->SetInstanceBase(next_instance_);
  next_instance_ += snapshot->doc_count();
  CorpusView next = *current;
  next.snapshot = std::move(snapshot);
  next.hidden.reset();
  EXTRACT_INJECT_FAULT("epoch.publish");
  views_.Publish(std::move(next));
  return Status::OK();
}

Status XmlCorpus::SaveSnapshot(const std::string& path) const {
  CorpusPin pin = PinView();
  Result<CorpusSnapshotWriter> writer = CorpusSnapshotWriter::Create(path);
  EXTRACT_RETURN_IF_ERROR(writer.status());
  for (const CorpusView::DocEntry& entry : pin->VisibleDocs()) {
    ResolvedDocument doc;
    EXTRACT_ASSIGN_OR_RETURN(doc, pin->Materialize(entry));
    EXTRACT_RETURN_IF_ERROR(writer->Add(entry.name, **doc.db));
  }
  return writer->Finish();
}

std::optional<CorpusSnapshotStats> XmlCorpus::SnapshotStatsSnapshot() const {
  CorpusPin pin = PinView();
  if (pin->snapshot == nullptr) return std::nullopt;
  return pin->snapshot->Stats();
}

void XmlCorpus::BeginShutdown() {
  std::lock_guard<std::mutex> writer(views_.writer_mutex());
  shutdown_ = true;
}

void XmlCorpus::EnableSnippetCache(const SnippetCache::Options& options) {
  snippet_cache_ = std::make_unique<SnippetCache>(options);
}

const XmlDatabase* XmlCorpus::Find(std::string_view name) const {
  // A snapshot-backed document faults in here; a fault-in failure reads as
  // absent (nullptr), like every other invisible name.
  CorpusPin pin = PinView();
  Result<ResolvedDocument> doc = pin->Resolve(name);
  return doc.ok() ? doc->db->get() : nullptr;
}

std::vector<std::string> XmlCorpus::DocumentNames() const {
  CorpusPin pin = PinView();
  const std::vector<CorpusView::DocEntry> entries = pin->VisibleDocs();
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const CorpusView::DocEntry& entry : entries) {
    names.emplace_back(entry.name);
  }
  return names;
}

Result<std::vector<CorpusResult>> XmlCorpus::SearchAll(
    const Query& query, const SearchEngine& engine,
    const RankingOptions& ranking, const CorpusServingOptions& serving,
    const CorpusPin& pin) const {
  if (!pin) return SearchAll(query, engine, ranking, serving, PinView());
  const auto start = std::chrono::steady_clock::now();

  // The documents that can hold a hit, in name order — the loop order and
  // the page's tie-break. The pinned view is immutable, so entries are
  // stable for the whole call; snapshot-backed documents are NOT faulted
  // in yet, and under AND keyword semantics the ones the term directory
  // rules out never are.
  Result<std::vector<CorpusView::DocEntry>> entries =
      pin->MatchingDocs(query, engine, /*ranking=*/nullptr);
  if (!entries.ok()) {
    stage_stats_.Record("search", ElapsedNsSince(start));
    return entries.status();
  }

  std::vector<CorpusResult> out;
  for (const CorpusView::DocEntry& entry : *entries) {
    Result<ResolvedDocument> doc = pin->Materialize(entry);
    if (!doc.ok()) {
      stage_stats_.Record("search", ElapsedNsSince(start));
      return doc.status();
    }
    const XmlDatabase& db = **doc->db;
    Result<std::vector<QueryResult>> searched = engine.Search(db, query);
    if (!searched.ok()) {
      stage_stats_.Record("search", ElapsedNsSince(start));
      return searched.status();
    }
    for (RankedResult& ranked : RankResults(db, *searched, ranking)) {
      out.push_back(CorpusResult{std::string(entry.name),
                                 std::move(ranked.result), ranked.score});
    }
  }
  std::stable_sort(out.begin(), out.end(), CorpusHitBefore);
  stage_stats_.Record("search", ElapsedNsSince(start));
  return out;
}

Result<std::vector<CorpusResult>> XmlCorpus::SearchTopK(
    const Query& query, const SearchEngine& engine,
    const RankingOptions& ranking, const CorpusServingOptions& serving,
    size_t k, TopKSearchStats* stats, const CorpusPin& pin) const {
  if (!pin) {
    return SearchTopK(query, engine, ranking, serving, k, stats, PinView());
  }
  internal::TopKCoordinator coordinator(query, &engine, ranking, k);
  // No reserve(k): k only caps the page, and callers pass unbounded k to
  // drain the whole corpus. The page grows with what is actually released.
  std::vector<CorpusResult> page;
  coordinator.on_release = [&page](CorpusResult&& hit) {
    page.push_back(std::move(hit));
  };
  Status status = coordinator.Open(*pin);
  if (status.ok()) status = coordinator.Drain();
  coordinator.RecordStageStats(stage_stats_);
  if (stats != nullptr) *stats = coordinator.StatsSnapshot();
  if (!status.ok()) return status;
  return page;
}

/// Session-owned producer state of one streamed page. The compute closure,
/// the release hook and the finish hook read it through raw pointers; the
/// ServingSession keeps the shared_ptr alive until all of them are done.
struct XmlCorpus::StreamPayload {
  /// Generation state of one document, shared by all of that document's
  /// computed slots.
  struct Generator {
    SnippetService service;
    SnippetContext context;
    Generator(const XmlDatabase* db, const Query& query)
        : service(db), context(db, query) {}
  };

  /// One document the page references, resolved against the pinned view.
  struct PerDocument {
    const XmlDatabase* db = nullptr;
    /// Everything of the cache key but the result root; set when caching.
    SnippetCacheKeyPrefix key_prefix;
    /// Built for the document's first slot that must compute, so a fully
    /// warm page pays no per-query context construction at all.
    std::unique_ptr<Generator> generator;
  };

  /// The view this page serves against. Held for the session's lifetime,
  /// so every database the page references stays alive even if the corpus
  /// publishes new epochs (including removals) mid-stream.
  CorpusPin pin;
  Query query;
  /// ServeQuery owns its page here; StreamSnippets borrows the caller's.
  std::vector<CorpusResult> owned_page;
  const std::vector<CorpusResult>* page = nullptr;
  SnippetCache* cache = nullptr;
  /// By document name. Written only at open or, under page-gated serving,
  /// by the release hook with the coordinator mutex held; compute closures
  /// never read the map, only the per-slot entries below.
  std::map<std::string, PerDocument, std::less<>> documents;
  /// Parallel to the page slots, each entry written before its slot turns
  /// claimable (the gate's watermark publishes it). Slots served from the
  /// cache at open keep a null generator and an empty key.
  std::vector<Generator*> generators;
  std::vector<SnippetCacheKey> keys;
  /// The search driver of a page-gated stream; null when the page is known
  /// at open. Owned here so releases, computes and the finish hook all
  /// outlive it.
  std::unique_ptr<internal::TopKCoordinator> coordinator;

  /// Per-query resource caps (CorpusServingOptions::budget) plus the
  /// charge counters the compute closure bumps. Once one slot trips the
  /// node cap, every later charge fails too: emitted snippets stand, the
  /// rest of the page degrades to kResourceExhausted slot errors.
  QueryBudget budget;
  std::atomic<size_t> nodes_visited{0};
  std::atomic<bool> degraded{false};

  /// Charges `root`'s subtree against the node budget; kResourceExhausted
  /// (and the sticky degraded flag) once the cap is crossed. The charge
  /// happens before generation, so a slot never does over-cap work.
  Status ChargeNodes(const XmlDatabase& db, NodeId root) {
    if (budget.max_node_visits == 0) return Status::OK();
    const size_t cost =
        static_cast<size_t>(db.index().subtree_end(root) - root);
    const size_t seen =
        nodes_visited.fetch_add(cost, std::memory_order_relaxed) + cost;
    if (seen > budget.max_node_visits) {
      degraded.store(true, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "query budget exceeded: " + std::to_string(seen) +
          " node visits > max_node_visits (" +
          std::to_string(budget.max_node_visits) + ")");
    }
    return Status::OK();
  }

  /// The entry of document `name`, resolved against the pinned view (never
  /// the current one) on first sight — so a page searched under epoch E
  /// serves under epoch E even if the document was since removed.
  Result<PerDocument*> Document(const std::string& name,
                                const SnippetOptions& options) {
    auto it = documents.find(name);
    if (it == documents.end()) {
      ResolvedDocument resolved;
      EXTRACT_ASSIGN_OR_RETURN(resolved, pin->Resolve(name));
      it = documents.emplace(name, PerDocument{}).first;
      it->second.db = resolved.db->get();
      // Keys carry the pinned registration's cache_id, so entries can
      // never alias a different instance registered under the same name.
      if (cache != nullptr) {
        it->second.key_prefix =
            MakeSnippetCacheKeyPrefix(*resolved.cache_id, query, options);
      }
    }
    return &it->second;
  }

  /// The cache key of `hit` (a hit of `doc`); empty when not caching.
  SnippetCacheKey KeyOf(const PerDocument& doc, const CorpusResult& hit) const {
    if (cache == nullptr) return SnippetCacheKey{};
    return MakeSnippetCacheKey(doc.key_prefix, hit.result.root);
  }

  /// Readies `slot`, a hit of `doc`, to compute.
  void Prepare(size_t slot, PerDocument& doc, SnippetCacheKey key) {
    if (doc.generator == nullptr) {
      doc.generator = std::make_unique<Generator>(doc.db, query);
    }
    generators[slot] = doc.generator.get();
    keys[slot] = std::move(key);
  }
};

Result<CorpusQueryStream> XmlCorpus::OpenStream(
    std::shared_ptr<StreamPayload> payload, const SnippetOptions& options,
    const StreamOptions& stream) const {
  StreamPayload* state = payload.get();
  internal::TopKCoordinator* coordinator = state->coordinator.get();
  state->cache = snippet_cache_.get();

  StreamBuilder builder;
  builder.options = stream;
  builder.total_slots =
      coordinator != nullptr ? coordinator->k() : state->page->size();
  state->generators.resize(builder.total_slots);
  state->keys.resize(builder.total_slots);
  builder.pending.reserve(builder.total_slots);

  if (coordinator == nullptr) {
    // The page is known now. Resolve every document before any generation
    // work or cache probe, so an unknown name fails identically with and
    // without a cache.
    const std::vector<CorpusResult>& page = *state->page;
    const size_t n = page.size();
    std::vector<StreamPayload::PerDocument*> docs(n);
    for (size_t i = 0; i < n; ++i) {
      Result<StreamPayload::PerDocument*> doc =
          state->Document(page[i].document, options);
      if (!doc.ok()) {
        // Keep the historical message for the absent-name case (pinned by
        // the batch-error goldens); fault-in failures report their own.
        Status status = doc.status().code() == StatusCode::kNotFound
                            ? Status::NotFound("unknown document '" +
                                               page[i].document + "'")
                            : doc.status();
        return MakeBatchResultError(i, n, "", std::move(status));
      }
      docs[i] = *doc;
    }
    // Hits go live the moment the stream opens; `pending` keeps the miss
    // indices in increasing order, so collectors report the lowest failing
    // index of the full page (hits can never fail), matching uncached
    // serving exactly.
    for (size_t i = 0; i < n; ++i) {
      SnippetCacheKey key = state->KeyOf(*docs[i], page[i]);
      if (state->cache != nullptr) {
        if (std::shared_ptr<const Snippet> hit = state->cache->Get(key)) {
          builder.ready.push_back(SnippetEvent{i, hit->Clone()});
          continue;
        }
      }
      state->Prepare(i, *docs[i], std::move(key));
      builder.pending.push_back(i);
    }
  } else {
    // Page-gated: the stream opens before any searching happens, and each
    // slot turns claimable when the coordinator releases it. Reserved up
    // front: the release hook appends while compute closures index settled
    // slots, which is only race-free because the buffer never reallocates.
    state->owned_page.reserve(builder.total_slots);
    for (size_t i = 0; i < builder.total_slots; ++i) {
      builder.pending.push_back(i);
    }
    builder.advance = [coordinator] { return coordinator->AdvanceForStream(); };
    builder.gate = &coordinator->gate;
    coordinator->on_release = [state, options](CorpusResult&& hit) {
      // Runs with the coordinator mutex held, in final page order. Cannot
      // fail: the hit came out of a producer opened on this pinned view,
      // so its document is overlay-registered or already resident.
      const size_t slot = state->owned_page.size();
      StreamPayload::PerDocument& doc =
          **state->Document(hit.document, options);
      state->Prepare(slot, doc, state->KeyOf(doc, hit));
      state->owned_page.push_back(std::move(hit));
    };
    Status status = coordinator->Open(*state->pin);
    if (!status.ok()) {
      coordinator->RecordStageStats(stage_stats_);
      return status;
    }
  }

  builder.compute = [state, options](size_t slot) -> Result<Snippet> {
    const CorpusResult& hit = (*state->page)[slot];
    // A page known at open probed the cache there (its hits never reach
    // compute); gated slots were not known at open and probe now.
    if (state->coordinator != nullptr && state->cache != nullptr) {
      if (std::shared_ptr<const Snippet> cached =
              state->cache->Get(state->keys[slot])) {
        return cached->Clone();
      }
    }
    // Charged after the cache probe: the budget caps generation work and
    // cache hits do none.
    StreamPayload::Generator& gen = *state->generators[slot];
    EXTRACT_RETURN_IF_ERROR(
        state->ChargeNodes(*gen.service.db(), hit.result.root));
    Result<Snippet> snippet =
        gen.service.Generate(gen.context, hit.result, options);
    if (!snippet.ok() || state->cache == nullptr) return snippet;
    auto cached = std::make_shared<const Snippet>(std::move(*snippet));
    state->cache->Put(state->keys[slot], cached);
    return cached->Clone();
  };

  // The services are per-page, so their counters are exactly this page's
  // contribution; fold them into the corpus-lifetime breakdown when the
  // session ends (even when a slot failed or the stream was cancelled —
  // the stages that did run still cost time). The stream contributes its
  // own "stream.*" counters, a gated page its search time.
  StageStatsRegistry* registry = &stage_stats_;
  builder.on_finish = [registry, state](const StreamStats& stats) {
    for (const auto& [name, doc] : state->documents) {
      if (doc.generator == nullptr) continue;
      registry->Merge(doc.generator->service.StageStatsSnapshot());
    }
    MergeStreamStats(stats, *registry);
    if (state->coordinator != nullptr) {
      state->coordinator->RecordStageStats(*registry);
    }
  };
  builder.payload = std::move(payload);
  return CorpusQueryStream(std::move(builder).Open(), state->page, coordinator,
                           &state->degraded, &state->nodes_visited);
}

Result<ServingSession> XmlCorpus::StreamSnippets(
    const Query& query, const std::vector<CorpusResult>& corpus_results,
    const SnippetOptions& options, const StreamOptions& stream,
    const CorpusPin& pin) const {
  auto payload = std::make_shared<StreamPayload>();
  payload->pin = pin ? pin : PinView();
  payload->query = query;
  payload->page = &corpus_results;
  Result<CorpusQueryStream> opened =
      OpenStream(std::move(payload), options, stream);
  if (!opened.ok()) return opened.status();
  return std::move(opened->session_);
}

TopKSearchStats CorpusQueryStream::SearchStats() const {
  if (coordinator_ == nullptr) return TopKSearchStats{};
  return coordinator_->StatsSnapshot();
}

Result<CorpusQueryStream> XmlCorpus::ServeQuery(
    const Query& query, const SearchEngine& engine,
    const RankingOptions& ranking, const CorpusServingOptions& serving,
    const SnippetOptions& options, const StreamOptions& stream,
    const CorpusPin& pin) const {
  auto payload = std::make_shared<StreamPayload>();
  payload->pin = pin ? pin : PinView();
  payload->query = query;
  payload->budget = serving.budget;
  payload->page = &payload->owned_page;
  if (serving.page_size > 0) {
    payload->coordinator = std::make_unique<internal::TopKCoordinator>(
        query, &engine, ranking, serving.page_size);
  } else {
    Result<std::vector<CorpusResult>> page =
        SearchAll(query, engine, ranking, serving, payload->pin);
    if (!page.ok()) return page.status();
    payload->owned_page = std::move(*page);
  }
  return OpenStream(std::move(payload), options, stream);
}

Result<std::vector<Snippet>> XmlCorpus::GenerateSnippets(
    const Query& query, const std::vector<CorpusResult>& corpus_results,
    const SnippetOptions& options, const BatchOptions& batch,
    const CorpusPin& pin) const {
  // A collector over the slot-completion stream: open, drain every slot,
  // report the lowest failing index with its document name — byte-identical
  // to the historical parallel batch loop (pinned by the golden snapshots
  // and the caching equivalence harness).
  StreamOptions stream;
  stream.num_threads = batch.num_threads;
  Result<ServingSession> session =
      StreamSnippets(query, corpus_results, options, stream, pin);
  if (!session.ok()) return session.status();
  return session->stream().Collect([&corpus_results](size_t i) {
    return " (document '" + corpus_results[i].document + "')";
  });
}

}  // namespace extract

#include "snippet/snippet_stream.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>

#include "snippet/snippet_service.h"

namespace extract {

namespace internal {

/// The state of one stream. Everything but `cancelled` and `stats` is
/// touched only by the consumer's thread: by Next, and by the gate from
/// inside `advance`. Cancel and Stats may come from any thread.
struct SnippetStreamState {
  size_t total = 0;
  StreamOrder order = StreamOrder::kCompletion;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;

  std::function<Result<Snippet>(size_t)> compute;
  /// Cache hits, counted as emitted at open; delivered from `next_ready`.
  std::vector<SnippetEvent> ready;
  size_t next_ready = 0;
  /// Slots to compute, resolved in order from `next_pending`.
  std::vector<size_t> pending;
  size_t next_pending = 0;
  size_t delivered = 0;  ///< events handed to the consumer

  /// Upstream gate (incremental top-k serving; see StreamGate). An ungated
  /// stream keeps `released` at SIZE_MAX, so every pending slot computes.
  /// `pending_limit` is the effective pending count (shrunk by
  /// CompleteUpstream). After FailUpstream, unreleased slots emit
  /// `upstream_status` instead of computing.
  std::function<bool()> advance;
  size_t released = SIZE_MAX;
  size_t pending_limit = 0;
  bool upstream_done = false;  ///< no more advance() calls
  bool upstream_failed = false;
  Status upstream_status;

  std::atomic<bool> cancelled{false};
  std::mutex stats_mu;
  StreamStats stats;  ///< guarded by stats_mu

  void Count(const Result<Snippet>& snippet) {
    std::lock_guard<std::mutex> lock(stats_mu);
    ++stats.emitted;
    if (snippet.ok()) {
      ++stats.succeeded;
      if (stats.first_snippet_ns == 0) {
        stats.first_snippet_ns = std::max<uint64_t>(1, ElapsedNsSince(start));
      }
    } else if (snippet.status().code() == StatusCode::kCancelled) {
      ++stats.cancelled;
    } else if (snippet.status().code() == StatusCode::kDeadlineExceeded) {
      ++stats.deadline_expired;
    } else {
      ++stats.failed;
    }
  }

  /// True when pending slot `k` can resolve now: it is released, or it
  /// resolves without computing (cancellation, upstream failure).
  bool Resolvable(size_t k) const {
    return k < released || upstream_failed ||
           cancelled.load(std::memory_order_acquire);
  }

  /// Resolves pending slot `k`: cancelled, upstream-failed or
  /// deadline-expired without touching `compute`, else computed.
  Result<Snippet> Resolve(size_t k) {
    if (cancelled.load(std::memory_order_acquire)) {
      return Status::Cancelled("snippet stream cancelled");
    }
    if (k >= released) return upstream_status;
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded(
          "stream deadline expired before slot started");
    }
    // The library is exception-free by design, but a throwing compute is
    // contained: the slot emits an Internal error event, so every
    // consumption mode sees the failure and the stream still emits every
    // slot.
    try {
      return compute(pending[k]);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("snippet producer threw: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("snippet producer threw a non-exception");
    }
  }
};

}  // namespace internal

size_t SnippetStream::total_slots() const {
  return state_ == nullptr ? 0 : state_->total;
}

std::optional<SnippetEvent> SnippetStream::Next() {
  if (state_ == nullptr) return std::nullopt;
  internal::SnippetStreamState& s = *state_;
  for (;;) {
    const bool has_pending = s.next_pending < s.pending_limit;
    // A ready hit goes first; in slot order only once no pending slot
    // precedes it.
    if (s.next_ready < s.ready.size() &&
        (s.order == StreamOrder::kCompletion || !has_pending ||
         s.ready[s.next_ready].slot < s.pending[s.next_pending])) {
      ++s.delivered;
      return std::move(s.ready[s.next_ready++]);
    }
    if (!has_pending) return std::nullopt;
    if (s.Resolvable(s.next_pending)) {
      const size_t k = s.next_pending++;
      Result<Snippet> snippet = s.Resolve(k);
      s.Count(snippet);
      ++s.delivered;
      return SnippetEvent{s.pending[k], std::move(snippet)};
    }
    // Gated and the next slot is not settled yet: drive the search a step.
    if (s.upstream_done || !s.advance()) return std::nullopt;
  }
}

void SnippetStream::ForEach(const std::function<void(SnippetEvent)>& fn) {
  while (std::optional<SnippetEvent> event = Next()) fn(std::move(*event));
}

Result<std::vector<Snippet>> SnippetStream::Collect() {
  return Collect(nullptr);
}

Result<std::vector<Snippet>> SnippetStream::Collect(
    const std::function<std::string(size_t)>& extra) {
  if (state_ != nullptr && state_->delivered > 0) {
    // Enforce the fresh-stream precondition: events pulled before Collect
    // are gone, and returning their slots as empty snippets would be
    // silent page corruption.
    return Status::FailedPrecondition(
        "Collect requires a freshly opened stream; " +
        std::to_string(state_->delivered) +
        " event(s) were already consumed");
  }
  std::vector<Snippet> out(total_slots());
  std::vector<Status> statuses(out.size());
  while (std::optional<SnippetEvent> event = Next()) {
    if (event->snippet.ok()) {
      out[event->slot] = std::move(event->snippet).value();
    } else {
      statuses[event->slot] = event->snippet.status();
    }
  }
  // A gated stream's total shrinks when its search settles fewer slots
  // than planned; the slots past it never existed.
  const size_t n = total_slots();
  out.resize(n);
  // Report the lowest failing slot — the result a sequential loop would
  // have stopped at — regardless of delivery order.
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) {
      return MakeBatchResultError(i, n, extra ? extra(i) : "", statuses[i]);
    }
  }
  return out;
}

void SnippetStream::Cancel() {
  if (state_ == nullptr) return;
  state_->cancelled.store(true, std::memory_order_release);
}

bool SnippetStream::cancelled() const {
  return state_ != nullptr &&
         state_->cancelled.load(std::memory_order_acquire);
}

StreamStats SnippetStream::Stats() const {
  if (state_ == nullptr) return StreamStats{};
  std::lock_guard<std::mutex> lock(state_->stats_mu);
  return state_->stats;
}

ServingSession::~ServingSession() {
  if (stream_.state_ == nullptr) return;  // moved-from or empty
  // Every undelivered slot resolves now (unstarted ones as cancelled,
  // without computing; a no-op when fully consumed), so the finish hook
  // sees final stats.
  stream_.Cancel();
  while (stream_.Next()) {
  }
  if (on_finish_) on_finish_(stream_.Stats());
}

ServingSession StreamBuilder::Open() && {
  auto state = std::make_shared<internal::SnippetStreamState>();
  state->total = total_slots;
  state->order = options.order;
  state->start = std::chrono::steady_clock::now();
  if (options.deadline.count() > 0) {
    state->has_deadline = true;
    state->deadline = state->start + options.deadline;
  }
  state->compute = std::move(compute);
  state->pending = std::move(pending);
  state->pending_limit = state->pending.size();
  state->stats.total_slots = total_slots;
  if (advance) {
    // Gated: nothing computes until the upstream releases it.
    state->advance = std::move(advance);
    state->released = 0;
    if (gate != nullptr) gate->state_ = state;
  }
  // Pre-resolved slots (cache hits) count as emitted the moment the
  // stream opens.
  for (const SnippetEvent& event : ready) state->Count(event.snippet);
  state->ready = std::move(ready);

  ServingSession session;
  session.stream_.state_ = std::move(state);
  session.payload_ = std::move(payload);
  session.on_finish_ = std::move(on_finish);
  return session;
}

void StreamGate::ReleaseSlots(size_t n) {
  if (state_ == nullptr) return;
  state_->released += n;
}

void StreamGate::CompleteUpstream(size_t produced) {
  if (state_ == nullptr) return;
  internal::SnippetStreamState& s = *state_;
  s.upstream_done = true;
  if (produced < s.pending_limit) {
    // The planned-but-never-produced slots simply do not exist: shrink the
    // stream so the consumer finishes after the produced ones.
    s.total -= s.pending_limit - produced;
    s.pending_limit = produced;
    std::lock_guard<std::mutex> lock(s.stats_mu);
    s.stats.total_slots = s.total;
  }
}

void StreamGate::FailUpstream(Status status) {
  if (state_ == nullptr) return;
  state_->upstream_status = std::move(status);
  state_->upstream_failed = true;
  state_->upstream_done = true;
}

void MergeStreamStats(const StreamStats& stats, StageStatsRegistry& registry) {
  std::vector<StageStat> folded;
  auto add = [&folded](const char* name, size_t calls, uint64_t total_ns,
                       uint64_t max_ns) {
    if (calls == 0) return;
    StageStat stat;
    stat.name = name;
    stat.calls = calls;
    stat.total_ns = total_ns;
    stat.max_ns = max_ns;
    folded.push_back(std::move(stat));
  };
  add("stream.emitted", stats.emitted, 0, 0);
  add("stream.failed", stats.failed, 0, 0);
  add("stream.cancelled", stats.cancelled, 0, 0);
  add("stream.deadline_expired", stats.deadline_expired, 0, 0);
  add("stream.first_snippet", stats.succeeded > 0 ? 1 : 0,
      stats.first_snippet_ns, stats.first_snippet_ns);
  registry.Merge(folded);
}

}  // namespace extract

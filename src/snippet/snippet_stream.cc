#include "snippet/snippet_stream.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>

#include "common/thread_pool.h"
#include "snippet/snippet_service.h"

namespace extract {

namespace internal {

/// The shared state of one stream: claim cursor + event queue. Producers
/// (pool workers, the cancelling thread, the stealing consumer) claim slots
/// off `cursor` and Emit exactly one event per slot; the consumer drains
/// `ready` under `mu`.
struct SnippetStreamState {
  size_t total = 0;
  StreamOrder order = StreamOrder::kCompletion;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;

  /// Producer inputs, immutable after Open().
  std::function<Result<Snippet>(size_t)> compute;
  std::vector<size_t> pending;

  std::atomic<size_t> cursor{0};
  std::atomic<bool> cancelled{false};

  /// Upstream gate (incremental top-k serving; see StreamGate). Ungated
  /// streams keep the defaults, which make every pending slot claimable —
  /// the historical behaviour, bit for bit.
  ///
  /// `released` is the claimable prefix length of `pending` (SIZE_MAX =
  /// ungated); the coordinator stores with release order after writing the
  /// slot's page entry, and claimers load with acquire, so a claimed slot
  /// always sees its input. `pending_limit` is the effective pending count
  /// (shrunk by CompleteUpstream). On upstream failure the unreleased
  /// slots are still claimed normally but emit `upstream_status` instead
  /// of computing — claim-once discipline guarantees exactly one event per
  /// slot even when cancellation races the failure.
  std::atomic<size_t> released{SIZE_MAX};
  std::atomic<size_t> pending_limit{SIZE_MAX};
  std::atomic<bool> upstream_failed{false};
  std::atomic<bool> upstream_done{false};  ///< no more advance() calls
  Status upstream_status;  ///< written once before upstream_failed releases
  std::function<bool()> advance;

  std::mutex mu;
  std::condition_variable ready_cv;
  std::deque<SnippetEvent> ready;
  /// Slot-order mode: out-of-order events parked until their predecessors
  /// arrive (unique_ptr: SnippetEvent has no default constructor).
  std::vector<std::unique_ptr<SnippetEvent>> reorder;
  size_t next_slot = 0;   ///< slot-order: next slot to flush into `ready`
  size_t delivered = 0;   ///< events handed to the consumer
  StreamStats stats;

  void Emit(size_t slot, Result<Snippet> snippet) {
    std::lock_guard<std::mutex> lock(mu);
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
    if (order == StreamOrder::kCompletion) {
      ready.push_back(SnippetEvent{slot, std::move(snippet)});
    } else {
      reorder[slot] =
          std::make_unique<SnippetEvent>(SnippetEvent{slot, std::move(snippet)});
      while (next_slot < total && reorder[next_slot] != nullptr) {
        ready.push_back(std::move(*reorder[next_slot]));
        reorder[next_slot] = nullptr;
        ++next_slot;
      }
    }
    ready_cv.notify_all();
  }

  /// Claimable pending-index limit as of now: gated streams stop at the
  /// released watermark, except that cancellation and upstream failure
  /// extend claims to every remaining slot (each resolves as a cancelled /
  /// upstream-error event without computing).
  size_t ClaimLimit() const {
    size_t limit = pending_limit.load(std::memory_order_acquire);
    if (!cancelled.load(std::memory_order_acquire) &&
        !upstream_failed.load(std::memory_order_acquire)) {
      limit = std::min(limit, released.load(std::memory_order_acquire));
    }
    return limit;
  }

  bool HasClaimableSlot() const {
    return cursor.load(std::memory_order_relaxed) < ClaimLimit();
  }

  /// Invokes the upstream hook once. False when the stream has no upstream
  /// or the upstream already finished.
  bool AdvanceUpstream() {
    if (!advance) return false;
    if (upstream_done.load(std::memory_order_acquire)) return false;
    return advance();
  }

  /// Claims and finishes one pending slot: computed, or resolved as
  /// cancelled / deadline-expired / upstream-failed without touching
  /// `compute`. Returns false when no claims remain.
  bool RunOneSlot() {
    size_t k = cursor.load(std::memory_order_relaxed);
    for (;;) {
      if (k >= ClaimLimit()) return false;
      if (cursor.compare_exchange_weak(k, k + 1,
                                       std::memory_order_acq_rel)) {
        break;
      }
    }
    const size_t slot = pending[k];
    if (cancelled.load(std::memory_order_acquire)) {
      Emit(slot, Status::Cancelled("snippet stream cancelled"));
      return true;
    }
    if (upstream_failed.load(std::memory_order_acquire) &&
        k >= released.load(std::memory_order_acquire)) {
      Emit(slot, upstream_status);
      return true;
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      Emit(slot, Status::DeadlineExceeded(
                     "stream deadline expired before slot started"));
      return true;
    }
    // The library is exception-free by design, but a throwing compute is
    // contained. Letting it escape here would unwind into a pool worker's
    // loop (terminating the process) or, on the consumer-inline path, leak
    // a claimed slot and wedge the stream forever; instead the slot emits
    // an Internal error event, so every consumption mode sees the failure
    // and finishes.
    try {
      Emit(slot, compute(slot));
    } catch (const std::exception& e) {
      Emit(slot, Status::Internal(std::string("snippet producer threw: ") +
                                  e.what()));
    } catch (...) {
      Emit(slot, Status::Internal("snippet producer threw a non-exception"));
    }
    return true;
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
    {
      std::unique_lock<std::mutex> lock(s.mu);
      if (!s.ready.empty()) {
        SnippetEvent event = std::move(s.ready.front());
        s.ready.pop_front();
        ++s.delivered;
        return event;
      }
      if (s.delivered == s.total) return std::nullopt;
    }
    // Nothing ready: produce a slot ourselves rather than blocking — the
    // work-conserving step that keeps collectors deadlock-free on a
    // saturated pool. On a gated stream with no claimable slot, drive the
    // upstream search a step instead (the consumer doubles as the search
    // worker). Only when every claimable slot is in flight elsewhere and
    // the upstream is finished do we actually wait.
    if (!s.RunOneSlot() && !s.AdvanceUpstream()) {
      std::unique_lock<std::mutex> lock(s.mu);
      s.ready_cv.wait(lock, [&s] {
        return !s.ready.empty() || s.delivered == s.total ||
               s.HasClaimableSlot();
      });
    }
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
  const size_t n = total_slots();
  if (state_ != nullptr) {
    // Enforce the fresh-stream precondition: events pulled before Collect
    // are gone, and returning their slots as empty snippets would be
    // silent page corruption.
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->delivered > 0) {
      return Status::FailedPrecondition(
          "Collect requires a freshly opened stream; " +
          std::to_string(state_->delivered) +
          " event(s) were already consumed");
    }
  }
  std::vector<Snippet> out(n);
  std::vector<Status> statuses(n);
  while (std::optional<SnippetEvent> event = Next()) {
    if (event->snippet.ok()) {
      out[event->slot] = std::move(event->snippet).value();
    } else {
      statuses[event->slot] = event->snippet.status();
    }
  }
  // Report the lowest failing slot — the result a sequential loop would
  // have stopped at — regardless of completion order, exactly like the
  // historical batch paths this collector replaces.
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
  // Drain every unstarted claim right here: each emits its kCancelled
  // event immediately, and producer loops find no claims left — the pool
  // is freed without waiting for a worker to get scheduled.
  while (state_->RunOneSlot()) {
  }
}

bool SnippetStream::cancelled() const {
  return state_ != nullptr &&
         state_->cancelled.load(std::memory_order_acquire);
}

StreamStats SnippetStream::Stats() const {
  if (state_ == nullptr) return StreamStats{};
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

ServingSession::ServingSession() = default;
ServingSession::ServingSession(ServingSession&& other) noexcept = default;

ServingSession::~ServingSession() {
  if (stream_.state_ == nullptr) return;  // moved-from or empty
  // Unstarted slots resolve as cancelled (no-op when fully consumed), then
  // the group destructor waits for in-flight producers — after which no
  // code touches borrowed state, and the finish hook sees final stats.
  stream_.Cancel();
  group_.reset();
  if (on_finish_) on_finish_(stream_.Stats());
  payload_.reset();
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
  if (options.order == StreamOrder::kSlot) state->reorder.resize(total_slots);
  state->compute = std::move(compute);
  state->pending = std::move(pending);
  state->stats.total_slots = total_slots;
  state->pending_limit.store(state->pending.size(),
                             std::memory_order_relaxed);
  if (advance) {
    // Gated: nothing claimable until the upstream releases it. Bind the
    // gate before any producer can run.
    state->advance = std::move(advance);
    state->released.store(0, std::memory_order_relaxed);
    if (gate != nullptr) gate->state_ = state;
  }

  // Pre-resolved slots (cache hits) are live before any producer exists —
  // a fully warm stream never touches the pool at all.
  for (SnippetEvent& event : ready) {
    state->Emit(event.slot, std::move(event.snippet));
  }

  ServingSession session;
  session.stream_.state_ = state;
  session.payload_ = std::move(payload);
  session.on_finish_ = std::move(on_finish);

  // num_threads counts the consumer, so submit one fewer helper; on a pool
  // worker (or at width 1) submit none — the consumer produces lazily
  // inline, which is the sequential reference path byte for byte.
  size_t width =
      options.num_threads == 0 ? ThreadPool::ConfiguredThreads()
                               : options.num_threads;
  width = std::min(width, state->pending.size());
  if (width > 1 && !OnPoolWorker()) {
    session.group_ = std::make_unique<TaskGroup>(&SharedThreadPool());
    for (size_t w = 0; w + 1 < width; ++w) {
      session.group_->Submit([state] {
        // Work-conserving helper: compute a claimable slot, else drive the
        // upstream (gated streams), else retire.
        for (;;) {
          if (state->cancelled.load(std::memory_order_acquire)) break;
          if (state->RunOneSlot()) continue;
          if (state->AdvanceUpstream()) continue;
          break;
        }
      });
    }
  }
  return session;
}

void StreamGate::ReleaseSlots(size_t n) {
  if (state_ == nullptr || n == 0) return;
  state_->released.fetch_add(n, std::memory_order_release);
  // Wake a consumer waiting for claimable work. The empty critical section
  // orders the notify against the predicate check.
  { std::lock_guard<std::mutex> lock(state_->mu); }
  state_->ready_cv.notify_all();
}

void StreamGate::CompleteUpstream(size_t produced) {
  if (state_ == nullptr) return;
  internal::SnippetStreamState& s = *state_;
  s.upstream_done.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const size_t limit = s.pending_limit.load(std::memory_order_relaxed);
    if (produced < limit) {
      // The planned-but-never-produced slots simply do not exist: shrink
      // the stream so consumers finish after the produced ones. (The
      // slot-order reorder buffer keeps its original size; indices below
      // the new total stay valid.)
      s.total -= limit - produced;
      s.stats.total_slots = s.total;
      s.pending_limit.store(produced, std::memory_order_release);
    }
  }
  s.ready_cv.notify_all();
}

void StreamGate::FailUpstream(Status status) {
  if (state_ == nullptr) return;
  internal::SnippetStreamState& s = *state_;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.upstream_status = std::move(status);
  }
  s.upstream_failed.store(true, std::memory_order_release);
  s.upstream_done.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(s.mu);
  }
  s.ready_cv.notify_all();
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

// Streaming serving core: snippets delivered per slot as they complete.
//
// Every batch entry point of the library (SnippetService::GenerateBatch,
// XmlCorpus::GenerateSnippets) is a *collector* over the stream defined
// here — the slot-completion stream is
// the primary execution model, batching is just "collect the whole stream
// in slot order". The deterministic slot design (output slot i <-> input
// result i, every slot computed independently) is what makes this a pure
// refactor: collected output is byte-identical to the old batch loops,
// while streaming consumers see slot events the moment they finish.
//
//   ServingSession session = service.StreamBatch(ctx, results, options, {});
//   while (auto ev = session.stream().Next()) {           // pull
//     if (ev->snippet.ok()) Render(ev->slot, *ev->snippet);
//   }
//
// Layers:
//   * SnippetEvent — one per-slot completion: (slot, Result<Snippet>). The
//     status is the slot's raw pipeline status; batch decoration ("result
//     <i> of <n>: ...") is applied by collectors, so the streamed and
//     collected error shapes stay in sync.
//   * SnippetStream — the consumer handle: pull (Next), callback (ForEach),
//     batch collection (Collect), cooperative Cancel, per-request deadline,
//     and a StreamStats snapshot (emitted / cancelled / deadline-expired /
//     time-to-first-snippet). Delivery order is configurable: completion
//     order (lowest time-to-first-snippet) or slot order (a progressive
//     page render).
//   * ServingSession — the owning producer handle: holds the stream, the
//     pool TaskGroup computing pending slots, and whatever state the
//     producers read (contexts, pages, cache keys). Destroying a session
//     cancels whatever has not started and waits for in-flight slots, so
//     producers never outlive borrowed state.
//   * StreamBuilder — producer-side assembly, used by the service and
//     corpus entry points: pre-resolved slots (cache hits) are emitted
//     before any pending slot computes, pending slots are claimed off an
//     atomic cursor by up to num_threads workers — and by the consumer
//     itself whenever it would otherwise block, so a stream opened from
//     inside a pool task degrades to lazy inline production instead of
//     deadlocking the pool.
//
// Cancellation semantics: Cancel() drains every not-yet-started slot as a
// kCancelled event immediately (freeing the pool for other requests);
// slots already computing finish and emit normally. A deadline behaves
// like a timed cancel checked at slot start: slots that have not started
// by the deadline emit kDeadlineExceeded.

#ifndef EXTRACT_SNIPPET_SNIPPET_STREAM_H_
#define EXTRACT_SNIPPET_SNIPPET_STREAM_H_

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "snippet/snippet_tree.h"
#include "snippet/stage_stats.h"

namespace extract {

class TaskGroup;

namespace internal {
struct SnippetStreamState;
}  // namespace internal

/// How a SnippetStream hands events to its consumer.
enum class StreamOrder {
  /// As slots finish — minimizes time-to-first-snippet; the consumer
  /// reassembles by SnippetEvent::slot if it needs page positions.
  kCompletion,
  /// Slot 0, 1, 2, ... — a progressive top-down page render; later slots
  /// buffer internally until their predecessors arrive.
  kSlot,
};

/// Per-stream execution knobs. Like BatchOptions, these never affect what
/// each slot contains — only when it arrives.
struct StreamOptions {
  StreamOrder order = StreamOrder::kCompletion;
  /// Producer width: 0 = one per configured core, 1 = lazy inline
  /// production on the consuming thread (the sequential reference path),
  /// n = at most n concurrent producers (consumer included).
  size_t num_threads = 0;
  /// Per-request deadline measured from stream open; slots not started by
  /// then emit kDeadlineExceeded. Zero (the default) means no deadline.
  std::chrono::nanoseconds deadline{0};
};

/// One per-slot completion event. `snippet` carries the slot's raw result;
/// collectors add the batch "result <i> of <n>" decoration.
struct SnippetEvent {
  size_t slot = 0;
  Result<Snippet> snippet;
};

/// Counters of one stream's lifetime, also merged into StageStatsRegistry
/// sinks as "stream.*" pseudo-stages (see MergeStreamStats).
struct StreamStats {
  size_t total_slots = 0;
  size_t emitted = 0;            ///< events of any outcome so far
  size_t succeeded = 0;
  size_t failed = 0;             ///< pipeline errors (not cancel/deadline)
  size_t cancelled = 0;
  size_t deadline_expired = 0;
  /// Elapsed ns from open to the first successful snippet (>= 1 once set;
  /// 0 while no snippet has been emitted) — the metric progressive result
  /// pages are judged on.
  uint64_t first_snippet_ns = 0;
};

/// \brief Producer-side control of a gated stream — the handle an upstream
/// producer (the incremental top-k search coordinator, search/corpus.h)
/// uses to feed slots into a live stream.
///
/// A gated stream starts with zero claimable slots; the upstream releases
/// them one by one as it settles what each slot contains (the page entry
/// must be fully written before ReleaseSlots — the release/acquire pair on
/// the watermark publishes it to producers). CompleteUpstream ends the
/// stream early when fewer slots than planned exist; FailUpstream resolves
/// every unreleased slot with the upstream's error, so consumers always
/// see exactly total_slots events. All methods are thread-safe; on an
/// ungated stream the handle is empty and every call is a no-op.
class StreamGate {
 public:
  StreamGate() = default;

  /// Marks the next `n` pending slots claimable. Their inputs must be
  /// fully written before the call.
  void ReleaseSlots(size_t n);

  /// Declares the upstream finished with only `produced` slots released:
  /// the stream's total shrinks so consumers terminate after them.
  void CompleteUpstream(size_t produced);

  /// Declares the upstream failed after releasing some slots: every
  /// unreleased slot emits an event carrying `status` (the stream still
  /// delivers total_slots events).
  void FailUpstream(Status status);

  explicit operator bool() const { return state_ != nullptr; }

 private:
  friend struct StreamBuilder;
  std::shared_ptr<internal::SnippetStreamState> state_;
};

/// \brief Consumer handle of one slot-completion stream.
///
/// Exactly one consumer thread may call Next / ForEach / Collect; Cancel
/// and Stats are safe from any thread. Producers run concurrently on the
/// shared pool; when the consumer would block with uncomputed slots still
/// unclaimed, it claims and computes one inline instead (work-conserving,
/// and the reason a saturated pool can never deadlock a collector).
class SnippetStream {
 public:
  /// Number of slots this stream will emit (each exactly once).
  size_t total_slots() const;

  /// Blocks for the next event; std::nullopt once all slots are delivered.
  std::optional<SnippetEvent> Next();

  /// Callback consumption: invokes `fn` for every remaining event on the
  /// calling thread, returning when the stream is exhausted.
  void ForEach(const std::function<void(SnippetEvent)>& fn);

  /// \brief Collects the whole stream into one batch: out[i] is slot i.
  ///
  /// On failure returns the error of the lowest failing slot, decorated via
  /// MakeBatchResultError — exactly the GenerateBatch error shape. `extra`
  /// (optional) supplies the per-slot decoration suffix, e.g. the corpus's
  /// " (document '<name>')". Requires a freshly opened stream — every slot
  /// must land in the output, so Collect fails with kFailedPrecondition
  /// when events were already consumed via Next/ForEach.
  Result<std::vector<Snippet>> Collect();
  Result<std::vector<Snippet>> Collect(
      const std::function<std::string(size_t)>& extra);

  /// Cooperative cancellation: every not-yet-started slot emits a
  /// kCancelled event immediately; in-flight slots finish normally.
  void Cancel();
  bool cancelled() const;

  /// Point-in-time counters (final once all slots are emitted).
  StreamStats Stats() const;

 private:
  friend class ServingSession;
  friend struct StreamBuilder;

  std::shared_ptr<internal::SnippetStreamState> state_;
};

/// \brief Owning handle of one live streamed request: the stream plus the
/// producer resources behind it (pool task group, contexts, cache keys,
/// owned pages). Move-only. Destruction cancels unstarted slots, waits for
/// in-flight producers, then runs the finish hook (stats merging) — so a
/// session can be dropped at any point without leaking pool work.
class ServingSession {
 public:
  ServingSession();
  ~ServingSession();

  // Defined out of line: TaskGroup is incomplete here.
  ServingSession(ServingSession&& other) noexcept;
  ServingSession& operator=(ServingSession&&) = delete;
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  SnippetStream& stream() { return stream_; }
  const SnippetStream& stream() const { return stream_; }

  void Cancel() { stream_.Cancel(); }
  StreamStats Stats() const { return stream_.Stats(); }

 private:
  friend struct StreamBuilder;

  SnippetStream stream_;
  std::unique_ptr<TaskGroup> group_;
  /// State the compute closure reads (contexts, pages, keys). Destroyed
  /// last, after producers have drained and the finish hook ran.
  std::shared_ptr<void> payload_;
  /// Run once at destruction, after all producers finished — the stats
  /// merge hook of corpus-level sessions.
  std::function<void(const StreamStats&)> on_finish_;
};

/// \brief Producer-side assembly of a stream session. Used by the serving
/// entry points (SnippetService::StreamBatch and friends); consumers never
/// touch it.
struct StreamBuilder {
  size_t total_slots = 0;
  StreamOptions options;
  /// Slots resolved before the stream opens (cache hits); emitted in
  /// vector order before any pending slot computes.
  std::vector<SnippetEvent> ready;
  /// Slot ids still to compute, in increasing slot order (the order the
  /// sequential reference path produces them).
  std::vector<size_t> pending;
  /// Computes one pending slot. Must be safe to call concurrently for
  /// distinct slots; not invoked for cancelled / deadline-expired slots.
  /// The library is exception-free by design, but a throw is contained:
  /// the slot emits a kInternal error event instead of unwinding into a
  /// pool worker or wedging the stream.
  std::function<Result<Snippet>(size_t)> compute;
  /// Owned state `compute` reads; lives until the session is destroyed.
  std::shared_ptr<void> payload;
  /// Stats merge hook, run once when the session is destroyed (after all
  /// producers finished). May reference `payload`'s pointee.
  std::function<void(const StreamStats&)> on_finish;

  /// \brief Upstream gate (incremental top-k serving). When `advance` is
  /// set the stream opens gated: pending slots are claimable only below
  /// the watermark `gate` controls, and any producer (or the consumer)
  /// that finds no claimable slot invokes `advance` to drive the upstream
  /// one step instead of blocking — so the search runs on whichever
  /// thread has nothing better to do, and a saturated pool still makes
  /// progress. `advance` returns false only once the upstream is finished
  /// (it must eventually call CompleteUpstream or FailUpstream on the
  /// gate); it may block briefly (e.g. on the upstream's mutex) but must
  /// not wait on stream consumption. `gate` (required with `advance`) is
  /// bound to the stream's state by Open, before any producer starts.
  std::function<bool()> advance;
  StreamGate* gate = nullptr;

  /// Emits `ready`, then starts up to num_threads - 1 pool producers for
  /// `pending` (none when the caller is itself a pool worker — the
  /// consumer then produces lazily inline).
  ServingSession Open() &&;
};

/// Folds a finished stream's counters into `registry` as "stream.*"
/// pseudo-stages: "stream.emitted" (calls = events), "stream.failed" /
/// "stream.cancelled" / "stream.deadline_expired" (when non-zero), and
/// "stream.first_snippet" (calls = streams that produced one, total/max =
/// time-to-first-snippet).
void MergeStreamStats(const StreamStats& stats, StageStatsRegistry& registry);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_STREAM_H_

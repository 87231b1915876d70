// Streaming serving core: snippets delivered per slot, produced on demand.
//
// Every batch entry point of the library (SnippetService::GenerateBatch,
// XmlCorpus::GenerateSnippets) is a *collector* over the stream defined
// here — the slot stream is the primary execution model, batching is just
// "collect the whole stream in slot order". The deterministic slot design
// (output slot i <-> input result i, every slot computed independently)
// keeps collected output byte-identical to a loop over the results, while
// streaming consumers see each slot the moment it is ready.
//
//   ServingSession session = service.StreamBatch(ctx, results, options, {});
//   while (auto ev = session.stream().Next()) {           // pull
//     if (ev->snippet.ok()) Render(ev->slot, *ev->snippet);
//   }
//
// One thread per request: a stream produces on the thread that consumes
// it. Next() emits a ready cache hit, else resolves the next pending slot
// (computing it, or emitting its cancelled, deadline or upstream error),
// else drives a gated stream's upstream search one step, else ends. A
// request therefore runs from search through its last slot on the thread
// that admitted it, and a consumer that stops pulling stops all work.
//
// Layers:
//   * SnippetEvent — one per-slot completion: (slot, Result<Snippet>). The
//     status is the slot's raw pipeline status; batch decoration ("result
//     <i> of <n>: ...") is applied by collectors, so the streamed and
//     collected error shapes stay in sync.
//   * SnippetStream — the consumer handle: pull (Next), callback (ForEach),
//     batch collection (Collect), cooperative Cancel, per-request deadline,
//     and a StreamStats snapshot (emitted / cancelled / deadline-expired /
//     time-to-first-snippet). Delivery order is configurable: cache hits
//     first (lowest time-to-first-snippet) or strictly by slot (a
//     progressive page render).
//   * ServingSession — the owning handle: holds the stream and whatever
//     state the producer reads (contexts, pages, cache keys). Destroying a
//     session resolves every slot not yet delivered as cancelled, then
//     runs the finish hook, so dropped requests still count their slots.
//   * StreamBuilder — producer-side assembly, used by the service and
//     corpus entry points: pre-resolved slots (cache hits) are emitted at
//     open, pending slots compute one per pull in slot order.
//
// Cancellation semantics: Cancel() may come from any thread. A slot that
// is computing finishes normally; every slot not yet started resolves as
// a kCancelled event without computing. A deadline behaves like a timed
// cancel checked before each slot: slots that have not started by the
// deadline emit kDeadlineExceeded.

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

namespace internal {
struct SnippetStreamState;
}  // namespace internal

/// How a SnippetStream hands events to its consumer.
enum class StreamOrder {
  /// Cache hits first, then the computed slots in slot order — minimizes
  /// time-to-first-snippet; the consumer reassembles by SnippetEvent::slot
  /// if it needs page positions.
  kCompletion,
  /// Slot 0, 1, 2, ... with cache hits in their own positions — a
  /// progressive top-down page render.
  kSlot,
};

/// Per-stream knobs. They never affect what each slot contains — only when
/// it arrives.
struct StreamOptions {
  StreamOrder order = StreamOrder::kCompletion;
  /// Unread: every stream produces on its consumer's thread. Kept only
  /// because the repository benchmark (perfbench/) still sets it; it goes
  /// with the next change to that benchmark.
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
/// A gated stream starts with zero computable slots; the upstream releases
/// them one by one as it settles what each slot contains (the slot's input
/// must be fully written before ReleaseSlots). CompleteUpstream ends the
/// stream early when fewer slots than planned exist; FailUpstream resolves
/// every unreleased slot with the upstream's error, so consumers always
/// see exactly total_slots events. The upstream calls these from inside
/// StreamBuilder::advance, on the consumer's thread; on an ungated stream
/// the handle is empty and every call is a no-op.
class StreamGate {
 public:
  StreamGate() = default;

  /// Marks the next `n` pending slots computable. Their inputs must be
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

/// \brief Consumer handle of one slot stream.
///
/// Exactly one consumer thread may call Next / ForEach / Collect, and every
/// slot computes inside those calls; Cancel and Stats are safe from any
/// thread.
class SnippetStream {
 public:
  /// Number of slots this stream will emit (each exactly once). A gated
  /// stream's total shrinks when its upstream completes with fewer slots.
  size_t total_slots() const;

  /// Produces and returns the next event; std::nullopt once all slots are
  /// delivered.
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

  /// Cooperative cancellation, from any thread: a slot computing now
  /// finishes normally, and every slot not yet started emits kCancelled
  /// without computing.
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
/// state its producer reads (contexts, cache keys, owned pages).
/// Move-only. Destruction resolves every undelivered slot (unstarted ones
/// as kCancelled, without computing), then runs the finish hook (stats
/// merging) — so a session can be dropped at any point and its stats still
/// count every slot.
class ServingSession {
 public:
  ServingSession() = default;
  ~ServingSession();

  ServingSession(ServingSession&& other) noexcept = default;
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
  /// State the compute closure reads (contexts, pages, keys).
  std::shared_ptr<void> payload_;
  /// Run once at destruction, after every slot resolved — the stats merge
  /// hook of corpus-level sessions.
  std::function<void(const StreamStats&)> on_finish_;
};

/// \brief Producer-side assembly of a stream session. Used by the serving
/// entry points (SnippetService::StreamBatch and friends); consumers never
/// touch it.
struct StreamBuilder {
  size_t total_slots = 0;
  StreamOptions options;
  /// Slots resolved before the stream opens (cache hits), in increasing
  /// slot order; emitted at open, before any pending slot computes.
  std::vector<SnippetEvent> ready;
  /// Slot ids still to compute, in increasing slot order — the order they
  /// compute in, one per pull.
  std::vector<size_t> pending;
  /// Computes one pending slot on the consumer's thread; not invoked for
  /// cancelled / deadline-expired slots. The library is exception-free by
  /// design, but a throw is contained: the slot emits a kInternal error
  /// event instead of unwinding into the consumer.
  std::function<Result<Snippet>(size_t)> compute;
  /// Owned state `compute` reads; lives until the session is destroyed.
  std::shared_ptr<void> payload;
  /// Stats merge hook, run once when the session is destroyed (after every
  /// slot resolved). May reference `payload`'s pointee.
  std::function<void(const StreamStats&)> on_finish;

  /// \brief Upstream gate (incremental top-k serving). When `advance` is
  /// set the stream opens gated: pending slots are computable only once
  /// the upstream releases them through `gate`, and a pull that finds the
  /// next pending slot unreleased invokes `advance` to drive the upstream
  /// one step. `advance` returns false only once the upstream is finished
  /// (it must eventually call CompleteUpstream or FailUpstream on the
  /// gate). `gate` (required with `advance`) is bound to the stream's
  /// state by Open.
  std::function<bool()> advance;
  StreamGate* gate = nullptr;

  /// Emits `ready` and returns the session; `pending` computes as the
  /// consumer pulls.
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

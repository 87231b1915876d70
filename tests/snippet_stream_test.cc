// Semantics of the streaming serving core (snippet/snippet_stream.h):
//   * collected streams are byte-identical to the batch APIs (which are
//     themselves collectors — the golden snapshots pin the absolute bytes);
//   * completion-order and slot-order delivery carry identical per-slot
//     payloads (run under ThreadSanitizer in CI);
//   * cache hits are emitted before any miss computes;
//   * cancellation mid-stream resolves every unstarted slot immediately
//     and frees the pool for other work;
//   * a failing slot keeps the exact GenerateBatch error shape (lowest
//     failing index) when collected, and carries its raw status as an
//     event;
//   * deadlines expire unstarted slots with kDeadlineExceeded.

#include "snippet/snippet_stream.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus.h"
#include "snippet/snippet_service.h"
#include "xml/serializer.h"

namespace extract {
namespace {

struct Ctx {
  XmlDatabase db;
  Query query;
  std::vector<QueryResult> results;
};

Ctx RunQuery(std::string xml, const std::string& query_text) {
  auto db = XmlDatabase::Load(std::move(xml));
  EXPECT_TRUE(db.ok()) << db.status();
  Query query = Query::Parse(query_text);
  XSeekEngine engine;
  auto results = engine.Search(*db, query);
  EXPECT_TRUE(results.ok()) << results.status();
  return Ctx{std::move(*db), std::move(query), std::move(*results)};
}

void ExpectSnippetsIdentical(const Snippet& a, const Snippet& b) {
  EXPECT_EQ(a.result_root, b.result_root);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.key.value, b.key.value);
  EXPECT_EQ(a.ilist.ToString(), b.ilist.ToString());
  ASSERT_NE(a.tree, nullptr);
  ASSERT_NE(b.tree, nullptr);
  EXPECT_EQ(WriteXml(*a.tree), WriteXml(*b.tree));
}

/// A stage that blocks every pipeline run until opened — the deterministic
/// handle on "a slot is currently computing". Prepended to the default
/// sequence, so gated services still produce real snippets.
class GateStage : public SnippetStage {
 public:
  std::string_view name() const override { return "gate"; }

  Status Run(SnippetContext&, const SnippetOptions&,
             SnippetDraft&) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    arrived_cv_.notify_all();
    open_cv_.wait(lock, [this] { return open_; });
    return Status::OK();
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }

  /// Blocks until `n` pipeline runs have entered the gate.
  void AwaitArrivals(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    arrived_cv_.wait(lock, [this, n] { return arrived_ >= n; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable arrived_cv_;
  mutable std::condition_variable open_cv_;
  mutable size_t arrived_ = 0;
  bool open_ = false;
};

/// A service whose pipeline blocks on the returned gate until Open().
std::pair<SnippetService, GateStage*> MakeGatedService(const XmlDatabase* db) {
  std::vector<std::unique_ptr<SnippetStage>> stages;
  auto gate = std::make_unique<GateStage>();
  GateStage* handle = gate.get();
  stages.push_back(std::move(gate));
  for (auto& stage : BuildDefaultStages()) stages.push_back(std::move(stage));
  return {SnippetService(db, std::move(stages)), handle};
}

TEST(SnippetStreamTest, CollectedStreamMatchesSequentialGeneration) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_GE(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);
  SnippetOptions options;
  options.size_bound = 10;

  // The sequential reference: one Generate per result.
  SnippetContext ref_ctx(&ctx.db, ctx.query);
  std::vector<Snippet> reference;
  for (const QueryResult& result : ctx.results) {
    auto snippet = service.Generate(ref_ctx, result, options);
    ASSERT_TRUE(snippet.ok()) << snippet.status();
    reference.push_back(std::move(*snippet));
  }

  for (StreamOrder order : {StreamOrder::kCompletion, StreamOrder::kSlot}) {
    for (size_t threads : {1u, 2u, 4u}) {
      SnippetContext stream_ctx(&ctx.db, ctx.query);
      StreamOptions stream;
      stream.order = order;
      stream.num_threads = threads;
      ServingSession session =
          service.StreamBatch(stream_ctx, ctx.results, options, stream);
      auto collected = session.stream().Collect();
      ASSERT_TRUE(collected.ok()) << collected.status();
      ASSERT_EQ(collected->size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ExpectSnippetsIdentical((*collected)[i], reference[i]);
      }
      StreamStats stats = session.Stats();
      EXPECT_EQ(stats.succeeded, reference.size());
      EXPECT_EQ(stats.cancelled, 0u);
      EXPECT_GT(stats.first_snippet_ns, 0u);
    }
  }
}

TEST(SnippetStreamTest, SlotOrderDeliversSlotsInOrder) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_GE(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);
  SnippetContext stream_ctx(&ctx.db, ctx.query);
  StreamOptions stream;
  stream.order = StreamOrder::kSlot;
  stream.num_threads = 4;
  ServingSession session =
      service.StreamBatch(stream_ctx, ctx.results, SnippetOptions{}, stream);
  size_t expected = 0;
  while (auto event = session.stream().Next()) {
    EXPECT_EQ(event->slot, expected);
    ++expected;
  }
  EXPECT_EQ(expected, ctx.results.size());
}

// The TSan target: both delivery orders, multi-threaded, multiple rounds —
// per-slot payloads must be identical however slots raced to completion.
TEST(SnippetStreamTest, CompletionOrderAndSlotOrderCarryIdenticalSlots) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "texas");
  ASSERT_GE(ctx.results.size(), 4u);
  SnippetService service(&ctx.db);
  SnippetOptions options;
  options.size_bound = 12;
  for (int round = 0; round < 3; ++round) {
    std::map<size_t, Snippet> by_completion;
    std::map<size_t, Snippet> by_slot;
    for (StreamOrder order : {StreamOrder::kCompletion, StreamOrder::kSlot}) {
      SnippetContext stream_ctx(&ctx.db, ctx.query);
      StreamOptions stream;
      stream.order = order;
      stream.num_threads = 4;
      ServingSession session =
          service.StreamBatch(stream_ctx, ctx.results, options, stream);
      auto& sink = order == StreamOrder::kCompletion ? by_completion : by_slot;
      session.stream().ForEach([&sink](SnippetEvent event) {
        ASSERT_TRUE(event.snippet.ok()) << event.snippet.status();
        sink.emplace(event.slot, std::move(event.snippet).value());
      });
    }
    ASSERT_EQ(by_completion.size(), ctx.results.size());
    ASSERT_EQ(by_slot.size(), ctx.results.size());
    for (size_t i = 0; i < ctx.results.size(); ++i) {
      ExpectSnippetsIdentical(by_completion.at(i), by_slot.at(i));
    }
  }
}

TEST(SnippetStreamTest, CacheHitsEmitBeforeAnyMissComputes) {
  XmlCorpus corpus;
  corpus.EnableSnippetCache();
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  const Query query = Query::Parse("texas");
  XSeekEngine engine;
  auto page = corpus.SearchAll(query, engine);
  ASSERT_TRUE(page.ok()) << page.status();
  ASSERT_GE(page->size(), 3u);
  SnippetOptions options;

  // Warm exactly one slot of the page...
  const size_t warm_slot = 1;
  auto warmed = corpus.GenerateSnippets(query, {(*page)[warm_slot]}, options);
  ASSERT_TRUE(warmed.ok()) << warmed.status();

  // ...then stream the partly warm page with no helper producers: misses
  // compute only when the consumer pulls them, so the only event that can
  // arrive first is the hit emitted at open.
  StreamOptions stream;
  stream.num_threads = 1;
  auto session = corpus.StreamSnippets(query, *page, options, stream);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session->Stats().emitted, 1u) << "hit must be live at open";
  auto first = session->stream().Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->slot, warm_slot);
  ASSERT_TRUE(first->snippet.ok()) << first->snippet.status();
  ExpectSnippetsIdentical(*first->snippet, (*warmed)[0]);

  size_t remaining = 0;
  session->stream().ForEach([&remaining](SnippetEvent event) {
    EXPECT_TRUE(event.snippet.ok()) << event.snippet.status();
    ++remaining;
  });
  EXPECT_EQ(remaining, page->size() - 1);
}

TEST(SnippetStreamTest, CancellationMidStreamResolvesUnstartedSlots) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "texas");
  ASSERT_GE(ctx.results.size(), 4u);
  auto [service, gate] = MakeGatedService(&ctx.db);
  SnippetContext stream_ctx(&ctx.db, ctx.query);
  StreamOptions stream;
  stream.num_threads = 2;  // exactly one pool producer + the consumer
  ServingSession session =
      service.StreamBatch(stream_ctx, ctx.results, SnippetOptions{}, stream);

  // The producer claims slot 0 and blocks inside the pipeline; cancelling
  // now must resolve every unstarted slot without waiting for the pool.
  gate->AwaitArrivals(1);
  session.Cancel();
  const size_t n = ctx.results.size();
  StreamStats stats = session.Stats();
  EXPECT_EQ(stats.cancelled, n - 1) << "unstarted slots resolve immediately";
  EXPECT_EQ(stats.succeeded, 0u);

  // The cancelled events are already consumable while slot 0 still blocks.
  for (size_t i = 0; i + 1 < n; ++i) {
    auto event = session.stream().Next();
    ASSERT_TRUE(event.has_value());
    EXPECT_FALSE(event->snippet.ok());
    EXPECT_EQ(event->snippet.status().code(), StatusCode::kCancelled);
  }

  // The in-flight slot finishes normally once unblocked.
  gate->Open();
  auto last = session.stream().Next();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->slot, 0u);
  EXPECT_TRUE(last->snippet.ok()) << last->snippet.status();
  EXPECT_FALSE(session.stream().Next().has_value());

  // The pool is free again: an unrelated parallel region completes.
  std::atomic<size_t> visited{0};
  ParallelFor(64, 2, [&visited](size_t) { visited.fetch_add(1); });
  EXPECT_EQ(visited.load(), 64u);
}

TEST(SnippetStreamTest, FailingSlotKeepsGenerateBatchErrorShape) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "texas");
  ASSERT_GE(ctx.results.size(), 3u);
  std::vector<QueryResult> results = ctx.results;
  const size_t bad = 1;
  results[bad].root = kInvalidNode;

  SnippetService service(&ctx.db);
  SnippetContext stream_ctx(&ctx.db, ctx.query);

  // Streamed: the event carries the slot's raw, undecorated status.
  StreamOptions stream;
  stream.num_threads = 1;
  {
    ServingSession session =
        service.StreamBatch(stream_ctx, results, SnippetOptions{}, stream);
    size_t failures = 0;
    session.stream().ForEach([&](SnippetEvent event) {
      if (event.snippet.ok()) return;
      ++failures;
      EXPECT_EQ(event.slot, bad);
      EXPECT_EQ(event.snippet.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(event.snippet.status().message(),
                "query result root is not a valid node");
    });
    EXPECT_EQ(failures, 1u);
  }

  // Collected: identical to the historical batch error, lowest failing
  // index, for every thread count.
  const Status expected = MakeBatchResultError(
      bad, results.size(), "",
      Status::InvalidArgument("query result root is not a valid node"));
  for (size_t threads : {1u, 4u}) {
    BatchOptions batch;
    batch.num_threads = threads;
    auto generated =
        service.GenerateBatch(stream_ctx, results, SnippetOptions{}, batch);
    ASSERT_FALSE(generated.ok());
    EXPECT_EQ(generated.status(), expected);
  }
}

/// A stage that throws on one specific result root — the containment case:
/// the library is exception-free, but a throw from a producer must become
/// an error event, not a terminated process (pool producer) or a wedged
/// stream (consumer-inline producer).
class ThrowingStage : public SnippetStage {
 public:
  explicit ThrowingStage(NodeId bad_root) : bad_root_(bad_root) {}
  std::string_view name() const override { return "throwing"; }
  Status Run(SnippetContext&, const SnippetOptions&,
             SnippetDraft& draft) const override {
    if (draft.result->root == bad_root_) {
      throw std::runtime_error("stage exploded");
    }
    return Status::OK();
  }

 private:
  NodeId bad_root_;
};

TEST(SnippetStreamTest, ThrowingProducerEmitsInternalErrorEvent) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "texas");
  ASSERT_GE(ctx.results.size(), 3u);
  const size_t bad = 1;
  std::vector<std::unique_ptr<SnippetStage>> stages;
  stages.push_back(std::make_unique<ThrowingStage>(ctx.results[bad].root));
  for (auto& stage : BuildDefaultStages()) stages.push_back(std::move(stage));
  SnippetService service(&ctx.db, std::move(stages));

  // Both producer paths: consumer-inline (threads=1) and pool workers.
  for (size_t threads : {1u, 4u}) {
    SnippetContext stream_ctx(&ctx.db, ctx.query);
    StreamOptions stream;
    stream.num_threads = threads;
    ServingSession session =
        service.StreamBatch(stream_ctx, ctx.results, SnippetOptions{}, stream);
    size_t ok = 0, internal = 0;
    session.stream().ForEach([&](SnippetEvent event) {
      if (event.snippet.ok()) {
        ++ok;
        return;
      }
      ++internal;
      EXPECT_EQ(event.slot, bad);
      EXPECT_EQ(event.snippet.status().code(), StatusCode::kInternal);
      EXPECT_NE(event.snippet.status().message().find("stage exploded"),
                std::string::npos);
    });
    EXPECT_EQ(ok, ctx.results.size() - 1) << "threads=" << threads;
    EXPECT_EQ(internal, 1u) << "threads=" << threads;
  }
}

TEST(SnippetStreamTest, DeadlineExpiresUnstartedSlots) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_GE(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);
  SnippetContext stream_ctx(&ctx.db, ctx.query);
  StreamOptions stream;
  stream.num_threads = 1;  // lazy inline production: nothing starts early
  stream.deadline = std::chrono::nanoseconds(1);
  ServingSession session =
      service.StreamBatch(stream_ctx, ctx.results, SnippetOptions{}, stream);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  size_t expired = 0;
  session.stream().ForEach([&expired](SnippetEvent event) {
    ASSERT_FALSE(event.snippet.ok());
    EXPECT_EQ(event.snippet.status().code(), StatusCode::kDeadlineExceeded);
    ++expired;
  });
  EXPECT_EQ(expired, ctx.results.size());
  StreamStats stats = session.Stats();
  EXPECT_EQ(stats.deadline_expired, ctx.results.size());
  EXPECT_EQ(stats.succeeded, 0u);
  EXPECT_EQ(stats.first_snippet_ns, 0u);
}

TEST(SnippetStreamTest, ServeQueryStreamsTheRankedPage) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  Query query = Query::Parse("texas");
  XSeekEngine engine;
  SnippetOptions options;
  options.size_bound = 10;

  // The batch reference page + snippets.
  auto page = corpus.SearchAll(query, engine);
  ASSERT_TRUE(page.ok()) << page.status();
  ASSERT_GE(page->size(), 4u);
  auto batch = corpus.GenerateSnippets(query, *page, options);
  ASSERT_TRUE(batch.ok()) << batch.status();

  auto served = corpus.ServeQuery(query, engine, options, StreamOptions{});
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_EQ(served->page().size(), page->size());
  for (size_t i = 0; i < page->size(); ++i) {
    EXPECT_EQ(served->page()[i].document, (*page)[i].document);
    EXPECT_EQ(served->page()[i].result.root, (*page)[i].result.root);
    EXPECT_EQ(served->page()[i].score, (*page)[i].score);
  }
  std::map<size_t, Snippet> streamed;
  served->stream().ForEach([&streamed](SnippetEvent event) {
    ASSERT_TRUE(event.snippet.ok()) << event.snippet.status();
    streamed.emplace(event.slot, std::move(event.snippet).value());
  });
  ASSERT_EQ(streamed.size(), batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    ExpectSnippetsIdentical(streamed.at(i), (*batch)[i]);
  }
}

TEST(SnippetStreamTest, WarmCacheStreamsEveryHitImmediately) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  corpus.EnableSnippetCache();
  Query query = Query::Parse("texas");
  XSeekEngine engine;
  SnippetOptions options;

  auto page = corpus.SearchAll(query, engine);
  ASSERT_TRUE(page.ok()) << page.status();
  ASSERT_GE(page->size(), 4u);
  auto cold = corpus.GenerateSnippets(query, *page, options);
  ASSERT_TRUE(cold.ok()) << cold.status();

  auto served = corpus.ServeQuery(query, engine, options, StreamOptions{});
  ASSERT_TRUE(served.ok()) << served.status();
  // Fully warm: every slot is live before the first pull.
  StreamStats at_open = served->Stats();
  EXPECT_EQ(at_open.emitted, page->size());
  std::map<size_t, Snippet> streamed;
  served->stream().ForEach([&streamed](SnippetEvent event) {
    ASSERT_TRUE(event.snippet.ok()) << event.snippet.status();
    streamed.emplace(event.slot, std::move(event.snippet).value());
  });
  for (size_t i = 0; i < cold->size(); ++i) {
    ExpectSnippetsIdentical(streamed.at(i), (*cold)[i]);
  }
}

TEST(SnippetStreamTest, CollectAfterPartialConsumptionFails) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_GE(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);
  SnippetContext stream_ctx(&ctx.db, ctx.query);
  ServingSession session = service.StreamBatch(stream_ctx, ctx.results,
                                               SnippetOptions{},
                                               StreamOptions{});
  ASSERT_TRUE(session.stream().Next().has_value());
  auto collected = session.stream().Collect();
  ASSERT_FALSE(collected.ok())
      << "Collect after Next must fail, not return empty slots";
  EXPECT_EQ(collected.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnippetStreamTest, EmptyStreamIsExhaustedImmediately) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  SnippetService service(&ctx.db);
  SnippetContext stream_ctx(&ctx.db, ctx.query);
  std::vector<QueryResult> empty;
  ServingSession session =
      service.StreamBatch(stream_ctx, empty, SnippetOptions{}, StreamOptions{});
  EXPECT_FALSE(session.stream().Next().has_value());
  auto collected = session.stream().Collect();
  ASSERT_TRUE(collected.ok());
  EXPECT_TRUE(collected->empty());
}

TEST(SnippetStreamTest, MergeStreamStatsFoldsPseudoStages) {
  StreamStats stats;
  stats.total_slots = 8;
  stats.emitted = 8;
  stats.succeeded = 5;
  stats.failed = 1;
  stats.cancelled = 2;
  stats.first_snippet_ns = 1234;
  StageStatsRegistry registry;
  MergeStreamStats(stats, registry);
  std::map<std::string, StageStat> by_name;
  for (StageStat& stat : registry.Snapshot()) by_name[stat.name] = stat;
  EXPECT_EQ(by_name.at("stream.emitted").calls, 8u);
  EXPECT_EQ(by_name.at("stream.failed").calls, 1u);
  EXPECT_EQ(by_name.at("stream.cancelled").calls, 2u);
  EXPECT_EQ(by_name.at("stream.first_snippet").total_ns, 1234u);
  EXPECT_EQ(by_name.count("stream.deadline_expired"), 0u);
}

}  // namespace
}  // namespace extract

// FaultInjector unit tests plus per-point propagation: each instrumented
// point, when armed, must surface its injected Status through the public
// API it guards — precisely (code and message preserved, " [fault:<point>]"
// tag attached), with every invariant of the layer intact (nothing
// half-published, streams still drain, counters still quiesce).
//
// The chaos suite (chaos_serving_test.cc) layers seeded schedules over a
// live HTTP server; this file pins down the deterministic per-point
// contracts those episodes rely on.

#include "common/fault.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "http/admission.h"
#include "snippet/snippet_context.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus.h"
#include "search/corpus_snapshot.h"
#include "snippet/snippet_service.h"
#include "snippet/snippet_tree.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace extract {
namespace {

FaultRule OnNthHit(std::string point, uint64_t nth,
                   StatusCode code = StatusCode::kUnavailable) {
  FaultRule rule;
  rule.point = std::move(point);
  rule.nth_hit = nth;
  rule.code = code;
  return rule;
}

FaultRule WithProbability(std::string point, double p, uint64_t seed) {
  FaultRule rule;
  rule.point = std::move(point);
  rule.nth_hit = 0;
  rule.probability = p;
  rule.seed = seed;
  rule.max_fires = 0;  // unlimited
  return rule;
}

// ------------------------------------------------------------- framework

TEST(FaultInjectorTest, DisarmedByDefault) {
  EXPECT_FALSE(FaultInjector::Instance().armed());
  EXPECT_TRUE(FaultInjector::Instance().Check("any.point").ok());
  EXPECT_FALSE(FaultInjector::Instance().CheckFired("any.point"));
}

TEST(FaultInjectorTest, NthHitFiresExactlyOnce) {
  ScopedFaultInjection arm({OnNthHit("unit.point", 3)});
  FaultInjector& injector = FaultInjector::Instance();
  for (int hit = 1; hit <= 10; ++hit) {
    Status status = injector.Check("unit.point");
    if (hit == 3) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << "hit " << hit;
    } else {
      EXPECT_TRUE(status.ok()) << "hit " << hit;
    }
  }
  EXPECT_EQ(injector.Hits("unit.point"), 10u);
  EXPECT_EQ(injector.TotalFires(), 1u);
}

TEST(FaultInjectorTest, InjectedMessageNamesThePoint) {
  ScopedFaultInjection arm({OnNthHit("tagged.point", 1)});
  Status status = FaultInjector::Instance().Check("tagged.point");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("[fault:tagged.point]"), std::string::npos)
      << status;
}

TEST(FaultInjectorTest, RulesOnlyMatchTheirPoint) {
  ScopedFaultInjection arm({OnNthHit("this.point", 1)});
  EXPECT_TRUE(FaultInjector::Instance().Check("other.point").ok());
  EXPECT_FALSE(FaultInjector::Instance().Check("this.point").ok());
}

TEST(FaultInjectorTest, SeededProbabilityReplaysExactly) {
  const auto pattern = [](uint64_t seed) {
    ScopedFaultInjection arm({WithProbability("prob.point", 0.3, seed)});
    std::vector<bool> fired;
    fired.reserve(200);
    for (int i = 0; i < 200; ++i) {
      fired.push_back(FaultInjector::Instance().CheckFired("prob.point"));
    }
    return fired;
  };
  std::vector<bool> first = pattern(42);
  // A 0.3 rule over 200 draws fires somewhere — and not everywhere.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 200);
  EXPECT_EQ(first, pattern(42));    // same seed, same pattern
  EXPECT_NE(first, pattern(1234));  // different seed, different pattern
}

TEST(FaultInjectorTest, MaxFiresCapsProbabilisticRules) {
  FaultRule rule = WithProbability("capped.point", 1.0, 7);
  rule.max_fires = 2;
  ScopedFaultInjection arm({rule});
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (FaultInjector::Instance().CheckFired("capped.point")) ++fired;
  }
  EXPECT_EQ(fired, 2);
}

TEST(FaultInjectorTest, ScopedInjectionDisarmsOnExit) {
  {
    ScopedFaultInjection arm({OnNthHit("scoped.point", 1)});
    EXPECT_TRUE(FaultInjector::Instance().armed());
  }
  EXPECT_FALSE(FaultInjector::Instance().armed());
  EXPECT_TRUE(FaultInjector::Instance().Check("scoped.point").ok());
}

// ------------------------------------------------- per-point propagation

TEST(FaultPointTest, DbLoadSurfacesThroughLoad) {
  ScopedFaultInjection arm({OnNthHit("db.load", 1, StatusCode::kUnavailable)});
  auto db = XmlDatabase::Load("<a>x</a>");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(db.status().message().find("[fault:db.load]"), std::string::npos);
}

TEST(FaultPointTest, TokenizerAndParserPointsSurfaceThroughParse) {
  {
    ScopedFaultInjection arm(
        {OnNthHit("xml.tokenizer.next", 2, StatusCode::kCancelled)});
    auto doc = ParseXml("<a><b>x</b></a>");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::kCancelled);
  }
  {
    ScopedFaultInjection arm(
        {OnNthHit("xml.parser.build", 1, StatusCode::kDeadlineExceeded)});
    auto doc = ParseXml("<a/>");
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(FaultPointTest, IndexBuildPointsSurfaceThroughLoad) {
  {
    ScopedFaultInjection arm({OnNthHit("index.document.build", 1)});
    EXPECT_EQ(XmlDatabase::Load("<a>x</a>").status().code(),
              StatusCode::kUnavailable);
  }
  {
    ScopedFaultInjection arm({OnNthHit("index.partitions.build", 1)});
    EXPECT_EQ(XmlDatabase::Load("<a>x</a>").status().code(),
              StatusCode::kUnavailable);
  }
}

TEST(FaultPointTest, SearchExecuteSurfacesThroughEngine) {
  auto db = XmlDatabase::Load(GenerateStoresXml());
  ASSERT_TRUE(db.ok()) << db.status();
  XSeekEngine engine;
  ScopedFaultInjection arm(
      {OnNthHit("search.execute", 1, StatusCode::kDeadlineExceeded)});
  auto hits = engine.Search(*db, Query::Parse("texas"));
  ASSERT_FALSE(hits.ok());
  EXPECT_EQ(hits.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(FaultPointTest, EpochPublishFailureLeavesNothingPublished) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  const EpochStats before = corpus.EpochStatsSnapshot();
  {
    ScopedFaultInjection arm({OnNthHit("epoch.publish", 1)});
    Status add = corpus.AddDocument("retailer", GenerateRetailerXml());
    ASSERT_FALSE(add.ok());
    EXPECT_EQ(add.code(), StatusCode::kUnavailable);
  }
  // The failed mutation must be invisible: same size, same epoch, and the
  // name is free for a clean retry.
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.EpochStatsSnapshot().epoch, before.epoch);
  EXPECT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  EXPECT_EQ(corpus.size(), 2u);

  {
    ScopedFaultInjection arm({OnNthHit("epoch.publish", 1)});
    Status remove = corpus.RemoveDocument("retailer");
    ASSERT_FALSE(remove.ok());
  }
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_NE(corpus.Find("retailer"), nullptr);
}

TEST(FaultPointTest, SnippetStageFailureKeepsStageDecoration) {
  auto db = XmlDatabase::Load(GenerateStoresXml());
  ASSERT_TRUE(db.ok()) << db.status();
  XSeekEngine engine;
  auto hits = engine.Search(*db, Query::Parse("texas"));
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());

  SnippetService service(&*db);
  SnippetContext ctx(&*db, Query::Parse("texas"));
  ScopedFaultInjection arm(
      {OnNthHit("snippet.stage", 2, StatusCode::kCancelled)});
  auto snippet = service.Generate(ctx, (*hits)[0], SnippetOptions{});
  ASSERT_FALSE(snippet.ok());
  EXPECT_EQ(snippet.status().code(), StatusCode::kCancelled);
  // The failure is attributed to the stage it interrupted, exactly like a
  // genuine stage error.
  EXPECT_NE(snippet.status().message().find(" stage: "), std::string::npos)
      << snippet.status();
}

TEST(FaultPointTest, AdmissionAcquireShedsWithoutConsumingSlot) {
  AdmissionController admission{AdmissionOptions{}};
  ScopedFaultInjection arm(
      {OnNthHit("admission.acquire", 1, StatusCode::kUnavailable)});
  auto ticket =
      admission.Acquire(std::chrono::steady_clock::time_point::max());
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
  const AdmissionStats stats = admission.Stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.admitted, 0u);
}

// A dropped TaskGroup submission must not wedge Wait(): the group's
// outstanding count is only bumped for tasks that were actually queued.
TEST(FaultPointTest, DroppedPoolSubmitStillQuiesces) {
  std::atomic<int> ran{0};
  {
    TaskGroup group(&SharedThreadPool());
    ScopedFaultInjection arm({OnNthHit("pool.submit", 2)});
    for (int i = 0; i < 4; ++i) {
      group.Submit([&ran] { ran.fetch_add(1); });
    }
    group.Wait();  // must return despite the dropped task
  }
  EXPECT_EQ(ran.load(), 3);
}

std::string Fingerprint(const Snippet& snippet) {
  std::string out = RenderSnippet(snippet);
  if (snippet.tree != nullptr) out += WriteXml(*snippet.tree);
  return out;
}

// cache.get is a forced miss: serving regenerates, and regeneration is
// byte-identical to the cached copy (the cache is pure memoization).
TEST(FaultPointTest, CacheGetMissRegeneratesIdentically) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  corpus.EnableSnippetCache();
  XSeekEngine engine;
  const Query query = Query::Parse("texas");
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());

  SnippetOptions options;
  auto reference = corpus.GenerateSnippets(query, *hits, options);
  ASSERT_TRUE(reference.ok()) << reference.status();

  ScopedFaultInjection arm({WithProbability("cache.get", 1.0, 9)});
  auto regenerated = corpus.GenerateSnippets(query, *hits, options);
  ASSERT_TRUE(regenerated.ok()) << regenerated.status();
  ASSERT_EQ(regenerated->size(), reference->size());
  for (size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ(Fingerprint((*regenerated)[i]), Fingerprint((*reference)[i]))
        << "slot " << i;
  }
}

// cache.put drops the insert: the cache simply never warms, results are
// untouched.
TEST(FaultPointTest, CachePutDropKeepsServingCorrect) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  corpus.EnableSnippetCache();
  XSeekEngine engine;
  const Query query = Query::Parse("texas");
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());

  std::string reference;
  {
    ScopedFaultInjection arm({WithProbability("cache.put", 1.0, 3)});
    auto first = corpus.GenerateSnippets(query, *hits, SnippetOptions{});
    ASSERT_TRUE(first.ok()) << first.status();
    reference = Fingerprint((*first)[0]);
    EXPECT_EQ(corpus.snippet_cache()->Stats().entries, 0u);  // never stored
  }
  auto second = corpus.GenerateSnippets(query, *hits, SnippetOptions{});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Fingerprint((*second)[0]), reference);
}

// ---------------------------------------------------- snapshot domain

std::string WriteSnapshotFixture(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  auto writer = CorpusSnapshotWriter::Create(path);
  EXPECT_TRUE(writer.ok()) << writer.status();
  EXPECT_TRUE(writer->Add("stores", *XmlDatabase::Load(GenerateStoresXml()))
                  .ok());
  EXPECT_TRUE(writer->Finish().ok());
  return path;
}

TEST(FaultPointTest, SnapshotOpenFailureIsCleanAndRetryable) {
  const std::string path = WriteSnapshotFixture("fault_open.xcsn");
  {
    ScopedFaultInjection arm(
        {OnNthHit("snapshot.open", 1, StatusCode::kUnavailable)});
    auto snapshot = CorpusSnapshot::Open(path);
    ASSERT_FALSE(snapshot.ok());
    EXPECT_EQ(snapshot.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(snapshot.status().message().find("[fault:snapshot.open]"),
              std::string::npos)
        << snapshot.status();
  }
  EXPECT_TRUE(CorpusSnapshot::Open(path).ok());  // disarmed retry succeeds
  std::remove(path.c_str());
}

TEST(FaultPointTest, SnapshotChecksumFaultSurfacesAtOpen) {
  const std::string path = WriteSnapshotFixture("fault_checksum.xcsn");
  // The first snapshot.checksum hit guards the header verification.
  ScopedFaultInjection arm(
      {OnNthHit("snapshot.checksum", 1, StatusCode::kParseError)});
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(FaultPointTest, SnapshotTruncationFaultSurfacesAtOpen) {
  const std::string path = WriteSnapshotFixture("fault_truncated.xcsn");
  ScopedFaultInjection arm(
      {OnNthHit("snapshot.truncated", 1, StatusCode::kParseError)});
  EXPECT_EQ(CorpusSnapshot::Open(path).status().code(),
            StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(FaultPointTest, SnapshotFaultInFailureRetainsNothingAndRetries) {
  const std::string path = WriteSnapshotFixture("fault_faultin.xcsn");
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  CorpusSnapshot& snap = **snapshot;
  {
    ScopedFaultInjection arm(
        {OnNthHit("snapshot.fault", 1, StatusCode::kUnavailable)});
    auto doc = snap.Fault(0);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::kUnavailable);
  }
  // Failure counted, nothing resident, the disarmed retry decodes cleanly.
  EXPECT_EQ(snap.Stats().fault_failures, 1u);
  EXPECT_EQ(snap.Stats().resident, 0u);
  EXPECT_EQ(snap.ResidentOrNull(0), nullptr);
  auto doc = snap.Fault(0);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ((*doc)->name, "stores");
  EXPECT_EQ(snap.Stats().resident, 1u);
  std::remove(path.c_str());
}

// The checksum point also guards every per-document fault-in: a search
// over a snapshot-backed corpus surfaces the injected Status as that
// document's search error, and serving recovers once disarmed.
TEST(FaultPointTest, SnapshotFaultInFailureSurfacesThroughSearch) {
  const std::string path = WriteSnapshotFixture("fault_search.xcsn");
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok());
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AttachSnapshot(*snapshot).ok());
  XSeekEngine engine;
  {
    ScopedFaultInjection arm(
        {OnNthHit("snapshot.fault", 1, StatusCode::kUnavailable)});
    auto hits = corpus.SearchAll(Query::Parse("texas"), engine);
    ASSERT_FALSE(hits.ok());
    EXPECT_EQ(hits.status().code(), StatusCode::kUnavailable);
  }
  auto hits = corpus.SearchAll(Query::Parse("texas"), engine);
  ASSERT_TRUE(hits.ok()) << hits.status();
  EXPECT_FALSE(hits->empty());
  std::remove(path.c_str());
}

// Every step of a save — writing the temporary file, syncing it, renaming
// it over the target, syncing the directory — has a fault point. A failure
// before the rename leaves the old image byte-identical; a failure syncing
// the directory reports the error with the complete new image in place.
// Either way no temporary file is left behind.
TEST(FaultPointTest, SnapshotSaveFailuresNeverTearTheTarget) {
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto leftovers = [](const std::string& path) {
    const std::filesystem::path target(path);
    size_t count = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(target.parent_path())) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(target.filename().string() + ".tmp", 0) == 0) ++count;
    }
    return count;
  };
  XmlCorpus replacement;
  ASSERT_TRUE(replacement.AddDocument("retailer", GenerateRetailerXml()).ok());
  for (const char* point : {"snapshot.write", "snapshot.fsync",
                            "snapshot.rename", "snapshot.dirsync"}) {
    SCOPED_TRACE(point);
    const std::string path = WriteSnapshotFixture("fault_save.xcsn");
    const std::string before = read(path);
    {
      ScopedFaultInjection arm({OnNthHit(point, 1, StatusCode::kUnavailable)});
      Status status = replacement.SaveSnapshot(path);
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      EXPECT_NE(status.message().find(std::string("[fault:") + point + "]"),
                std::string::npos)
          << status;
    }
    EXPECT_EQ(leftovers(path), 0u);
    auto snapshot = CorpusSnapshot::Open(path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    if (std::string(point) == "snapshot.dirsync") {
      EXPECT_EQ((*snapshot)->name(0), "retailer");  // renamed into place
    } else {
      EXPECT_EQ(read(path), before);
    }
    std::remove(path.c_str());
  }
}

// ------------------------------------------------------- budget domain

TEST(QueryBudgetTest, NodeBudgetDegradesStreamWithoutKillingIt) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  XSeekEngine engine;
  const Query query = Query::Parse("texas");

  CorpusServingOptions serving;
  serving.budget.max_node_visits = 1;  // trips on the first generation
  StreamOptions lazy;
  lazy.num_threads = 1;
  auto served = corpus.ServeQuery(query, engine, RankingOptions{}, serving,
                                  SnippetOptions{}, lazy);
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_FALSE(served->page().empty());

  size_t events = 0, exhausted = 0;
  while (auto event = served->stream().Next()) {
    ++events;
    if (!event->snippet.ok()) {
      EXPECT_EQ(event->snippet.status().code(),
                StatusCode::kResourceExhausted)
          << event->snippet.status();
      ++exhausted;
    }
  }
  EXPECT_EQ(events, served->page().size());  // drained, not killed
  EXPECT_GT(exhausted, 0u);
  EXPECT_TRUE(served->degraded());
  EXPECT_GT(served->nodes_visited(), 0u);
}

TEST(QueryBudgetTest, GenerousBudgetDoesNotDegrade) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  XSeekEngine engine;
  CorpusServingOptions serving;
  serving.budget.max_node_visits = 100000000;
  StreamOptions lazy;
  lazy.num_threads = 1;
  auto served = corpus.ServeQuery(Query::Parse("texas"), engine,
                                  RankingOptions{}, serving, SnippetOptions{},
                                  lazy);
  ASSERT_TRUE(served.ok()) << served.status();
  while (auto event = served->stream().Next()) {
    EXPECT_TRUE(event->snippet.ok()) << event->snippet.status();
  }
  EXPECT_FALSE(served->degraded());
  EXPECT_GT(served->nodes_visited(), 0u);  // charged, under cap
}

}  // namespace
}  // namespace extract

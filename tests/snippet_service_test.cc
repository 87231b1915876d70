#include "snippet/snippet_service.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus.h"
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

// Byte-level equality of two snippets: selected nodes, coverage, key,
// return entity, IList and the serialized tree.
void ExpectSnippetsIdentical(const Snippet& a, const Snippet& b) {
  EXPECT_EQ(a.result_root, b.result_root);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.key.value, b.key.value);
  EXPECT_EQ(a.return_entity.label, b.return_entity.label);
  EXPECT_EQ(a.return_entity.evidence, b.return_entity.evidence);
  EXPECT_EQ(a.return_entity.instances, b.return_entity.instances);
  EXPECT_EQ(a.ilist.ToString(), b.ilist.ToString());
  ASSERT_NE(a.tree, nullptr);
  ASSERT_NE(b.tree, nullptr);
  EXPECT_EQ(WriteXml(*a.tree), WriteXml(*b.tree));
}

TEST(SnippetServiceTest, DefaultStagesMatchFigure4) {
  std::vector<std::string> names;
  for (const auto& stage : BuildDefaultStages()) {
    names.emplace_back(stage->name());
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "feature-statistics", "return-entity", "result-key",
                       "ilist", "instance-selection", "materialize"}));
}

TEST(SnippetServiceTest, ContextMemoizesPerResultScans) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "Texas apparel retailer");
  ASSERT_FALSE(ctx.results.empty());
  SnippetContext context(&ctx.db, ctx.query);

  const NodeId root = ctx.results[0].root;
  const FeatureStatistics& first = context.StatisticsFor(root);
  const FeatureStatistics& second = context.StatisticsFor(root);
  EXPECT_EQ(&first, &second) << "statistics must be computed once per root";
  EXPECT_EQ(context.statistics_cache().misses, 1u);
  EXPECT_EQ(context.statistics_cache().hits, 1u);

  // Re-generating the same result at different size bounds through one
  // context reuses the statistics; the IList and the selection re-run.
  SnippetService service(&ctx.db);
  for (size_t bound : {4u, 8u, 16u}) {
    SnippetOptions options;
    options.size_bound = bound;
    auto snippet = service.Generate(context, ctx.results[0], options);
    ASSERT_TRUE(snippet.ok()) << snippet.status();
  }
  EXPECT_EQ(context.statistics_cache().misses, 1u);
  EXPECT_GE(context.statistics_cache().hits, 3u);
}

// The shell's `bound` contract: one context kept across size bounds —
// ascending, descending, then jumping — regenerates every result exactly as
// a fresh context would at that bound.
TEST(SnippetServiceTest, SharedContextDoesNotChangeOutput) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_EQ(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);

  SnippetContext shared(&ctx.db, ctx.query);
  for (size_t bound : {0, 2, 4, 6, 8, 10, 20, 10, 8, 4, 2, 0, 20, 0, 6}) {
    SnippetOptions options;
    options.size_bound = bound;
    SCOPED_TRACE("bound " + std::to_string(bound));
    for (const QueryResult& result : ctx.results) {
      auto with_shared = service.Generate(shared, result, options);
      auto with_fresh = service.Generate(ctx.query, result, options);
      ASSERT_TRUE(with_shared.ok());
      ASSERT_TRUE(with_fresh.ok());
      ExpectSnippetsIdentical(*with_shared, *with_fresh);
    }
  }
}

// Acceptance: parallel batches are byte-identical to the sequential path on
// the retailer and stores datasets.
TEST(SnippetServiceTest, ParallelBatchIdenticalToSequential) {
  struct Case {
    std::string xml;
    std::string query;
  };
  std::vector<Case> cases = {{GenerateRetailerXml(), "Texas apparel retailer"},
                             {GenerateStoresXml(), "store texas"}};
  for (Case& c : cases) {
    Ctx ctx = RunQuery(std::move(c.xml), c.query);
    ASSERT_FALSE(ctx.results.empty());
    SnippetService service(&ctx.db);
    SnippetOptions options;
    options.size_bound = 10;

    BatchOptions sequential;
    sequential.num_threads = 1;
    auto expected =
        service.GenerateBatch(ctx.query, ctx.results, options, sequential);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_EQ(expected->size(), ctx.results.size());

    for (size_t threads : {2u, 4u, 8u}) {
      BatchOptions parallel;
      parallel.num_threads = threads;
      auto got =
          service.GenerateBatch(ctx.query, ctx.results, options, parallel);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->size(), expected->size());
      for (size_t i = 0; i < got->size(); ++i) {
        ExpectSnippetsIdentical((*got)[i], (*expected)[i]);
      }
    }
  }
}

TEST(SnippetServiceTest, BatchOrderingIsDeterministic) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_EQ(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);
  BatchOptions parallel;
  parallel.num_threads = 8;
  for (int round = 0; round < 10; ++round) {
    auto batch = service.GenerateBatch(ctx.query, ctx.results,
                                       SnippetOptions{}, parallel);
    ASSERT_TRUE(batch.ok());
    for (size_t i = 0; i < batch->size(); ++i) {
      EXPECT_EQ((*batch)[i].result_root, ctx.results[i].root);
    }
  }
}

// Regression (satellite): a bad result mid-batch must fail with a Status
// naming the failing index, identically on the sequential and parallel
// paths, instead of silently discarding completed work.
TEST(SnippetServiceTest, BatchFailureNamesTheFailingResultIndex) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_EQ(ctx.results.size(), 2u);
  std::vector<QueryResult> results = ctx.results;
  QueryResult bogus;
  bogus.root = static_cast<NodeId>(ctx.db.index().num_nodes() + 7);
  results.insert(results.begin() + 1, bogus);

  SnippetService service(&ctx.db);
  BatchOptions sequential;
  sequential.num_threads = 1;
  auto seq = service.GenerateBatch(ctx.query, results, SnippetOptions{},
                                   sequential);
  ASSERT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("result 1 of 3"), std::string::npos)
      << seq.status();

  BatchOptions parallel;
  parallel.num_threads = 8;
  auto par = service.GenerateBatch(ctx.query, results, SnippetOptions{},
                                   parallel);
  ASSERT_FALSE(par.ok());
  EXPECT_EQ(par.status(), seq.status())
      << "parallel and sequential must report the same failure";
}

TEST(SnippetServiceTest, CorpusGenerateSnippetsMatchesPerDocumentPath) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  Query query = Query::Parse("texas");
  XSeekEngine engine;
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok()) << hits.status();
  ASSERT_GT(hits->size(), 1u);

  SnippetOptions options;
  options.size_bound = 8;
  auto snippets = corpus.GenerateSnippets(query, *hits, options);
  ASSERT_TRUE(snippets.ok()) << snippets.status();
  ASSERT_EQ(snippets->size(), hits->size());

  for (size_t i = 0; i < hits->size(); ++i) {
    const XmlDatabase* db = corpus.Find((*hits)[i].document);
    ASSERT_NE(db, nullptr);
    SnippetService service(db);
    auto expected = service.Generate(query, (*hits)[i].result, options);
    ASSERT_TRUE(expected.ok());
    ExpectSnippetsIdentical((*snippets)[i], *expected);
  }
}

TEST(SnippetServiceTest, CorpusGenerateSnippetsUnknownDocument) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  Query query = Query::Parse("texas");
  XSeekEngine engine;
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  std::vector<CorpusResult> bad = *hits;
  bad[0].document = "missing";
  auto snippets = corpus.GenerateSnippets(query, bad, SnippetOptions{});
  ASSERT_FALSE(snippets.ok());
  EXPECT_EQ(snippets.status().code(), StatusCode::kNotFound);
  EXPECT_NE(snippets.status().message().find("result 0"), std::string::npos);
  EXPECT_NE(snippets.status().message().find("missing"), std::string::npos);
}

// Thread-safety smoke: hammer one corpus from wide batches repeatedly; the
// output must stay identical to the single-threaded run every time.
TEST(SnippetServiceTest, CorpusGenerateSnippetsThreadSafetySmoke) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  Query query = Query::Parse("texas clothes");
  XSeekEngine engine;
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_GT(hits->size(), 2u);

  // Duplicate the page a few times so many workers hit the same contexts
  // and memoized entries concurrently.
  std::vector<CorpusResult> page;
  for (int copy = 0; copy < 4; ++copy) {
    page.insert(page.end(), hits->begin(), hits->end());
  }

  SnippetOptions options;
  options.size_bound = 9;
  BatchOptions sequential;
  sequential.num_threads = 1;
  auto expected = corpus.GenerateSnippets(query, page, options, sequential);
  ASSERT_TRUE(expected.ok());

  BatchOptions wide;
  wide.num_threads = 8;
  for (int round = 0; round < 5; ++round) {
    auto got = corpus.GenerateSnippets(query, page, options, wide);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), expected->size());
    for (size_t i = 0; i < got->size(); ++i) {
      ExpectSnippetsIdentical((*got)[i], (*expected)[i]);
    }
  }
}

// --------------------------------------------------------------------------
// MakeBatchResultError: the shared error shape of every batch entry point.

TEST(MakeBatchResultErrorTest, ShapePreservesCodeAndInnerMessage) {
  Status inner = Status::InvalidArgument("bad root");
  Status shaped = MakeBatchResultError(1, 3, "", inner);
  EXPECT_EQ(shaped.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(shaped.message(), "result 1 of 3: bad root");

  Status with_extra =
      MakeBatchResultError(0, 2, " (document 'stores')",
                           Status::NotFound("unknown document 'stores'"));
  EXPECT_EQ(with_extra.code(), StatusCode::kNotFound);
  EXPECT_EQ(with_extra.message(),
            "result 0 of 2 (document 'stores'): unknown document 'stores'");
}

// A batch with a bogus result at index 1, shared by the entry-point shape
// tests below.
std::vector<QueryResult> WithBogusAt1(const Ctx& ctx) {
  std::vector<QueryResult> results = ctx.results;
  QueryResult bogus;
  bogus.root = static_cast<NodeId>(ctx.db.index().num_nodes() + 7);
  results.insert(results.begin() + 1, bogus);
  return results;
}

TEST(MakeBatchResultErrorTest, ServiceGenerateBatchUsesTheShape) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_EQ(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);
  auto batch = service.GenerateBatch(ctx.query, WithBogusAt1(ctx),
                                     SnippetOptions{}, BatchOptions{});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.status().message().find("result 1 of 3: "), 0u)
      << batch.status();
}

TEST(MakeBatchResultErrorTest, CorpusGenerateSnippetsNamesTheDocument) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  Query query = Query::Parse("texas");
  XSeekEngine engine;
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  std::vector<CorpusResult> page = *hits;
  CorpusResult bogus;
  bogus.document = "stores";
  bogus.result.root = static_cast<NodeId>(
      corpus.Find("stores")->index().num_nodes() + 7);
  page.insert(page.begin() + 1, bogus);

  auto snippets = corpus.GenerateSnippets(query, page, SnippetOptions{});
  ASSERT_FALSE(snippets.ok());
  EXPECT_EQ(snippets.status().code(), StatusCode::kInvalidArgument);
  const std::string expected_prefix =
      "result 1 of " + std::to_string(page.size()) + " (document 'stores'): ";
  EXPECT_EQ(snippets.status().message().find(expected_prefix), 0u)
      << snippets.status();
}

TEST(MakeBatchResultErrorTest, CachedCorpusPathPreservesIndexAndDocument) {
  XmlCorpus corpus;
  corpus.EnableSnippetCache();
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  Query query = Query::Parse("texas");
  XSeekEngine engine;
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());

  std::vector<CorpusResult> page = *hits;
  CorpusResult bogus;
  bogus.document = "stores";
  bogus.result.root = static_cast<NodeId>(
      corpus.Find("stores")->index().num_nodes() + 7);
  page.insert(page.begin() + 1, bogus);

  // Cold: every slot is a miss; the error names the page-level index and
  // the document.
  auto cold = corpus.GenerateSnippets(query, page, SnippetOptions{});
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kInvalidArgument);
  const std::string expected_prefix =
      "result 1 of " + std::to_string(page.size()) + " (document 'stores'): ";
  EXPECT_EQ(cold.status().message().find(expected_prefix), 0u)
      << cold.status();

  // Warm the valid hits, then fail again: the miss subset is now just
  // {1}, but the error must still name index 1 of the full page,
  // identical to the cold and the uncached paths.
  ASSERT_TRUE(corpus.GenerateSnippets(query, *hits, SnippetOptions{}).ok());
  auto warm = corpus.GenerateSnippets(query, page, SnippetOptions{});
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status(), cold.status());

  XmlCorpus uncached;
  ASSERT_TRUE(uncached.AddDocument("stores", GenerateStoresXml()).ok());
  auto reference = uncached.GenerateSnippets(query, page, SnippetOptions{});
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(warm.status(), reference.status())
      << "cached and uncached pages must report identical failures";
}

TEST(SnippetServiceTest, StageStatsCountEveryStageRun) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  SnippetService service(&ctx.db);
  EXPECT_TRUE(service.StageStatsSnapshot()[0].calls == 0);

  SnippetContext context(&ctx.db, ctx.query);
  const size_t generations = 3;
  for (size_t g = 0; g < generations; ++g) {
    ASSERT_TRUE(
        service.Generate(context, ctx.results[0], SnippetOptions{}).ok());
  }
  std::vector<StageStat> stats = service.StageStatsSnapshot();
  ASSERT_EQ(stats.size(), service.stages().size());
  for (size_t s = 0; s < stats.size(); ++s) {
    EXPECT_EQ(stats[s].name, service.stages()[s]->name());
    EXPECT_EQ(stats[s].calls, generations) << stats[s].name;
    EXPECT_GE(stats[s].total_ns, stats[s].max_ns) << stats[s].name;
  }
  service.ResetStageStats();
  for (const StageStat& stat : service.StageStatsSnapshot()) {
    EXPECT_EQ(stat.calls, 0u);
    EXPECT_EQ(stat.total_ns, 0u);
    EXPECT_EQ(stat.max_ns, 0u);
  }
}

TEST(SnippetServiceTest, StageStatsAccumulateAcrossParallelBatches) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_GT(ctx.results.size(), 1u);
  SnippetService service(&ctx.db);
  BatchOptions batch;
  batch.num_threads = 4;
  ASSERT_TRUE(
      service.GenerateBatch(ctx.query, ctx.results, SnippetOptions{}, batch)
          .ok());
  for (const StageStat& stat : service.StageStatsSnapshot()) {
    EXPECT_EQ(stat.calls, ctx.results.size()) << stat.name;
  }
}

TEST(StageStatsRegistryTest, MergeSumsTotalsAndMaxesPeaks) {
  StageStatsRegistry registry;
  registry.Record("search", 100);
  registry.Record("search", 300);
  registry.Merge({StageStat{"search", 2, 500, 250},
                  StageStat{"ilist", 1, 40, 40},
                  StageStat{"never-ran", 0, 0, 0}});
  std::vector<StageStat> stats = registry.Snapshot();
  ASSERT_EQ(stats.size(), 2u);  // never-ran stages are not materialized
  EXPECT_EQ(stats[0].name, "search");
  EXPECT_EQ(stats[0].calls, 4u);
  EXPECT_EQ(stats[0].total_ns, 900u);
  EXPECT_EQ(stats[0].max_ns, 300u);
  EXPECT_EQ(stats[1].name, "ilist");
  EXPECT_EQ(stats[1].calls, 1u);
  registry.Reset();
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(StageStatsTest, CorpusAggregatesSnippetStagesAcrossDocuments) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  XSeekEngine engine;
  Query query = Query::Parse("texas");
  auto hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  ASSERT_TRUE(corpus.GenerateSnippets(query, *hits, SnippetOptions{}).ok());

  std::vector<StageStat> stats = corpus.StageStatsSnapshot();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].name, "search");
  bool saw_selection = false;
  for (const StageStat& stat : stats) {
    if (stat.name == "instance-selection") {
      saw_selection = true;
      // Every merged hit ran the pipeline once, across both documents.
      EXPECT_EQ(stat.calls, hits->size());
    }
  }
  EXPECT_TRUE(saw_selection);
}

TEST(SnippetServiceTest, StageErrorsNameTheStage) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  // A custom sequence missing the statistics stage: the ilist stage must
  // fail with a FailedPrecondition naming itself.
  std::vector<std::unique_ptr<SnippetStage>> stages;
  stages.push_back(std::make_unique<IListStage>());
  SnippetService service(&ctx.db, std::move(stages));
  SnippetContext context(&ctx.db, ctx.query);
  auto snippet = service.Generate(context, ctx.results[0], SnippetOptions{});
  ASSERT_FALSE(snippet.ok());
  EXPECT_EQ(snippet.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(snippet.status().message().find("ilist stage"), std::string::npos)
      << snippet.status();
}

}  // namespace
}  // namespace extract

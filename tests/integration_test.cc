// End-to-end properties of the whole pipeline (load -> search -> snippets)
// across datasets and random databases.

#include <gtest/gtest.h>

#include <set>

#include "datagen/movies_dataset.h"
#include "datagen/random_xml.h"
#include "datagen/retailer_dataset.h"
#include "datagen/workload.h"
#include "search/result_builder.h"
#include "snippet/snippet_service.h"
#include "xml/serializer.h"

namespace extract {
namespace {

TEST(IntegrationTest, RetailerEndToEndGolden) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  Query query = Query::Parse("Texas, apparel, retailer");
  XSeekEngine engine;
  auto results = engine.Search(*db, query);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);

  SnippetService service(&*db);
  SnippetOptions options;
  options.size_bound = 21;
  auto snippet = service.Generate(query, results->front(), options);
  ASSERT_TRUE(snippet.ok());

  // Figure 3 golden IList through the full pipeline.
  EXPECT_EQ(snippet->ilist.ToString(),
            "Texas, apparel, retailer, clothes, store, Brook Brothers, "
            "Houston, outwear, man, casual, suit, woman");
  // The snippet's return entity and key match §2.2.
  EXPECT_EQ(db->index().labels().Name(snippet->return_entity.label),
            "retailer");
  EXPECT_EQ(snippet->key.value, "Brook Brothers");
  // The tree is rooted at the retailer and within budget.
  EXPECT_EQ(snippet->tree->name(), "retailer");
  EXPECT_LE(snippet->edges(), 21u);
}

TEST(IntegrationTest, MoviesWorkloadEndToEnd) {
  MoviesDatasetOptions dataset;
  dataset.num_movies = 40;
  auto db = XmlDatabase::Load(GenerateMoviesXml(dataset));
  ASSERT_TRUE(db.ok());
  WorkloadOptions workload_options;
  workload_options.num_queries = 15;
  workload_options.keywords_per_query = 2;
  auto workload = GenerateWorkload(*db, workload_options);

  XSeekEngine engine;
  SnippetService service(&*db);
  SnippetOptions options;
  options.size_bound = 12;
  size_t total_results = 0;
  for (const Query& query : workload) {
    auto results = engine.Search(*db, query);
    ASSERT_TRUE(results.ok());
    total_results += results->size();
    auto snippets = service.GenerateBatch(query, *results, options, BatchOptions{});
    ASSERT_TRUE(snippets.ok());
    for (const Snippet& snippet : *snippets) {
      EXPECT_LE(snippet.edges(), options.size_bound);
      EXPECT_EQ(snippet.tree->CountEdges(), snippet.edges());
      // Every query keyword that has an instance in the result should be
      // covered: keywords rank first and the root is free for tag matches.
      for (size_t k = 0; k < query.keywords.size() && k < snippet.covered.size();
           ++k) {
        // (Coverage may legitimately fail for keywords costlier than the
        // whole budget; with bound 12 on this dataset that cannot happen —
        // max depth is 4.)
        EXPECT_TRUE(snippet.covered[k])
            << "keyword " << query.keywords[k] << " uncovered";
      }
    }
  }
  EXPECT_GT(total_results, 0u);
}

// Cross-dataset pipeline invariants on random databases.
class RandomPipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPipelineProperty, SnippetInvariantsHold) {
  RandomXmlOptions options;
  options.seed = GetParam();
  options.levels = 2 + GetParam() % 2;
  options.entities_per_parent = 4 + GetParam() % 3;
  options.attributes_per_entity = 2;
  options.domain_size = 6;
  options.zipf_skew = 1.0;
  RandomXmlData data = GenerateRandomXml(options);
  auto db = XmlDatabase::Load(data.xml);
  ASSERT_TRUE(db.ok());

  WorkloadOptions workload_options;
  workload_options.num_queries = 5;
  workload_options.keywords_per_query = 2;
  workload_options.seed = GetParam() * 31 + 7;
  auto workload = GenerateWorkload(*db, workload_options);

  XSeekEngine engine;
  SnippetService service(&*db);
  for (const Query& query : workload) {
    auto results = engine.Search(*db, query);
    ASSERT_TRUE(results.ok());
    for (size_t bound : {0u, 3u, 7u, 15u}) {
      SnippetOptions snippet_options;
      snippet_options.size_bound = bound;
      for (const QueryResult& result : *results) {
        auto snippet = service.Generate(query, result, snippet_options);
        ASSERT_TRUE(snippet.ok()) << snippet.status();
        // Size bound respected, tree consistent with the node set.
        EXPECT_LE(snippet->edges(), bound);
        EXPECT_EQ(snippet->tree->CountEdges(), snippet->edges());
        // Node set closed under parents within the result subtree.
        std::set<NodeId> set(snippet->nodes.begin(), snippet->nodes.end());
        for (NodeId n : snippet->nodes) {
          EXPECT_TRUE(db->index().IsAncestorOrSelf(result.root, n));
          if (n != result.root) {
            EXPECT_TRUE(set.count(db->index().parent(n)) > 0);
          }
        }
        // Covered flags consistent: covered items have an instance in the
        // selected set.
        std::vector<ItemInstances> instances =
            FindItemInstances(*db, result.root, snippet->ilist);
        for (size_t i = 0; i < instances.size(); ++i) {
          bool any = false;
          for (NodeId inst : instances[i].nodes) {
            if (set.count(inst) > 0) any = true;
          }
          EXPECT_EQ(snippet->covered[i], any) << "item " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDbs, RandomPipelineProperty,
                         ::testing::Range<uint64_t>(1, 11));

TEST(IntegrationTest, MaterializedResultPreservesDominantFeatureRanking) {
  // Serializing a result and re-loading it as its own document preserves
  // the dominant-feature ranking: feature statistics are per-result, so
  // they agree whether the result lives inside the database or stands
  // alone. (Key/return-entity inference can legitimately differ — the
  // standalone document lacks the DTD and the surrounding instances.)
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  Query query = Query::Parse("Texas apparel retailer");
  XSeekEngine engine;
  auto results = engine.Search(*db, query);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());

  SnippetService service(&*db);
  SnippetOptions options;
  options.size_bound = 12;
  auto in_place = service.Generate(query, results->front(), options);
  ASSERT_TRUE(in_place.ok());

  auto tree = MaterializeSubtree(db->index(), results->front().root);
  auto db2 = XmlDatabase::Load(WriteXml(*tree));
  ASSERT_TRUE(db2.ok());
  auto results2 = XSeekEngine().Search(*db2, query);
  ASSERT_TRUE(results2.ok());
  ASSERT_EQ(results2->size(), 1u);
  SnippetService service2(&*db2);
  auto standalone = service2.Generate(query, results2->front(), options);
  ASSERT_TRUE(standalone.ok());

  auto features = [](const Snippet& s) {
    std::vector<std::string> out;
    for (const auto& item : s.ilist.items()) {
      if (item.kind == IListItemKind::kDominantFeature) {
        out.push_back(item.display);
      }
    }
    return out;
  };
  std::vector<std::string> a = features(*in_place);
  std::vector<std::string> b = features(*standalone);
  ASSERT_GE(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

}  // namespace
}  // namespace extract

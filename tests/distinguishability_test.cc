#include "snippet/distinguishability.h"

#include <gtest/gtest.h>

#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"

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

Snippet MakeSnippet(std::initializer_list<const char*> covered_items,
                    const char* key = nullptr) {
  Snippet s;
  for (const char* item : covered_items) {
    IListItem i;
    i.display = item;
    s.ilist.Add(i);
    s.covered.push_back(true);
  }
  if (key != nullptr) {
    s.key.value = key;
    s.key.value_node = 1;  // marks found()
  }
  return s;
}

TEST(SnippetOverlapTest, IdenticalAndDisjoint) {
  Snippet a = MakeSnippet({"x", "y"});
  Snippet b = MakeSnippet({"x", "y"});
  Snippet c = MakeSnippet({"p", "q"});
  EXPECT_DOUBLE_EQ(SnippetItemOverlap(a, b), 1.0);
  EXPECT_DOUBLE_EQ(SnippetItemOverlap(a, c), 0.0);
}

TEST(SnippetOverlapTest, PartialAndCaseInsensitive) {
  Snippet a = MakeSnippet({"Texas", "Houston", "man"});
  Snippet b = MakeSnippet({"texas", "Austin"});
  // intersection {texas}, union {texas, houston, man, austin} -> 0.25.
  EXPECT_DOUBLE_EQ(SnippetItemOverlap(a, b), 0.25);
}

TEST(SnippetOverlapTest, UncoveredItemsIgnored) {
  Snippet a = MakeSnippet({"x", "y"});
  a.covered[1] = false;  // y not actually in the snippet
  Snippet b = MakeSnippet({"y"});
  EXPECT_DOUBLE_EQ(SnippetItemOverlap(a, b), 0.0);
}

TEST(SnippetOverlapTest, EmptySnippets) {
  Snippet a, b;
  EXPECT_DOUBLE_EQ(SnippetItemOverlap(a, b), 0.0);
}

TEST(MeasureDistinctnessTest, CountsKeysAndOverlap) {
  std::vector<Snippet> batch;
  batch.push_back(MakeSnippet({"x", "y"}, "K1"));
  batch.push_back(MakeSnippet({"x", "y"}, "K2"));
  batch.push_back(MakeSnippet({"x", "z"}, "K1"));
  BatchDistinctness d = MeasureDistinctness(batch);
  EXPECT_EQ(d.results, 3u);
  EXPECT_EQ(d.keyed_snippets, 3u);
  EXPECT_EQ(d.distinct_keys, 2u);  // K1 repeats
  // overlaps: (1,2)=1.0, (1,3)=1/3, (2,3)=1/3 -> mean = 5/9.
  EXPECT_NEAR(d.mean_pairwise_overlap, 5.0 / 9.0, 1e-9);
}

TEST(MeasureDistinctnessTest, SingleSnippet) {
  std::vector<Snippet> batch;
  batch.push_back(MakeSnippet({"x"}, "K"));
  BatchDistinctness d = MeasureDistinctness(batch);
  EXPECT_EQ(d.results, 1u);
  EXPECT_EQ(d.mean_pairwise_overlap, 0.0);
}

TEST(DiversifyTest, MatchesPipelineWhenDisabled) {
  RetailerDatasetOptions dataset;
  dataset.num_matching_retailers = 3;
  Ctx ctx = RunQuery(GenerateRetailerXml(dataset), "texas apparel retailer");
  ASSERT_EQ(ctx.results.size(), 3u);
  SnippetOptions options;
  options.size_bound = 12;
  SnippetService service(&ctx.db);
  auto plain = service.GenerateBatch(ctx.query, ctx.results, options, BatchOptions{});
  ASSERT_TRUE(plain.ok());
  DiversifyOptions off;
  off.commonality_penalty = 0.0;
  auto diverse =
      GenerateDiverseSnippets(ctx.db, ctx.query, ctx.results, options, off);
  ASSERT_TRUE(diverse.ok());
  ASSERT_EQ(plain->size(), diverse->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].ilist.ToString(), (*diverse)[i].ilist.ToString());
    EXPECT_EQ((*plain)[i].nodes, (*diverse)[i].nodes);
  }
}

TEST(DiversifyTest, SingleResultUnchanged) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "texas apparel retailer");
  ASSERT_EQ(ctx.results.size(), 1u);
  SnippetOptions options;
  options.size_bound = 12;
  SnippetService service(&ctx.db);
  auto plain = service.GenerateBatch(ctx.query, ctx.results, options, BatchOptions{});
  auto diverse = GenerateDiverseSnippets(ctx.db, ctx.query, ctx.results,
                                         options, DiversifyOptions{});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(diverse.ok());
  EXPECT_EQ((*plain)[0].ilist.ToString(), (*diverse)[0].ilist.ToString());
}

TEST(DiversifyTest, ReducesOverlapOnSharedFeatureBatch) {
  // Three groups share feature (item, color, red) but each has a private
  // dominant size value; diversification should prefer the private ones.
  std::string xml = R"(<db>
    <group>
      <item><color>red</color><size>small</size></item>
      <item><color>red</color><size>small</size></item>
      <item><color>red</color><size>small</size></item>
      <item><color>blue</color><size>large</size></item>
    </group>
    <group>
      <item><color>red</color><size>medium</size></item>
      <item><color>red</color><size>medium</size></item>
      <item><color>red</color><size>medium</size></item>
      <item><color>blue</color><size>small</size></item>
    </group>
    <group>
      <item><color>red</color><size>large</size></item>
      <item><color>red</color><size>large</size></item>
      <item><color>red</color><size>large</size></item>
      <item><color>blue</color><size>medium</size></item>
    </group>
  </db>)";
  Ctx ctx = RunQuery(xml, "group red");
  ASSERT_EQ(ctx.results.size(), 3u);
  SnippetOptions options;
  options.size_bound = 4;  // tight: only one feature fits after the paths
  SnippetService service(&ctx.db);
  auto plain = service.GenerateBatch(ctx.query, ctx.results, options, BatchOptions{});
  ASSERT_TRUE(plain.ok());
  DiversifyOptions diversify;
  diversify.commonality_penalty = 2.0;
  auto diverse = GenerateDiverseSnippets(ctx.db, ctx.query, ctx.results,
                                         options, diversify);
  ASSERT_TRUE(diverse.ok());
  BatchDistinctness before = MeasureDistinctness(*plain);
  BatchDistinctness after = MeasureDistinctness(*diverse);
  EXPECT_LE(after.mean_pairwise_overlap, before.mean_pairwise_overlap);
}

TEST(DiversifyTest, StillRespectsBound) {
  RetailerDatasetOptions dataset;
  dataset.num_matching_retailers = 3;
  Ctx ctx = RunQuery(GenerateRetailerXml(dataset), "texas apparel retailer");
  for (size_t bound : {4u, 8u, 16u}) {
    SnippetOptions options;
    options.size_bound = bound;
    auto diverse = GenerateDiverseSnippets(ctx.db, ctx.query, ctx.results,
                                           options, DiversifyOptions{});
    ASSERT_TRUE(diverse.ok());
    for (const Snippet& s : *diverse) {
      EXPECT_LE(s.edges(), bound);
      EXPECT_EQ(s.tree->CountEdges(), s.edges());
    }
  }
}

TEST(DiversifyTest, InvalidResultRejected) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  std::vector<QueryResult> bogus(1);
  bogus[0].root = kInvalidNode;
  EXPECT_FALSE(GenerateDiverseSnippets(ctx.db, ctx.query, bogus,
                                       SnippetOptions{}, DiversifyOptions{})
                   .ok());
}

}  // namespace
}  // namespace extract

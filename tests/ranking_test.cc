#include "search/ranking.h"

#include <gtest/gtest.h>

#include "datagen/movies_dataset.h"

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

TEST(RankingTest, DeeperSlcaScoresHigher) {
  // Both results match "x"; the deep one is a more specific hit. Each
  // result is rooted at its own match (no entities exist here, so the
  // engine's master-entity scoping would merge them into the root).
  auto db = XmlDatabase::Load(R"(<db>
    <shallow>x</shallow>
    <outer><mid><deep>x</deep></mid></outer>
  </db>)");
  ASSERT_TRUE(db.ok());
  const PostingList* x = db->inverted().Find("x");
  ASSERT_NE(x, nullptr);
  ASSERT_EQ(x->size(), 2u);
  std::vector<QueryResult> results;
  for (NodeId match : x->nodes) {
    QueryResult result;
    result.root = match;
    result.slca = match;
    result.matches = {{match}};
    results.push_back(std::move(result));
  }
  Ctx ctx{std::move(*db), Query::Parse("x"), std::move(results)};
  RankingOptions options;
  options.frequency_weight = 0.0;
  options.compactness_weight = 0.0;
  auto ranked = RankResults(ctx.db, ctx.results, options);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ctx.db.index().label_name(ranked[0].result.root), "deep");
  EXPECT_GT(ranked[0].score, ranked[1].score);
}

TEST(RankingTest, MoreMatchesScoreHigher) {
  Ctx ctx = RunQuery(R"(<db>
    <doc><w>x</w></doc>
    <doc><w>x</w><w>x</w><w>x</w></doc>
  </db>)",
                     "x doc");
  ASSERT_EQ(ctx.results.size(), 2u);
  RankingOptions options;
  options.specificity_weight = 0.0;
  options.compactness_weight = 0.0;
  auto ranked = RankResults(ctx.db, ctx.results, options);
  // The 3-match doc wins; it is the second in document order.
  EXPECT_GT(ranked[0].result.root, ranked[1].result.root);
}

TEST(RankingTest, SmallerResultScoresHigherOnCompactness) {
  Ctx ctx = RunQuery(R"(<db>
    <doc><w>x</w></doc>
    <doc><w>x</w><pad>a</pad><pad>b</pad><pad>c</pad><pad>d</pad></doc>
  </db>)",
                     "x doc");
  ASSERT_EQ(ctx.results.size(), 2u);
  RankingOptions options;
  options.specificity_weight = 0.0;
  options.frequency_weight = 0.0;
  auto ranked = RankResults(ctx.db, ctx.results, options);
  EXPECT_LT(ranked[0].result.root, ranked[1].result.root);  // small doc first
}

TEST(RankingTest, StableAndDeterministic) {
  MoviesDatasetOptions dataset;
  dataset.num_movies = 20;
  Ctx ctx = RunQuery(GenerateMoviesXml(dataset), "drama movie");
  auto a = RankResults(ctx.db, ctx.results, RankingOptions{});
  auto b = RankResults(ctx.db, ctx.results, RankingOptions{});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].result.root, b[i].result.root);
    EXPECT_EQ(a[i].score, b[i].score);
  }
  // Scores are non-increasing.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i - 1].score, a[i].score);
  }
}

TEST(RankingTest, TieBreaksTowardDocumentOrder) {
  Ctx ctx = RunQuery(R"(<db>
    <doc><w>x</w></doc>
    <doc><w>x</w></doc>
  </db>)",
                     "x doc");
  ASSERT_EQ(ctx.results.size(), 2u);
  auto ranked = RankResults(ctx.db, ctx.results, RankingOptions{});
  EXPECT_LT(ranked[0].result.root, ranked[1].result.root);
  EXPECT_EQ(ranked[0].score, ranked[1].score);
}

TEST(RankingTest, EmptyInput) {
  auto db = XmlDatabase::Load("<a>x</a>");
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(RankResults(*db, {}, RankingOptions{}).empty());
}

}  // namespace
}  // namespace extract

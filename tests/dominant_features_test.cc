#include "snippet/dominant_features.h"

#include <gtest/gtest.h>

#include "datagen/retailer_dataset.h"
#include "search/search_engine.h"

namespace extract {
namespace {

// The paper's Figure-1 query result with its feature statistics. The
// ranking reads each returned feature's value string from the document, so
// the database stays alive beside the statistics.
struct Paper {
  XmlDatabase db;
  FeatureStatistics stats;

  std::vector<RankedFeature> Rank(const DominantFeatureOptions& options) const {
    return IdentifyDominantFeatures(db.index(), stats, options);
  }
};

Paper PaperStats() {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  EXPECT_TRUE(db.ok()) << db.status();
  XSeekEngine engine;
  auto results = engine.Search(*db, Query::Parse("Texas apparel retailer"));
  EXPECT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), results->front().root);
  return Paper{std::move(*db), std::move(stats)};
}

TEST(DominantFeaturesTest, PaperRankingOrder) {
  // §2.3: Houston(3.0) > outwear(2.2) > man(1.8) > casual(1.4) > suit(1.2)
  // > woman(1.1). Trivially dominant D==1 features (Texas, Brook Brothers,
  // apparel) score 1.0 and come after woman.
  const Paper paper = PaperStats();
  auto ranked = paper.Rank(DominantFeatureOptions{});
  ASSERT_GE(ranked.size(), 6u);
  EXPECT_EQ(ranked[0].feature.value, "Houston");
  EXPECT_NEAR(ranked[0].score, 3.0, 1e-9);
  EXPECT_EQ(ranked[1].feature.value, "outwear");
  EXPECT_EQ(ranked[2].feature.value, "man");
  EXPECT_NEAR(ranked[2].score, 1.8, 1e-9);
  EXPECT_EQ(ranked[3].feature.value, "casual");
  EXPECT_EQ(ranked[4].feature.value, "suit");
  EXPECT_EQ(ranked[5].feature.value, "woman");
}

TEST(DominantFeaturesTest, NonDominantExcluded) {
  const Paper paper = PaperStats();
  auto ranked = paper.Rank(DominantFeatureOptions{});
  for (const RankedFeature& rf : ranked) {
    EXPECT_NE(rf.feature.value, "children");
    EXPECT_NE(rf.feature.value, "formal");
    EXPECT_NE(rf.feature.value, "skirt");
    EXPECT_NE(rf.feature.value, "sweaters");
    EXPECT_NE(rf.feature.value, "Austin");
  }
}

TEST(DominantFeaturesTest, MaxFeaturesCaps) {
  const Paper paper = PaperStats();
  DominantFeatureOptions options;
  options.max_features = 3;
  auto ranked = paper.Rank(options);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].feature.value, "Houston");
  EXPECT_EQ(ranked[2].feature.value, "man");
}

TEST(DominantFeaturesTest, RawCountRankingDiffersFromDominance) {
  // The paper's motivating point: by raw counts, casual(700) and man(600)
  // beat Houston(6); dominance normalization puts Houston first.
  const Paper paper = PaperStats();
  DominantFeatureOptions raw;
  raw.normalize = false;
  auto by_count = paper.Rank(raw);
  ASSERT_GE(by_count.size(), 3u);
  EXPECT_EQ(by_count[0].feature.value, "casual");
  EXPECT_EQ(by_count[0].occurrences, 700u);
  EXPECT_EQ(by_count[1].feature.value, "man");
  // Houston is far down the raw-count ranking.
  size_t houston_rank = 0;
  for (size_t i = 0; i < by_count.size(); ++i) {
    if (by_count[i].feature.value == "Houston") houston_rank = i;
  }
  EXPECT_GT(houston_rank, 5u);
}

TEST(DominantFeaturesTest, RawCountIncludesNonDominant) {
  const Paper paper = PaperStats();
  DominantFeatureOptions raw;
  raw.normalize = false;
  auto by_count = paper.Rank(raw);
  bool has_formal = false;
  for (const auto& rf : by_count) {
    if (rf.feature.value == "formal") has_formal = true;
  }
  EXPECT_TRUE(has_formal);
}

TEST(DominantFeaturesTest, DeterministicTieBreak) {
  auto db = XmlDatabase::Load(R"(<db>
    <s><c>b</c></s><s><c>b</c></s><s><c>a</c></s><s><c>a</c></s>
    <s><c>z</c></s>
  </db>)");
  ASSERT_TRUE(db.ok());
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), db->index().root());
  // a and b both have DS = 2/(5/3) = 1.2: tie broken lexicographically.
  auto ranked =
      IdentifyDominantFeatures(db->index(), stats, DominantFeatureOptions{});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].feature.value, "a");
  EXPECT_EQ(ranked[1].feature.value, "b");
}

TEST(DominantFeaturesTest, EmptyStatsYieldNothing) {
  auto db = XmlDatabase::Load("<a><b><c/></b></a>");
  ASSERT_TRUE(db.ok());
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), db->index().root());
  EXPECT_TRUE(
      IdentifyDominantFeatures(db->index(), stats, DominantFeatureOptions{})
          .empty());
}

}  // namespace
}  // namespace extract

#include "snippet/feature_statistics.h"

#include <gtest/gtest.h>

#include "datagen/retailer_dataset.h"
#include "search/search_engine.h"

namespace extract {
namespace {

struct Ctx {
  XmlDatabase db;
  NodeId result_root;
  FeatureStatistics stats;
};

Ctx LoadPaperResult() {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  EXPECT_TRUE(db.ok()) << db.status();
  XSeekEngine engine;
  auto results = engine.Search(*db, Query::Parse("Texas apparel retailer"));
  EXPECT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 1u);
  NodeId root = results->front().root;
  FeatureStatistics stats =
      FeatureStatistics::Compute(db->index(), db->classification(), root);
  return Ctx{std::move(*db), root, std::move(stats)};
}

FeatureType T(const XmlDatabase& db, const char* e, const char* a) {
  return FeatureType{db.index().labels().Find(e), db.index().labels().Find(a)};
}

// The statistics of `type`; null when the result has no feature of it.
const FeatureTypeStats* FindType(const FeatureStatistics& stats,
                                 FeatureType type) {
  for (const FeatureTypeStats& t : stats.types()) {
    if (t.type == type) return &t;
  }
  return nullptr;
}

// N(e,a,v) of the feature (e, a, v), reading each counted value's string
// through its text node; 0 when the feature does not occur.
size_t Count(const XmlDatabase& db, const FeatureStatistics& stats,
             const char* e, const char* a, const std::string& v) {
  const FeatureTypeStats* type = FindType(stats, T(db, e, a));
  if (type == nullptr) return 0;
  for (const ValueCount& value : type->values) {
    if (db.index().text(value.text) == v) return value.count;
  }
  return 0;
}

// DS of a feature that occurs, through the ranking's own arithmetic.
double Score(const XmlDatabase& db, const FeatureStatistics& stats,
             const char* e, const char* a, const std::string& v) {
  const size_t count = Count(db, stats, e, a, v);
  EXPECT_GT(count, 0u) << v << " does not occur";
  return FindType(stats, T(db, e, a))->DominanceScore(count);
}

bool Dominant(const XmlDatabase& db, const FeatureStatistics& stats,
              const char* e, const char* a, const std::string& v) {
  const size_t count = Count(db, stats, e, a, v);
  EXPECT_GT(count, 0u) << v << " does not occur";
  return FindType(stats, T(db, e, a))->IsDominant(count);
}

// ---- The paper's worked example, §2.3 / Figure 1, numbers verified exactly.

TEST(FeatureStatisticsPaperTest, CityCounts) {
  Ctx ctx = LoadPaperResult();
  const FeatureTypeStats* stats =
      FindType(ctx.stats, T(ctx.db, "store", "city"));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->total_occurrences, 10u);      // N(store, city)
  EXPECT_EQ(stats->domain_size(), 5u);           // D(store, city)
  EXPECT_EQ(Count(ctx.db, ctx.stats, "store", "city", "Houston"), 6u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "store", "city", "Austin"), 1u);
}

TEST(FeatureStatisticsPaperTest, FittingCounts) {
  Ctx ctx = LoadPaperResult();
  const FeatureTypeStats* stats =
      FindType(ctx.stats, T(ctx.db, "clothes", "fitting"));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->total_occurrences, 1000u);
  EXPECT_EQ(stats->domain_size(), 3u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "fitting", "man"), 600u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "fitting", "woman"), 360u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "fitting", "children"), 40u);
}

TEST(FeatureStatisticsPaperTest, SituationCounts) {
  Ctx ctx = LoadPaperResult();
  const FeatureTypeStats* stats =
      FindType(ctx.stats, T(ctx.db, "clothes", "situation"));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->total_occurrences, 1000u);
  EXPECT_EQ(stats->domain_size(), 2u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "situation", "casual"), 700u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "situation", "formal"), 300u);
}

TEST(FeatureStatisticsPaperTest, CategoryCounts) {
  Ctx ctx = LoadPaperResult();
  const FeatureTypeStats* stats =
      FindType(ctx.stats, T(ctx.db, "clothes", "category"));
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->total_occurrences, 1070u);
  EXPECT_EQ(stats->domain_size(), 11u);  // 4 named + 7 other categories
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "category", "outwear"), 220u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "category", "suit"), 120u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "category", "skirt"), 80u);
  EXPECT_EQ(Count(ctx.db, ctx.stats, "clothes", "category", "sweaters"), 70u);
}

TEST(FeatureStatisticsPaperTest, DominanceScores) {
  Ctx ctx = LoadPaperResult();
  const XmlDatabase& db = ctx.db;
  // DS(Houston) = 6 / (10/5) = 3.0 — the paper's §2.3 numbers.
  EXPECT_DOUBLE_EQ(Score(db, ctx.stats, "store", "city", "Houston"),
                   3.0);
  EXPECT_DOUBLE_EQ(Score(db, ctx.stats, "clothes", "fitting", "man"),
                   1.8);
  EXPECT_NEAR(Score(db, ctx.stats, "clothes", "fitting", "woman"),
              1.08, 1e-9);
  EXPECT_DOUBLE_EQ(
      Score(db, ctx.stats, "clothes", "situation", "casual"), 1.4);
  EXPECT_NEAR(Score(db, ctx.stats, "clothes", "category", "outwear"),
              220.0 / (1070.0 / 11.0), 1e-9);  // ≈ 2.26
  EXPECT_NEAR(Score(db, ctx.stats, "clothes", "category", "suit"),
              120.0 / (1070.0 / 11.0), 1e-9);  // ≈ 1.23
}

TEST(FeatureStatisticsPaperTest, DominanceDecisions) {
  Ctx ctx = LoadPaperResult();
  const XmlDatabase& db = ctx.db;
  EXPECT_TRUE(Dominant(db, ctx.stats, "store", "city", "Houston"));
  EXPECT_TRUE(Dominant(db, ctx.stats, "clothes", "fitting", "man"));
  EXPECT_TRUE(Dominant(db, ctx.stats, "clothes", "fitting", "woman"));
  EXPECT_TRUE(Dominant(db, ctx.stats, "clothes", "situation", "casual"));
  EXPECT_TRUE(Dominant(db, ctx.stats, "clothes", "category", "outwear"));
  EXPECT_TRUE(Dominant(db, ctx.stats, "clothes", "category", "suit"));
  // Not dominant per the paper: children, formal, skirt, sweaters, Austin.
  EXPECT_FALSE(Dominant(db, ctx.stats, "clothes", "fitting", "children"));
  EXPECT_FALSE(Dominant(db, ctx.stats, "clothes", "situation", "formal"));
  EXPECT_FALSE(Dominant(db, ctx.stats, "clothes", "category", "skirt"));
  EXPECT_FALSE(Dominant(db, ctx.stats, "clothes", "category", "sweaters"));
  EXPECT_FALSE(Dominant(db, ctx.stats, "store", "city", "Austin"));
}

TEST(FeatureStatisticsPaperTest, DomainSizeOneIsTriviallyDominant) {
  Ctx ctx = LoadPaperResult();
  const XmlDatabase& db = ctx.db;
  // Every store is in Texas: D(store, state) == 1; DS == 1 but dominant.
  EXPECT_DOUBLE_EQ(Score(db, ctx.stats, "store", "state", "Texas"), 1.0);
  EXPECT_TRUE(Dominant(db, ctx.stats, "store", "state", "Texas"));
}

// ------------------------------------------------------------- unit cases

TEST(FeatureStatisticsTest, SmallHandComputedExample) {
  auto db = XmlDatabase::Load(R"(<db>
    <s><c>red</c></s><s><c>red</c></s><s><c>blue</c></s><s><c>green</c></s>
  </db>)");
  ASSERT_TRUE(db.ok());
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), db->index().root());
  // N=4, D=3, N(red)=2 -> DS = 2/(4/3) = 1.5.
  EXPECT_DOUBLE_EQ(Score(*db, stats, "s", "c", "red"), 1.5);
  EXPECT_TRUE(Dominant(*db, stats, "s", "c", "red"));
  EXPECT_DOUBLE_EQ(Score(*db, stats, "s", "c", "blue"), 0.75);
  EXPECT_FALSE(Dominant(*db, stats, "s", "c", "blue"));
  EXPECT_EQ(Count(*db, stats, "s", "c", "red"), 2u);
  EXPECT_EQ(Count(*db, stats, "s", "c", "blue"), 1u);
}

TEST(FeatureStatisticsTest, BoundaryScoreExactlyOneNotDominant) {
  // Two values, one occurrence each: DS == 1.0 for both; D != 1 -> neither
  // dominant (exact integer arithmetic, no floating point wobble).
  auto db = XmlDatabase::Load("<db><s><c>x</c></s><s><c>y</c></s></db>");
  ASSERT_TRUE(db.ok());
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), db->index().root());
  EXPECT_DOUBLE_EQ(Score(*db, stats, "s", "c", "x"), 1.0);
  EXPECT_FALSE(Dominant(*db, stats, "s", "c", "x"));
}

TEST(FeatureStatisticsTest, AbsentFeatureIsNotCounted) {
  auto db = XmlDatabase::Load("<db><s><c>x</c></s><s><c>x</c></s></db>");
  ASSERT_TRUE(db.ok());
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), db->index().root());
  EXPECT_EQ(Count(*db, stats, "s", "c", "nope"), 0u);
  const FeatureTypeStats* type = FindType(stats, T(*db, "s", "c"));
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->domain_size(), 1u);
  EXPECT_EQ(FindType(stats, T(*db, "db", "s")), nullptr);
}

TEST(FeatureStatisticsTest, AttributeUnderConnectionNodeAttributesToEntity) {
  // <info> is a connection node between store and its attribute city:
  // the feature is still (store, city, v).
  auto db = XmlDatabase::Load(R"(<db>
    <store><info><city>H</city></info></store>
    <store><info><city>H</city></info></store>
  </db>)");
  ASSERT_TRUE(db.ok());
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), db->index().root());
  const FeatureTypeStats* type = FindType(stats, T(*db, "store", "city"));
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->total_occurrences, 2u);
}

TEST(FeatureStatisticsTest, OneAttributeLabelUnderTwoEntityLabels) {
  // "name" belongs to store entities and to mall entities: two feature
  // types of one attribute label, whichever entity label comes first.
  auto db = XmlDatabase::Load(R"(<db>
    <mall><name>M</name></mall><store><name>B</name></store>
    <store><name>A</name></store><mall><name>M</name></mall>
    <store><name>B</name></store><mall><name>A</name></mall>
  </db>)");
  ASSERT_TRUE(db.ok());
  FeatureStatistics stats = FeatureStatistics::Compute(
      db->index(), db->classification(), db->index().root());
  ASSERT_EQ(stats.types().size(), 2u);
  EXPECT_LT(stats.types()[0].type, stats.types()[1].type);
  const FeatureTypeStats* store = FindType(stats, T(*db, "store", "name"));
  const FeatureTypeStats* mall = FindType(stats, T(*db, "mall", "name"));
  ASSERT_NE(store, nullptr);
  ASSERT_NE(mall, nullptr);
  EXPECT_EQ(store->total_occurrences, 3u);
  EXPECT_EQ(store->domain_size(), 2u);
  EXPECT_EQ(Count(*db, stats, "store", "name", "B"), 2u);
  EXPECT_EQ(Count(*db, stats, "store", "name", "A"), 1u);
  EXPECT_EQ(mall->total_occurrences, 3u);
  EXPECT_EQ(Count(*db, stats, "mall", "name", "M"), 2u);
  EXPECT_EQ(Count(*db, stats, "mall", "name", "A"), 1u);
  // Values ascend by id, and so by string.
  for (const FeatureTypeStats* type : {store, mall}) {
    EXPECT_EQ(db->index().text(type->values[0].text), "A");
    EXPECT_LT(type->values[0].value, type->values[1].value);
  }
}

TEST(FeatureStatisticsTest, SumOfScoresEqualsDomainSize) {
  // Property: sum over values v of DS((e,a,v)) == D(e,a), since
  // sum N(v) == N and each is divided by N/D.
  Ctx ctx = LoadPaperResult();
  for (const FeatureTypeStats& type_stats : ctx.stats.types()) {
    double sum = 0.0;
    for (const ValueCount& value : type_stats.values) {
      sum += type_stats.DominanceScore(value.count);
    }
    EXPECT_NEAR(sum, static_cast<double>(type_stats.domain_size()), 1e-6);
  }
}

TEST(FeatureStatisticsTest, RenderAggregatesRareValues) {
  Ctx ctx = LoadPaperResult();
  std::string out = ctx.stats.Render(ctx.db.index(), 4);
  EXPECT_NE(out.find("Houston: 6"), std::string::npos);
  EXPECT_NE(out.find("man: 600"), std::string::npos);
  EXPECT_NE(out.find("other ("), std::string::npos);
}

}  // namespace
}  // namespace extract

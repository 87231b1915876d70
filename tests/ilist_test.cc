#include "snippet/ilist.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/retailer_dataset.h"
#include "snippet/feature_statistics.h"

namespace extract {
namespace {

struct Ctx {
  XmlDatabase db;
  Query query;
  NodeId root = kInvalidNode;
  IList ilist;
};

Ctx BuildFor(std::string xml, const std::string& query_text,
             DominantFeatureOptions features = {}) {
  auto db = XmlDatabase::Load(std::move(xml));
  EXPECT_TRUE(db.ok()) << db.status();
  Query query = Query::Parse(query_text);
  XSeekEngine engine;
  auto results = engine.Search(*db, query);
  EXPECT_TRUE(results.ok()) << results.status();
  EXPECT_FALSE(results->empty());
  NodeId root = results->front().root;
  FeatureStatistics stats =
      FeatureStatistics::Compute(db->index(), db->classification(), root);
  ReturnEntityInfo entity =
      IdentifyReturnEntity(db->index(), db->classification(), query, root);
  ResultKeyInfo key = IdentifyResultKey(db->index(), db->classification(),
                                        db->keys(), entity, root);
  IList ilist = BuildIList(db->index(), query, root, key, stats,
                           db->classification(), features);
  return Ctx{std::move(*db), std::move(query), root, std::move(ilist)};
}

TEST(IListGoldenTest, PaperFigure3Exact) {
  // Figure 3, verbatim: "Texas, apparel, retailer, clothes, store,
  // Brook Brothers, Houston, outwear, man, casual, suit, woman".
  Ctx ctx = BuildFor(GenerateRetailerXml(), "Texas, apparel, retailer");
  EXPECT_EQ(ctx.ilist.ToString(),
            "Texas, apparel, retailer, clothes, store, Brook Brothers, "
            "Houston, outwear, man, casual, suit, woman");
}

TEST(IListGoldenTest, PaperFigure3Kinds) {
  Ctx ctx = BuildFor(GenerateRetailerXml(), "Texas, apparel, retailer");
  const auto& items = ctx.ilist.items();
  ASSERT_EQ(items.size(), 12u);
  EXPECT_EQ(items[0].kind, IListItemKind::kKeyword);
  EXPECT_EQ(items[2].kind, IListItemKind::kKeyword);
  EXPECT_EQ(items[3].kind, IListItemKind::kEntityName);  // clothes
  EXPECT_EQ(items[4].kind, IListItemKind::kEntityName);  // store
  EXPECT_EQ(items[5].kind, IListItemKind::kResultKey);   // Brook Brothers
  for (size_t i = 6; i < 12; ++i) {
    EXPECT_EQ(items[i].kind, IListItemKind::kDominantFeature);
  }
  // Feature scores are decreasing.
  for (size_t i = 7; i < 12; ++i) {
    EXPECT_LE(items[i].score, items[i - 1].score);
  }
}

TEST(IListTest, KeywordsKeepUserOrderAndCase) {
  Ctx ctx = BuildFor(GenerateRetailerXml(), "Apparel TEXAS retailer");
  const auto& items = ctx.ilist.items();
  EXPECT_EQ(items[0].display, "Apparel");
  EXPECT_EQ(items[1].display, "TEXAS");
  EXPECT_EQ(items[0].token, "apparel");
  EXPECT_EQ(items[1].token, "texas");
}

TEST(IListTest, EntityNameDuplicatingKeywordSkipped) {
  // "retailer" is both a keyword and an entity name: appears once.
  Ctx ctx = BuildFor(GenerateRetailerXml(), "Texas apparel retailer");
  size_t count = 0;
  for (const auto& item : ctx.ilist.items()) {
    if (item.display == "retailer" || item.display == "Retailer") ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(IListTest, FeatureDuplicatingKeywordSkipped) {
  // Feature (store, state, Texas) is trivially dominant but duplicates the
  // keyword "Texas": it must not appear twice.
  Ctx ctx = BuildFor(GenerateRetailerXml(), "Texas apparel retailer");
  size_t count = 0;
  for (const auto& item : ctx.ilist.items()) {
    if (ToLowerCopy(item.display) == "texas") ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(IListTest, MaxFeaturesOptionLimitsTail) {
  DominantFeatureOptions features;
  features.max_features = 2;
  Ctx ctx = BuildFor(GenerateRetailerXml(), "Texas apparel retailer", features);
  // 3 keywords + 2 entities + key + 2 features = 8.
  EXPECT_EQ(ctx.ilist.size(), 8u);
  EXPECT_EQ(ctx.ilist[6].display, "Houston");
  EXPECT_EQ(ctx.ilist[7].display, "outwear");
}

TEST(IListTest, NoKeyWhenNoEntity) {
  Ctx ctx = BuildFor("<a><b>hello world</b></a>", "hello");
  for (const auto& item : ctx.ilist.items()) {
    EXPECT_NE(item.kind, IListItemKind::kResultKey);
    EXPECT_NE(item.kind, IListItemKind::kEntityName);
  }
  // The keyword, plus the trivially dominant (a, b, "hello world") feature
  // (sole value of its type, D == 1).
  ASSERT_EQ(ctx.ilist.size(), 2u);
  EXPECT_EQ(ctx.ilist[0].kind, IListItemKind::kKeyword);
  EXPECT_EQ(ctx.ilist[1].kind, IListItemKind::kDominantFeature);
  EXPECT_EQ(ctx.ilist[1].display, "hello world");
}

TEST(IListTest, ItemKindNames) {
  EXPECT_EQ(IListItemKindToString(IListItemKind::kKeyword), "keyword");
  EXPECT_EQ(IListItemKindToString(IListItemKind::kEntityName), "entity");
  EXPECT_EQ(IListItemKindToString(IListItemKind::kResultKey), "key");
  EXPECT_EQ(IListItemKindToString(IListItemKind::kDominantFeature), "feature");
}

TEST(IListTest, MatchSpecsCarryLabels) {
  Ctx ctx = BuildFor(GenerateRetailerXml(), "Texas apparel retailer");
  const LabelTable& labels = ctx.db.index().labels();
  for (const auto& item : ctx.ilist.items()) {
    switch (item.kind) {
      case IListItemKind::kKeyword:
        EXPECT_FALSE(item.token.empty());
        break;
      case IListItemKind::kEntityName:
        EXPECT_NE(item.entity_label, kInvalidLabel);
        break;
      case IListItemKind::kResultKey:
      case IListItemKind::kDominantFeature:
        EXPECT_NE(item.entity_label, kInvalidLabel);
        EXPECT_NE(item.attribute_label, kInvalidLabel);
        EXPECT_FALSE(item.display.empty());
        ASSERT_LT(item.value_id, ctx.db.classification().num_values());
        EXPECT_EQ(ctx.db.index().text(
                      ctx.db.classification().value_text(item.value_id)),
                  item.display);
        break;
    }
  }
  // Spot-check one feature's labels: Houston is (store, city, Houston).
  for (const auto& item : ctx.ilist.items()) {
    if (item.display == "Houston") {
      EXPECT_EQ(labels.Name(item.entity_label), "store");
      EXPECT_EQ(labels.Name(item.attribute_label), "city");
    }
  }
}

}  // namespace
}  // namespace extract

#include "search/search_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "datagen/retailer_dataset.h"
#include "search/ranking.h"
#include "search/result_builder.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace extract {
namespace {

TEST(QueryTest, ParseTokenizesAndFolds) {
  Query q = Query::Parse("Texas, apparel, Retailer");
  EXPECT_EQ(q.keywords,
            (std::vector<std::string>{"texas", "apparel", "retailer"}));
  EXPECT_EQ(q.raw_keywords,
            (std::vector<std::string>{"Texas", "apparel", "Retailer"}));
  EXPECT_EQ(q.ToString(), "texas apparel retailer");
}

TEST(QueryTest, ParseEmpty) {
  Query q = Query::Parse("  ,;  ");
  EXPECT_TRUE(q.keywords.empty());
}

TEST(XmlDatabaseTest, LoadBuildsAllIndexes) {
  const std::string xml = GenerateRetailerXml();
  auto db = XmlDatabase::Load(xml);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_GT(db->index().num_nodes(), 1000u);
  EXPECT_GT(db->inverted().vocabulary_size(), 10u);
  EXPECT_FALSE(db->classification().entity_labels().empty());
  // The classification is the one the document's DTD gives.
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE((*parsed)->has_dtd());
  const NodeClassification with_dtd =
      NodeClassification::Classify(db->index(), &(*parsed)->dtd());
  for (NodeId n = 0; n < static_cast<NodeId>(db->index().num_nodes()); ++n) {
    ASSERT_EQ(db->classification().category(n), with_dtd.category(n)) << n;
  }
}

TEST(XmlDatabaseTest, LoadRejectsMalformed) {
  EXPECT_FALSE(XmlDatabase::Load("<a><b></a>").ok());
  EXPECT_FALSE(XmlDatabase::Load("").ok());
}

TEST(MasterEntityTest, WalksUpToEntity) {
  auto db = XmlDatabase::Load(R"(<db>
    <store><name>A</name><info><city>H</city></info></store>
    <store><name>B</name><info><city>H</city></info></store>
  </db>)");
  ASSERT_TRUE(db.ok());
  const auto& doc = db->index();
  // Find the first <city> and walk up: master entity is <store>.
  NodeId city = kInvalidNode;
  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    if (doc.is_element(n) && doc.label_name(n) == "city") {
      city = n;
      break;
    }
  }
  ASSERT_NE(city, kInvalidNode);
  NodeId master = MasterEntityOf(doc, db->classification(), city);
  EXPECT_EQ(doc.label_name(master), "store");
}

TEST(MasterEntityTest, FallsBackToRoot) {
  auto db = XmlDatabase::Load("<a><b>x</b></a>");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(MasterEntityOf(db->index(), db->classification(), 1),
            db->index().root());
}

TEST(XSeekEngineTest, PaperQueryReturnsRetailerSubtree) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  Query q = Query::Parse("Texas apparel retailer");
  auto results = engine.Search(*db, q);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);  // only Brook Brothers matches all three
  const QueryResult& r = results->front();
  EXPECT_EQ(db->index().label_name(r.root), "retailer");
  // All three keywords have matches inside the result.
  ASSERT_EQ(r.matches.size(), 3u);
  for (const auto& m : r.matches) EXPECT_FALSE(m.empty());
}

TEST(XSeekEngineTest, MultipleMatchingRetailers) {
  RetailerDatasetOptions options;
  options.num_matching_retailers = 3;
  auto db = XmlDatabase::Load(GenerateRetailerXml(options));
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  auto results = engine.Search(*db, Query::Parse("Texas apparel retailer"));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 3u);
  for (const QueryResult& r : *results) {
    EXPECT_EQ(db->index().label_name(r.root), "retailer");
  }
}

TEST(XSeekEngineTest, NoResultsForAbsentKeyword) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  auto results = engine.Search(*db, Query::Parse("zebra apparel"));
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(XSeekEngineTest, EmptyQueryIsInvalid) {
  auto db = XmlDatabase::Load("<a>x</a>");
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  EXPECT_EQ(engine.Search(*db, Query{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(XSeekEngineTest, ResultsComeInDocumentOrderWithoutOverlap) {
  RetailerDatasetOptions dataset;
  dataset.num_matching_retailers = 4;
  struct Case {
    std::string xml;
    std::string text;
    /// Tags of the expected result roots, in order; empty = not pinned.
    std::vector<std::string> roots;
  };
  const Case cases[] = {
      {GenerateRetailerXml(dataset), "texas apparel", {}},
      // A store's own field matches ahead of one of its products: the
      // product's result lies inside the store's and is dropped.
      {"<db><store><info>texas</info><product><name>texas</name></product>"
       "<product><name>ohio</name></product></store>"
       "<store><info>utah</info><product><name>iowa</name></product>"
       "<product><name>maine</name></product></store></db>",
       "texas",
       {}},
      // A store's own field matches after one of its products: the store
      // encloses the product's kept result and is dropped.
      {"<db><store><product><name>texas</name><price>1</price></product>"
       "<product><name>ohio</name></product><info>texas</info></store>"
       "<store><info>maine</info></store></db>",
       "texas",
       {"product"}},
  };
  for (const Case& c : cases) {
    auto db = XmlDatabase::Load(c.xml);
    ASSERT_TRUE(db.ok());
    XSeekEngine engine;
    const Query query = Query::Parse(c.text);
    auto results = engine.Search(*db, query);
    ASSERT_TRUE(results.ok());
    ASSERT_FALSE(results->empty()) << c.text;
    std::vector<NodeId> roots;
    for (size_t i = 0; i < results->size(); ++i) {
      roots.push_back((*results)[i].root);
      if (i == 0) continue;
      EXPECT_GE((*results)[i].root,
                db->index().subtree_end((*results)[i - 1].root))
          << c.text;
    }
    if (!c.roots.empty()) {
      ASSERT_EQ(results->size(), c.roots.size()) << c.text;
      for (size_t i = 0; i < roots.size(); ++i) {
        EXPECT_EQ(db->index().label_name(roots[i]), c.roots[i]) << c.text;
      }
    }
    // A drained incremental producer keeps exactly the same roots. It
    // borrows the ranking options, so they outlive it.
    const RankingOptions ranking;
    auto producer = engine.OpenIncremental(*db, query, ranking, 0);
    ASSERT_TRUE(producer.ok()) << producer.status();
    std::vector<RankedResult> pulled;
    while (!(*producer)->Exhausted()) {
      ASSERT_TRUE((*producer)->Pull(&pulled).ok());
    }
    std::vector<NodeId> pulled_roots;
    for (const RankedResult& r : pulled) pulled_roots.push_back(r.result.root);
    std::sort(pulled_roots.begin(), pulled_roots.end());
    EXPECT_EQ(pulled_roots, roots) << c.text;
  }
}

TEST(ResultBuilderTest, MaterializeSubtreeRoundTrips) {
  auto db = XmlDatabase::Load("<a><b>t</b><c><d>u</d></c></a>");
  ASSERT_TRUE(db.ok());
  auto tree = MaterializeSubtree(db->index(), 0);
  EXPECT_EQ(WriteXml(*tree), "<a><b>t</b><c><d>u</d></c></a>");
  NodeId c = 3;
  EXPECT_EQ(db->index().label_name(c), "c");
  EXPECT_EQ(WriteXml(*MaterializeSubtree(db->index(), c)), "<c><d>u</d></c>");
}

TEST(ResultBuilderTest, MaterializeInducedTree) {
  auto db = XmlDatabase::Load("<a><b>t</b><c><d>u</d></c></a>");
  ASSERT_TRUE(db.ok());
  // Select a, c, d (skip b subtree and d's text).
  NodeId a = 0, c = 3, d = 4;
  auto tree = MaterializeInducedTree(db->index(), a, {a, c, d});
  EXPECT_EQ(WriteXml(*tree), "<a><c><d/></c></a>");
}

}  // namespace
}  // namespace extract

#include <gtest/gtest.h>

#include <map>

#include "datagen/movies_dataset.h"
#include "datagen/random_xml.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "datagen/workload.h"
#include "search/search_engine.h"
#include "snippet/snippet_service.h"
#include "xml/parser.h"

namespace extract {
namespace {

// Counts (attribute label -> value -> occurrences) under `root`.
std::map<std::string, std::map<std::string, size_t>> CountValues(
    const IndexedDocument& doc, NodeId root) {
  std::map<std::string, std::map<std::string, size_t>> out;
  NodeId end = doc.subtree_end(root);
  for (NodeId n = root; n < end; ++n) {
    if (!doc.is_element(n)) continue;
    NodeId t = doc.sole_text_child(n);
    if (t != kInvalidNode) out[doc.label_name(n)][doc.text(t)]++;
  }
  return out;
}

TEST(RetailerDatasetTest, Figure1StatisticsExact) {
  auto db = XmlDatabase::Load(GenerateRetailerXml());
  ASSERT_TRUE(db.ok()) << db.status();
  // Locate the Brook Brothers retailer (first retailer element).
  NodeId retailer = kInvalidNode;
  const auto& doc = db->index();
  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    if (doc.is_element(n) && doc.label_name(n) == "retailer") {
      retailer = n;
      break;
    }
  }
  ASSERT_NE(retailer, kInvalidNode);
  auto counts = CountValues(doc, retailer);

  // Figure 1, right portion — every number exact.
  EXPECT_EQ(counts["city"]["Houston"], 6u);
  EXPECT_EQ(counts["city"]["Austin"], 1u);
  EXPECT_EQ(counts["city"].size(), 5u);  // Houston, Austin + 3 others
  EXPECT_EQ(counts["fitting"]["man"], 600u);
  EXPECT_EQ(counts["fitting"]["woman"], 360u);
  EXPECT_EQ(counts["fitting"]["children"], 40u);
  EXPECT_EQ(counts["situation"]["casual"], 700u);
  EXPECT_EQ(counts["situation"]["formal"], 300u);
  EXPECT_EQ(counts["category"]["outwear"], 220u);
  EXPECT_EQ(counts["category"]["suit"], 120u);
  EXPECT_EQ(counts["category"]["skirt"], 80u);
  EXPECT_EQ(counts["category"]["sweaters"], 70u);
  EXPECT_EQ(counts["category"].size(), 11u);  // 4 named + 7 others
  size_t other_total = 0;
  for (const auto& [value, count] : counts["category"]) {
    if (value != "outwear" && value != "suit" && value != "skirt" &&
        value != "sweaters") {
      other_total += count;
    }
  }
  EXPECT_EQ(other_total, 580u);
  EXPECT_EQ(counts["state"]["Texas"], 10u);
  EXPECT_EQ(counts["name"]["Brook Brothers"], 1u);
  EXPECT_EQ(counts["product"]["apparel"], 1u);
}

TEST(RetailerDatasetTest, OptionsControlRetailerCounts) {
  RetailerDatasetOptions options;
  options.num_matching_retailers = 3;
  options.num_other_retailers = 4;
  auto db = XmlDatabase::Load(GenerateRetailerXml(options));
  ASSERT_TRUE(db.ok());
  size_t retailers = 0;
  const auto& doc = db->index();
  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    if (doc.is_element(n) && doc.label_name(n) == "retailer") ++retailers;
  }
  EXPECT_EQ(retailers, 7u);
}

TEST(RetailerDatasetTest, DeterministicForSeed) {
  RetailerDatasetOptions options;
  options.num_matching_retailers = 2;
  EXPECT_EQ(GenerateRetailerXml(options), GenerateRetailerXml(options));
  options.seed = 43;
  // Generated retailers change with the seed (the Figure-1 one does not).
  RetailerDatasetOptions base;
  base.num_matching_retailers = 2;
  EXPECT_NE(GenerateRetailerXml(options), GenerateRetailerXml(base));
}

TEST(RetailerDatasetTest, DtdToggle) {
  RetailerDatasetOptions options;
  options.include_dtd = false;
  auto without = ParseXml(GenerateRetailerXml(options));
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE((*without)->has_dtd());
  auto with = ParseXml(GenerateRetailerXml());
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE((*with)->has_dtd());
}

TEST(StoresDatasetTest, DemoStoresPresent) {
  auto db = XmlDatabase::Load(GenerateStoresXml());
  ASSERT_TRUE(db.ok());
  auto counts = CountValues(db->index(), db->index().root());
  EXPECT_EQ(counts["name"]["Levis"], 1u);
  EXPECT_EQ(counts["name"]["ESprit"], 1u);
  EXPECT_EQ(counts["state"]["Texas"], 2u);  // only the two demo stores
  // Levis is jeans-heavy; ESprit outwear-heavy.
  EXPECT_GE(counts["category"]["jeans"], 10u);
  EXPECT_GE(counts["category"]["outwear"], 10u);
}

TEST(StoresDatasetTest, OtherStoresDoNotMatchTexas) {
  StoresDatasetOptions options;
  options.num_other_stores = 4;
  auto db = XmlDatabase::Load(GenerateStoresXml(options));
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  auto results = engine.Search(*db, Query::Parse("store texas"));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
}

TEST(MoviesDatasetTest, StructureAndKeys) {
  MoviesDatasetOptions options;
  options.num_movies = 30;
  auto db = XmlDatabase::Load(GenerateMoviesXml(options));
  ASSERT_TRUE(db.ok()) << db.status();
  const auto& doc = db->index();
  size_t movies = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    if (doc.is_element(n) && doc.label_name(n) == "movie") ++movies;
  }
  EXPECT_EQ(movies, 30u);
  // movie and actor are entities with mined keys title / name.
  LabelId movie = doc.labels().Find("movie");
  LabelId actor = doc.labels().Find("actor");
  EXPECT_TRUE(db->classification().IsEntityLabel(movie));
  EXPECT_TRUE(db->classification().IsEntityLabel(actor));
  ASSERT_TRUE(db->keys().KeyAttributeOf(movie).has_value());
  EXPECT_EQ(doc.labels().Name(*db->keys().KeyAttributeOf(movie)), "title");
  ASSERT_TRUE(db->keys().KeyAttributeOf(actor).has_value());
  EXPECT_EQ(doc.labels().Name(*db->keys().KeyAttributeOf(actor)), "name");
}

TEST(MoviesDatasetTest, DramaDominates) {
  auto db = XmlDatabase::Load(GenerateMoviesXml());
  ASSERT_TRUE(db.ok());
  auto counts = CountValues(db->index(), db->index().root());
  EXPECT_GT(counts["genre"]["drama"], counts["genre"]["comedy"]);
  EXPECT_GT(counts["genre"]["drama"], counts["genre"]["thriller"]);
}

TEST(RandomXmlTest, ShapeMatchesOptions) {
  RandomXmlOptions options;
  options.levels = 2;
  options.entities_per_parent = 5;
  options.attributes_per_entity = 2;
  RandomXmlData data = GenerateRandomXml(options);
  auto db = XmlDatabase::Load(data.xml);
  ASSERT_TRUE(db.ok()) << db.status();
  const auto& doc = db->index();
  size_t e0 = 0, e1 = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    if (!doc.is_element(n)) continue;
    if (doc.label_name(n) == "e0") ++e0;
    if (doc.label_name(n) == "e1") ++e1;
  }
  EXPECT_EQ(e0, 5u);
  EXPECT_EQ(e1, 25u);
  // approx_elements counts entities + attributes.
  EXPECT_EQ(data.approx_elements, 1u + 5 + 25 + (5 + 25) * 2);
  EXPECT_EQ(data.planted_values.size(), 4u);  // 2 levels x 2 attrs
}

TEST(RandomXmlTest, PlantedValueIsMostFrequent) {
  RandomXmlOptions options;
  options.levels = 1;
  options.entities_per_parent = 300;
  options.attributes_per_entity = 1;
  options.domain_size = 10;
  options.zipf_skew = 1.3;
  RandomXmlData data = GenerateRandomXml(options);
  auto db = XmlDatabase::Load(data.xml);
  ASSERT_TRUE(db.ok());
  auto counts = CountValues(db->index(), db->index().root());
  const auto& [attr, planted] = data.planted_values[0];
  size_t planted_count = counts[attr][planted];
  for (const auto& [value, count] : counts[attr]) {
    EXPECT_LE(count, planted_count) << value;
  }
}

TEST(RandomXmlTest, EntitiesClassifiedViaDtd) {
  RandomXmlData data = GenerateRandomXml(RandomXmlOptions{});
  auto db = XmlDatabase::Load(data.xml);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(
      db->classification().IsEntityLabel(db->index().labels().Find("e0")));
  EXPECT_TRUE(
      db->classification().IsEntityLabel(db->index().labels().Find("e1")));
}

TEST(RandomXmlTest, Deterministic) {
  RandomXmlOptions options;
  options.seed = 5;
  EXPECT_EQ(GenerateRandomXml(options).xml, GenerateRandomXml(options).xml);
  RandomXmlOptions other = options;
  other.seed = 6;
  EXPECT_NE(GenerateRandomXml(options).xml, GenerateRandomXml(other).xml);
}

TEST(WorkloadTest, QueriesAreSatisfiable) {
  auto db = XmlDatabase::Load(GenerateStoresXml());
  ASSERT_TRUE(db.ok());
  WorkloadOptions options;
  options.num_queries = 10;
  options.keywords_per_query = 2;
  auto workload = GenerateWorkload(*db, options);
  ASSERT_EQ(workload.size(), 10u);
  for (const Query& q : workload) {
    ASSERT_EQ(q.keywords.size(), 2u);
    for (const std::string& kw : q.keywords) {
      EXPECT_NE(db->inverted().Find(kw), nullptr) << kw;
    }
  }
}

TEST(WorkloadTest, DeterministicForSeed) {
  auto db = XmlDatabase::Load(GenerateStoresXml());
  ASSERT_TRUE(db.ok());
  WorkloadOptions options;
  auto a = GenerateWorkload(*db, options);
  auto b = GenerateWorkload(*db, options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].keywords, b[i].keywords);
  }
}

TEST(WorkloadTest, FrequencyBiasShiftsSelectivity) {
  auto db = XmlDatabase::Load(GenerateMoviesXml());
  ASSERT_TRUE(db.ok());
  WorkloadOptions rare;
  rare.frequency_bias = 0.0;
  rare.num_queries = 30;
  WorkloadOptions frequent = rare;
  frequent.frequency_bias = 1.0;
  auto sum_freq = [&](const std::vector<Query>& queries) {
    size_t total = 0;
    for (const Query& q : queries) {
      for (const auto& kw : q.keywords) {
        total += db->inverted().Find(kw)->size();
      }
    }
    return total;
  };
  EXPECT_LT(sum_freq(GenerateWorkload(*db, rare)),
            sum_freq(GenerateWorkload(*db, frequent)));
}

}  // namespace
}  // namespace extract

#include "snippet/baselines.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "datagen/stores_dataset.h"
#include "snippet/feature_statistics.h"
#include "snippet/snippet_service.h"

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

TEST(BfsTruncationTest, RespectsBoundAndBreadthFirstOrder) {
  auto db = XmlDatabase::Load("<a><b>t</b><c><d>u</d></c></a>");
  ASSERT_TRUE(db.ok());
  // ids: 0:a 1:b 2:"t" 3:c 4:d 5:"u"  — BFS from a: b, c, then t, d, then u.
  Selection s2 = BfsTruncationSelection(db->index(), 0, 2);
  EXPECT_EQ(s2.nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(s2.edges(), 2u);
  Selection s4 = BfsTruncationSelection(db->index(), 0, 4);
  EXPECT_EQ(s4.nodes, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  Selection s100 = BfsTruncationSelection(db->index(), 0, 100);
  EXPECT_EQ(s100.nodes.size(), db->index().num_nodes());
}

TEST(BfsTruncationTest, ZeroBound) {
  auto db = XmlDatabase::Load("<a><b>t</b></a>");
  ASSERT_TRUE(db.ok());
  Selection s = BfsTruncationSelection(db->index(), 0, 0);
  EXPECT_EQ(s.nodes, (std::vector<NodeId>{0}));
}

TEST(PathToMatchesTest, CoversFirstMatchPerKeyword) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "levis texas");
  ASSERT_EQ(ctx.results.size(), 1u);
  const QueryResult& r = ctx.results[0];
  Selection s =
      PathToMatchesSelection(ctx.db.index(), r.root, r, /*size_bound=*/10);
  EXPECT_LE(s.edges(), 10u);
  // Both keyword paths fit: the name (Levis) and state (texas) elements.
  std::set<NodeId> set(s.nodes.begin(), s.nodes.end());
  for (const auto& matches : r.matches) {
    ASSERT_FALSE(matches.empty());
    EXPECT_TRUE(set.count(matches.front()) > 0);
  }
}

TEST(PathToMatchesTest, SkipsUnaffordablePaths) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "levis jeans");
  ASSERT_EQ(ctx.results.size(), 1u);
  const QueryResult& r = ctx.results[0];
  // Bound 1: "levis" sits at depth 2 under the store root (name + text is
  // not needed — match node is the <name> element, cost 1). "jeans"
  // (category element) costs 3 more and is skipped.
  Selection s = PathToMatchesSelection(ctx.db.index(), r.root, r, 1);
  EXPECT_EQ(s.edges(), 1u);
}

TEST(CoverageOfNodeSetTest, MatchesManualCheck) {
  auto db = XmlDatabase::Load("<a><b>t</b><c><d>u</d></c></a>");
  ASSERT_TRUE(db.ok());
  std::vector<ItemInstances> items;
  items.push_back(ItemInstances{{1}});     // covered
  items.push_back(ItemInstances{{4, 5}});  // not covered
  items.push_back(ItemInstances{{}});      // no instances
  auto covered = CoverageOfNodeSet({0, 1, 2}, items);
  EXPECT_EQ(covered, (std::vector<bool>{true, false, false}));
}

TEST(BaselineComparisonTest, GreedyCoversAtLeastBfsOnIListMetric) {
  // The headline quality claim (E8): at equal budget, the IList-aware
  // greedy selector covers at least as many IList items as blind BFS
  // truncation — on every result and every bound tried.
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  SnippetService service(&ctx.db);
  for (const QueryResult& r : ctx.results) {
    for (size_t bound : {2u, 4u, 6u, 8u, 12u, 20u}) {
      SnippetOptions options;
      options.size_bound = bound;
      auto snippet = service.Generate(ctx.query, r, options);
      ASSERT_TRUE(snippet.ok());
      std::vector<ItemInstances> instances =
          FindItemInstances(ctx.db, r.root, snippet->ilist);
      Selection bfs = BfsTruncationSelection(ctx.db.index(), r.root, bound);
      auto bfs_covered = CoverageOfNodeSet(bfs.nodes, instances);
      size_t bfs_count = static_cast<size_t>(
          std::count(bfs_covered.begin(), bfs_covered.end(), true));
      EXPECT_GE(snippet->covered_count(), bfs_count)
          << "bound " << bound << " root " << r.root;
    }
  }
}

}  // namespace
}  // namespace extract

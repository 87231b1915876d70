#include "snippet/snippet_service.h"

#include <gtest/gtest.h>

#include <set>

#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
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

// True iff the snippet tree contains an element `tag` with text `value`.
bool TreeContains(const XmlNode& node, const std::string& tag,
                  const std::string& value) {
  if (node.kind() == XmlNodeKind::kElement && node.name() == tag &&
      node.InnerText() == value) {
    return true;
  }
  for (const auto& child : node.children()) {
    if (TreeContains(*child, tag, value)) return true;
  }
  return false;
}

TEST(PipelineTest, PaperFigure2SnippetContents) {
  // With a budget comparable to Figure 2 (~21 edges), the snippet must show
  // the key (Brook Brothers), the product (apparel), a Texas state, a
  // Houston city, and the top dominant features.
  Ctx ctx = RunQuery(GenerateRetailerXml(), "Texas, apparel, retailer");
  ASSERT_EQ(ctx.results.size(), 1u);
  SnippetService service(&ctx.db);
  SnippetOptions options;
  options.size_bound = 21;
  auto snippet = service.Generate(ctx.query, ctx.results[0], options);
  ASSERT_TRUE(snippet.ok()) << snippet.status();
  EXPECT_LE(snippet->edges(), 21u);
  ASSERT_NE(snippet->tree, nullptr);
  EXPECT_EQ(snippet->tree->name(), "retailer");
  EXPECT_TRUE(TreeContains(*snippet->tree, "name", "Brook Brothers"));
  EXPECT_TRUE(TreeContains(*snippet->tree, "product", "apparel"));
  EXPECT_TRUE(TreeContains(*snippet->tree, "state", "Texas"));
  EXPECT_TRUE(TreeContains(*snippet->tree, "city", "Houston"));
  EXPECT_TRUE(TreeContains(*snippet->tree, "category", "outwear"));
  EXPECT_TRUE(TreeContains(*snippet->tree, "fitting", "man"));
}

TEST(PipelineTest, SnippetNeverExceedsBound) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "Texas apparel retailer");
  SnippetService service(&ctx.db);
  for (size_t bound : {0u, 1u, 2u, 4u, 6u, 10u, 16u, 30u, 100u}) {
    SnippetOptions options;
    options.size_bound = bound;
    auto snippet = service.Generate(ctx.query, ctx.results[0], options);
    ASSERT_TRUE(snippet.ok());
    EXPECT_LE(snippet->edges(), bound) << "bound " << bound;
    EXPECT_EQ(snippet->tree->CountEdges(), snippet->edges());
  }
}

TEST(PipelineTest, CoverageMonotoneInBound) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "Texas apparel retailer");
  SnippetService service(&ctx.db);
  size_t prev = 0;
  for (size_t bound : {0u, 2u, 4u, 8u, 12u, 16u, 24u, 40u}) {
    SnippetOptions options;
    options.size_bound = bound;
    auto snippet = service.Generate(ctx.query, ctx.results[0], options);
    ASSERT_TRUE(snippet.ok());
    size_t covered = snippet->covered_count();
    EXPECT_GE(covered, prev) << "bound " << bound;
    prev = covered;
  }
}

TEST(PipelineTest, LargeBoundCoversWholeIList) {
  Ctx ctx = RunQuery(GenerateRetailerXml(), "Texas apparel retailer");
  SnippetService service(&ctx.db);
  SnippetOptions options;
  options.size_bound = 100000;
  auto snippet = service.Generate(ctx.query, ctx.results[0], options);
  ASSERT_TRUE(snippet.ok());
  EXPECT_EQ(snippet->covered_count(), snippet->ilist.size());
}

TEST(PipelineTest, Figure5StoreTexasSnippets) {
  // §4: the two results are keyed Levis vs ESprit, and the snippets convey
  // "Levis features jeans" / "ESprit focuses on outwear". (Our IList packs
  // the keyword, entity and key paths first, so the category feature enters
  // the snippet at bound 10; the demo's bound-6 screenshot reflects a
  // slightly different display encoding of attribute values.)
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  ASSERT_EQ(ctx.results.size(), 2u);
  SnippetService service(&ctx.db);
  SnippetOptions options;
  options.size_bound = 10;
  auto snippets = service.GenerateBatch(ctx.query, ctx.results, options, BatchOptions{});
  ASSERT_TRUE(snippets.ok());
  ASSERT_EQ(snippets->size(), 2u);

  const Snippet& levis = (*snippets)[0];
  EXPECT_LE(levis.edges(), 10u);
  EXPECT_EQ(levis.key.value, "Levis");
  EXPECT_TRUE(TreeContains(*levis.tree, "name", "Levis"));
  EXPECT_TRUE(TreeContains(*levis.tree, "category", "jeans"));

  const Snippet& esprit = (*snippets)[1];
  EXPECT_EQ(esprit.key.value, "ESprit");
  EXPECT_TRUE(TreeContains(*esprit.tree, "name", "ESprit"));
  EXPECT_TRUE(TreeContains(*esprit.tree, "category", "outwear"));

  // At the demo's bound of 6 the snippets still stay within budget and are
  // keyed distinctly.
  options.size_bound = 6;
  auto small = service.GenerateBatch(ctx.query, ctx.results, options, BatchOptions{});
  ASSERT_TRUE(small.ok());
  EXPECT_LE((*small)[0].edges(), 6u);
  EXPECT_TRUE(TreeContains(*(*small)[0].tree, "name", "Levis"));
  EXPECT_TRUE(TreeContains(*(*small)[1].tree, "name", "ESprit"));
}

TEST(PipelineTest, SnippetIsSubtreeOfResult) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  SnippetService service(&ctx.db);
  SnippetOptions options;
  options.size_bound = 8;
  for (const QueryResult& result : ctx.results) {
    auto snippet = service.Generate(ctx.query, result, options);
    ASSERT_TRUE(snippet.ok());
    for (NodeId n : snippet->nodes) {
      EXPECT_TRUE(ctx.db.index().IsAncestorOrSelf(result.root, n));
    }
    // Closed under parents.
    std::set<NodeId> set(snippet->nodes.begin(), snippet->nodes.end());
    for (NodeId n : snippet->nodes) {
      if (n != result.root) EXPECT_TRUE(set.count(ctx.db.index().parent(n)));
    }
  }
}

TEST(PipelineTest, InvalidResultRootRejected) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  SnippetService service(&ctx.db);
  QueryResult bogus;
  bogus.root = kInvalidNode;
  EXPECT_EQ(service.Generate(ctx.query, bogus, SnippetOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bogus.root = static_cast<NodeId>(ctx.db.index().num_nodes() + 5);
  EXPECT_FALSE(service.Generate(ctx.query, bogus, SnippetOptions{}).ok());
}

TEST(PipelineTest, GenerateBatchNamesFailingResultIndex) {
  // Regression: a bad result mid-batch used to discard the index of the
  // failure; the Status must now say which result failed.
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  std::vector<QueryResult> results = ctx.results;
  QueryResult bogus;
  bogus.root = kInvalidNode;
  results.push_back(bogus);
  SnippetService service(&ctx.db);
  auto snippets = service.GenerateBatch(ctx.query, results, SnippetOptions{}, BatchOptions{});
  ASSERT_FALSE(snippets.ok());
  EXPECT_EQ(snippets.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(snippets.status().message().find("result 2 of 3"),
            std::string::npos)
      << snippets.status();
}

TEST(PipelineTest, ZeroBoundYieldsRootOnlySnippet) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas");
  SnippetService service(&ctx.db);
  SnippetOptions options;
  options.size_bound = 0;
  auto snippet = service.Generate(ctx.query, ctx.results[0], options);
  ASSERT_TRUE(snippet.ok());
  EXPECT_EQ(snippet->edges(), 0u);
  EXPECT_EQ(WriteXml(*snippet->tree), "<store/>");
  // The keyword "store" (tag of the root) is still covered at zero cost.
  ASSERT_FALSE(snippet->covered.empty());
  EXPECT_TRUE(snippet->covered[0]);
}

}  // namespace
}  // namespace extract

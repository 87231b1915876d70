#include "snippet/instance_selector.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "common/random.h"
#include "search/search_engine.h"

namespace extract {
namespace {

struct Ctx {
  XmlDatabase db;
  NodeId root = kInvalidNode;
};

Ctx Load(std::string xml) {
  auto db = XmlDatabase::Load(std::move(xml));
  EXPECT_TRUE(db.ok()) << db.status();
  NodeId root = db->index().root();
  return Ctx{std::move(*db), root};
}

// Builds ad-hoc item instance lists from node ids.
std::vector<ItemInstances> Items(
    std::initializer_list<std::vector<NodeId>> lists) {
  std::vector<ItemInstances> out;
  for (const auto& l : lists) out.push_back(ItemInstances{l});
  return out;
}

// Checks selection structural invariants: connected (closed under parents
// within root), sorted, within budget.
void CheckSelection(const IndexedDocument& doc, NodeId root,
                    const Selection& s, size_t bound) {
  EXPECT_LE(s.edges(), bound);
  ASSERT_FALSE(s.nodes.empty());
  EXPECT_EQ(s.nodes.front(), root);
  std::set<NodeId> set(s.nodes.begin(), s.nodes.end());
  for (NodeId n : s.nodes) {
    if (n == root) continue;
    EXPECT_TRUE(set.count(doc.parent(n)) > 0)
        << "node " << n << " missing parent";
    EXPECT_TRUE(doc.IsAncestorOrSelf(root, n));
  }
}

//                      a(0)
//            b(1)              c(4)
//         t1(2)=x  d(3)     e(5)   f(7)
//                           t2(6)=x  t3(8)=y
constexpr std::string_view kSmallXml =
    "<a><b>x<d/></b><c><e>x</e><f>y</f></c></a>";

TEST(GreedySelectorTest, PicksCheapestInstance) {
  Ctx ctx = Load(std::string(kSmallXml));
  const auto& doc = ctx.db.index();
  // Item 0 can be covered by text "x" at node 2 (under b) or node 6 (under
  // c/e). Item 1 needs node 8 (under c/f). Processing item 1 first would
  // make 6 cheaper; in rank order item 0 first: both cost 2 -> document
  // order tie-break picks node 2.
  auto selection = SelectInstancesGreedy(doc, 0, Items({{2, 6}, {8}}),
                                         10);
  EXPECT_TRUE(selection.covered[0]);
  EXPECT_TRUE(selection.covered[1]);
  std::set<NodeId> set(selection.nodes.begin(), selection.nodes.end());
  EXPECT_TRUE(set.count(2) > 0);   // chose node 2 for item 0
  EXPECT_FALSE(set.count(6) > 0);
  CheckSelection(doc, 0, selection, 10);
}

TEST(GreedySelectorTest, ReusesSharedPath) {
  Ctx ctx = Load(std::string(kSmallXml));
  const auto& doc = ctx.db.index();
  // Cover y (node 8) first: c and f enter the tree. Now covering x via
  // node 6 costs 2 (e + t2), same as node 2 (b + t1)... with bound 4 both
  // fit only via the shared-c path: selecting {8} costs 3 edges (c,f,t3),
  // leaving 1 edge: x unaffordable either way.
  auto selection = SelectInstancesGreedy(doc, 0, Items({{8}, {2, 6}}),
                                         4);
  EXPECT_TRUE(selection.covered[0]);
  EXPECT_FALSE(selection.covered[1]);
  EXPECT_EQ(selection.edges(), 3u);
}

TEST(GreedySelectorTest, SkipsItemThatDoesNotFit) {
  Ctx ctx = Load(std::string(kSmallXml));
  const auto& doc = ctx.db.index();
  // Item 0 costs 3 (node 8: c,f,t3); bound 2 rejects it. Item 1 (node 1)
  // costs 1 and fits: the greedy skips item 0 and still covers item 1.
  auto cont = SelectInstancesGreedy(doc, 0, Items({{8}, {1}}), 2);
  EXPECT_FALSE(cont.covered[0]);
  EXPECT_TRUE(cont.covered[1]);
}

TEST(GreedySelectorTest, ZeroCostForAlreadySelectedNode) {
  Ctx ctx = Load(std::string(kSmallXml));
  const auto& doc = ctx.db.index();
  // Root itself as instance: zero cost even with bound 0.
  auto selection =
      SelectInstancesGreedy(doc, 0, Items({{0}}), 0);
  EXPECT_TRUE(selection.covered[0]);
  EXPECT_EQ(selection.edges(), 0u);
}

TEST(GreedySelectorTest, ItemWithNoInstancesStaysUncovered) {
  Ctx ctx = Load(std::string(kSmallXml));
  auto selection = SelectInstancesGreedy(ctx.db.index(), 0, Items({{}}),
                                         10);
  EXPECT_FALSE(selection.covered[0]);
  EXPECT_EQ(selection.edges(), 0u);
}

TEST(GreedySelectorTest, SharedInstanceCoversBothItemsFree) {
  Ctx ctx = Load(std::string(kSmallXml));
  auto selection = SelectInstancesGreedy(ctx.db.index(), 0,
                                         Items({{2}, {2}}),
                                         2);
  EXPECT_TRUE(selection.covered[0]);
  EXPECT_TRUE(selection.covered[1]);  // second item costs 0
  EXPECT_EQ(selection.edges(), 2u);
}

TEST(ExactSelectorTest, BeatsGreedyOnAdversarialInstance) {
  // Two equal-cost instances for item 0, but only one of them shares a path
  // with item 1. Greedy's document-order tie-break picks the wrong branch
  // and runs out of budget; branch-and-bound covers both items.
  //
  //        r(0)
  //    w(1)        q(4)
  //    p(2)     s(5)    u(7)
  //   "A"(3)   "A"(6)  "B"(8)
  Ctx ctx = Load("<r><w><p>A</p></w><q><s>A</s><u>B</u></q></r>");
  const auto& doc = ctx.db.index();
  ASSERT_TRUE(doc.is_text(3));
  ASSERT_TRUE(doc.is_text(6));
  // Item 0 ("A" text): node 3 (cost 3: w,p,text) or node 6 (cost 3: q,s,
  // text). Item 1 (element u): cost 2 standalone, 1 once q is selected.
  // Bound 4: greedy picks node 3 (tie -> document order), then cannot
  // afford item 1; exact picks node 6 and covers both in exactly 4 edges.
  auto greedy = SelectInstancesGreedy(doc, 0, Items({{3, 6}, {7}}),
                                      4);
  EXPECT_EQ(greedy.covered_count(), 1u);
  auto exact = SelectInstancesExact(doc, 0, Items({{3, 6}, {7}}),
                                    4);
  EXPECT_EQ(exact.covered_count(), 2u);
  EXPECT_EQ(exact.edges(), 4u);
  CheckSelection(doc, 0, exact, 4);
}

TEST(ExactSelectorTest, PrefersFewerEdgesOnEqualCoverage) {
  Ctx ctx = Load(std::string(kSmallXml));
  const auto& doc = ctx.db.index();
  // One item, two instances: node 1 (cost 1) or node 8 (cost 3).
  auto exact = SelectInstancesExact(doc, 0, Items({{1, 8}}),
                                    10);
  EXPECT_EQ(exact.covered_count(), 1u);
  EXPECT_EQ(exact.edges(), 1u);
}

TEST(ExactSelectorTest, EmptyItemsYieldRootOnly) {
  Ctx ctx = Load(std::string(kSmallXml));
  auto exact = SelectInstancesExact(ctx.db.index(), 0, {},
                                    5);
  EXPECT_EQ(exact.covered_count(), 0u);
  EXPECT_EQ(exact.edges(), 0u);
  EXPECT_EQ(exact.nodes, (std::vector<NodeId>{0}));
}

// --------- properties on random inputs: greedy vs exact, invariants -------

struct SelectorCase {
  uint64_t seed;
  size_t bound;
};

class SelectorProperty : public ::testing::TestWithParam<SelectorCase> {};

TEST_P(SelectorProperty, GreedyRespectsInvariantsAndExactDominates) {
  Rng rng(GetParam().seed);
  // Random tree.
  std::string xml;
  std::function<void(int)> gen = [&](int depth) {
    std::string tag = "t" + std::to_string(rng.Uniform(4));
    xml += "<" + tag + ">";
    size_t kids = depth > 0 ? rng.Uniform(3) + (depth > 2 ? 1 : 0) : 0;
    for (size_t i = 0; i < kids; ++i) gen(depth - 1);
    if (kids == 0) xml += "v" + std::to_string(rng.Uniform(6));
    xml += "</" + tag + ">";
  };
  gen(4);
  Ctx ctx = Load(xml);
  const auto& doc = ctx.db.index();

  // Random items: up to 6 items with up to 3 instances each.
  size_t num_items = 2 + rng.Uniform(5);
  std::vector<ItemInstances> items(num_items);
  for (auto& item : items) {
    size_t count = 1 + rng.Uniform(3);
    std::set<NodeId> chosen;
    for (size_t i = 0; i < count; ++i) {
      chosen.insert(static_cast<NodeId>(rng.Uniform(doc.num_nodes())));
    }
    item.nodes.assign(chosen.begin(), chosen.end());
  }

  const size_t bound = GetParam().bound;
  Selection greedy = SelectInstancesGreedy(doc, 0, items, bound);
  Selection exact = SelectInstancesExact(doc, 0, items, bound);

  CheckSelection(doc, 0, greedy, bound);
  CheckSelection(doc, 0, exact, bound);
  // The exact solver never covers fewer items than greedy.
  EXPECT_GE(exact.covered_count(), greedy.covered_count());
  // Coverage flags are consistent with the selected node sets.
  std::set<NodeId> greedy_set(greedy.nodes.begin(), greedy.nodes.end());
  for (size_t i = 0; i < items.size(); ++i) {
    bool reachable = false;
    for (NodeId inst : items[i].nodes) {
      if (greedy_set.count(inst) > 0) reachable = true;
    }
    EXPECT_EQ(greedy.covered[i], reachable);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, SelectorProperty,
    ::testing::Values(SelectorCase{1, 0}, SelectorCase{2, 1},
                      SelectorCase{3, 2}, SelectorCase{4, 3},
                      SelectorCase{5, 4}, SelectorCase{6, 5},
                      SelectorCase{7, 6}, SelectorCase{8, 8},
                      SelectorCase{9, 10}, SelectorCase{10, 12},
                      SelectorCase{11, 3}, SelectorCase{12, 5},
                      SelectorCase{13, 7}, SelectorCase{14, 2},
                      SelectorCase{15, 9}, SelectorCase{16, 4}));

}  // namespace
}  // namespace extract

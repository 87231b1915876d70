#include "index/indexed_document.h"

#include <gtest/gtest.h>

#include <functional>

#include "common/random.h"
#include "xml/parser.h"

namespace extract {
namespace {

IndexedDocument MustBuild(std::string_view xml) {
  auto doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  auto idx = IndexedDocument::Build(**doc);
  EXPECT_TRUE(idx.ok()) << idx.status();
  return std::move(*idx);
}

TEST(IndexedDocumentTest, PreOrderNumbering) {
  // <a><b>t</b><c/></a> -> 0:a 1:b 2:text 3:c
  IndexedDocument doc = MustBuild("<a><b>t</b><c/></a>");
  ASSERT_EQ(doc.num_nodes(), 4u);
  EXPECT_EQ(doc.root(), 0);
  EXPECT_EQ(doc.label_name(0), "a");
  EXPECT_EQ(doc.label_name(1), "b");
  EXPECT_TRUE(doc.is_text(2));
  EXPECT_EQ(doc.text(2), "t");
  EXPECT_EQ(doc.label_name(3), "c");
  EXPECT_EQ(doc.num_elements(), 3u);
}

TEST(IndexedDocumentTest, ParentsAndDepths) {
  IndexedDocument doc = MustBuild("<a><b>t</b><c/></a>");
  EXPECT_EQ(doc.parent(0), kInvalidNode);
  EXPECT_EQ(doc.parent(1), 0);
  EXPECT_EQ(doc.parent(2), 1);
  EXPECT_EQ(doc.parent(3), 0);
  EXPECT_EQ(doc.depth(0), 0u);
  EXPECT_EQ(doc.depth(2), 2u);
}

TEST(IndexedDocumentTest, SubtreeIntervals) {
  IndexedDocument doc = MustBuild("<a><b>t</b><c/></a>");
  EXPECT_EQ(doc.subtree_end(0), 4);
  EXPECT_EQ(doc.subtree_end(1), 3);
  EXPECT_EQ(doc.subtree_end(2), 3);
  EXPECT_EQ(doc.subtree_end(3), 4);
  EXPECT_EQ(doc.subtree_edges(0), 3u);
  EXPECT_EQ(doc.subtree_edges(1), 1u);
}

TEST(IndexedDocumentTest, AncestorChecks) {
  IndexedDocument doc = MustBuild("<a><b>t</b><c/></a>");
  EXPECT_TRUE(doc.IsAncestor(0, 1));
  EXPECT_TRUE(doc.IsAncestor(0, 2));
  EXPECT_TRUE(doc.IsAncestor(1, 2));
  EXPECT_FALSE(doc.IsAncestor(1, 3));
  EXPECT_FALSE(doc.IsAncestor(1, 1));
  EXPECT_TRUE(doc.IsAncestorOrSelf(1, 1));
}

TEST(IndexedDocumentTest, ChildrenSpans) {
  IndexedDocument doc = MustBuild("<a><b>t</b><c/></a>");
  auto kids = doc.children(0);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 1);
  EXPECT_EQ(kids[1], 3);
  EXPECT_EQ(doc.child_elements(0).size(), 2u);
  EXPECT_EQ(doc.children(2).size(), 0u);
}

TEST(IndexedDocumentTest, SoleTextChild) {
  IndexedDocument doc = MustBuild("<a><b>t</b><c/><d><e/>x</d></a>");
  EXPECT_NE(doc.sole_text_child(1), kInvalidNode);    // <b>t</b>
  NodeId c = 3;
  EXPECT_EQ(doc.sole_text_child(c), kInvalidNode);    // empty <c/>
  NodeId d = 4;
  EXPECT_EQ(doc.label_name(d), "d");
  EXPECT_EQ(doc.sole_text_child(d), kInvalidNode);    // two children
}

TEST(IndexedDocumentTest, LowestCommonAncestor) {
  IndexedDocument doc = MustBuild("<a><b><x>1</x><y>2</y></b><c>3</c></a>");
  NodeId x_text = 3, y_text = 5, c_text = 7;
  EXPECT_EQ(doc.text(x_text), "1");
  EXPECT_EQ(doc.text(y_text), "2");
  EXPECT_EQ(doc.text(c_text), "3");
  EXPECT_EQ(doc.LowestCommonAncestor(x_text, y_text), 1);  // <b>
  EXPECT_EQ(doc.LowestCommonAncestor(x_text, c_text), 0);  // <a>
  EXPECT_EQ(doc.LowestCommonAncestor(x_text, x_text), x_text);
  EXPECT_EQ(doc.LowestCommonAncestor(1, x_text), 1);  // ancestor-or-self
}

TEST(IndexedDocumentTest, AttributesExpandToChildren) {
  IndexedDocument doc = MustBuild(R"(<store name="Levis"><city>H</city></store>)");
  // 0:store 1:name 2:"Levis" 3:city 4:"H"
  ASSERT_EQ(doc.num_nodes(), 5u);
  EXPECT_EQ(doc.label_name(1), "name");
  EXPECT_EQ(doc.text(2), "Levis");
  EXPECT_EQ(doc.parent(1), 0);
  EXPECT_EQ(doc.subtree_end(1), 3);
}

TEST(IndexedDocumentTest, RejectsEmptyDocument) {
  XmlDocument empty;
  EXPECT_FALSE(IndexedDocument::Build(empty).ok());
}

// Property: pre-order invariants hold on random documents.
class IndexedDocumentProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexedDocumentProperty, StructuralInvariants) {
  Rng rng(GetParam());
  // Random nested xml string.
  std::string xml;
  std::function<void(int)> gen = [&](int depth) {
    std::string tag = "t" + std::to_string(rng.Uniform(4));
    xml += "<" + tag + ">";
    size_t kids = depth > 0 ? rng.Uniform(4) : 0;
    for (size_t i = 0; i < kids; ++i) gen(depth - 1);
    if (kids == 0) xml += "v" + std::to_string(rng.Uniform(10));
    xml += "</" + tag + ">";
  };
  gen(5);
  IndexedDocument doc = MustBuild(xml);

  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    // Parent precedes child; depth increments; subtree nesting.
    if (n != doc.root()) {
      NodeId p = doc.parent(n);
      EXPECT_LT(p, n);
      EXPECT_EQ(doc.depth(n), doc.depth(p) + 1);
      EXPECT_TRUE(doc.IsAncestor(p, n));
      EXPECT_LE(doc.subtree_end(n), doc.subtree_end(p));
    }
    // Children are exactly the nodes whose parent is n.
    for (NodeId c : doc.children(n)) EXPECT_EQ(doc.parent(c), n);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDocs, IndexedDocumentProperty,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace extract

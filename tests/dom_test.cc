#include "xml/dom.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace extract {
namespace {

TEST(DomTest, FactoriesSetKinds) {
  EXPECT_EQ(XmlNode::MakeElement("a")->kind(), XmlNodeKind::kElement);
  EXPECT_EQ(XmlNode::MakeText("t")->kind(), XmlNodeKind::kText);
  EXPECT_EQ(XmlNode::MakeCData("c")->kind(), XmlNodeKind::kCData);
  EXPECT_EQ(XmlNode::MakeDocument()->kind(), XmlNodeKind::kDocument);
}

TEST(DomTest, AppendChildSetsParent) {
  auto root = XmlNode::MakeElement("a");
  XmlNode* child = root->AppendChild(XmlNode::MakeElement("b"));
  EXPECT_EQ(child->parent(), root.get());
  EXPECT_EQ(root->children().size(), 1u);
}

TEST(DomTest, FindChildElement) {
  auto root = XmlNode::MakeElement("a");
  root->AppendChild(XmlNode::MakeText("skip"));
  root->AppendChild(XmlNode::MakeElement("b"));
  root->AppendChild(XmlNode::MakeElement("c"));
  EXPECT_NE(root->FindChildElement("b"), nullptr);
  EXPECT_NE(root->FindChildElement("c"), nullptr);
  EXPECT_EQ(root->FindChildElement("d"), nullptr);
  EXPECT_EQ(root->ChildElements().size(), 2u);
}

TEST(DomTest, InnerTextConcatenatesSubtree) {
  auto doc = ParseXml("<a>x<b>y<c>z</c></b>w</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root()->InnerText(), "xyzw");
}

TEST(DomTest, CountNodesAndEdges) {
  auto doc = ParseXml("<a><b>t</b><c/></a>");
  ASSERT_TRUE(doc.ok());
  // a, b, text, c
  EXPECT_EQ((*doc)->root()->CountNodes(), 4u);
  EXPECT_EQ((*doc)->root()->CountEdges(), 3u);
}

TEST(DomTest, CloneIsDeepAndDetached) {
  auto doc = ParseXml(R"(<a x="1"><b>t</b></a>)");
  ASSERT_TRUE(doc.ok());
  auto clone = (*doc)->root()->Clone();
  EXPECT_EQ(clone->parent(), nullptr);
  EXPECT_TRUE(clone->StructurallyEquals(*(*doc)->root()));
  // Mutating the clone does not affect the original.
  clone->AppendChild(XmlNode::MakeElement("new"));
  EXPECT_FALSE(clone->StructurallyEquals(*(*doc)->root()));
}

TEST(DomTest, StructuralEqualityDistinguishes) {
  auto a1 = ParseXml("<a><b>x</b></a>");
  auto a2 = ParseXml("<a><b>x</b></a>");
  auto b = ParseXml("<a><b>y</b></a>");
  auto c = ParseXml("<a><c>x</c></a>");
  ASSERT_TRUE(a1.ok() && a2.ok() && b.ok() && c.ok());
  EXPECT_TRUE((*a1)->root()->StructurallyEquals(*(*a2)->root()));
  EXPECT_FALSE((*a1)->root()->StructurallyEquals(*(*b)->root()));
  EXPECT_FALSE((*a1)->root()->StructurallyEquals(*(*c)->root()));
}

TEST(DomTest, AttributeEqualityMatters) {
  auto a = ParseXml(R"(<a x="1"/>)");
  auto b = ParseXml(R"(<a x="2"/>)");
  auto c = ParseXml(R"(<a/>)");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_FALSE((*a)->root()->StructurallyEquals(*(*b)->root()));
  EXPECT_FALSE((*a)->root()->StructurallyEquals(*(*c)->root()));
}

}  // namespace
}  // namespace extract

#include "xml/parser.h"

#include <gtest/gtest.h>

namespace extract {
namespace {

TEST(ParserTest, MinimalDocument) {
  auto doc = ParseXml("<a/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_NE((*doc)->root(), nullptr);
  EXPECT_EQ((*doc)->root()->name(), "a");
  EXPECT_TRUE((*doc)->root()->children().empty());
}

TEST(ParserTest, NestedElementsAndText) {
  auto doc = ParseXml("<store><name>Levis</name><city>Houston</city></store>");
  ASSERT_TRUE(doc.ok());
  XmlNode* root = (*doc)->root();
  ASSERT_EQ(root->children().size(), 2u);
  EXPECT_EQ(root->children()[0]->name(), "name");
  EXPECT_EQ(root->children()[0]->InnerText(), "Levis");
  EXPECT_EQ(root->children()[1]->InnerText(), "Houston");
}

TEST(ParserTest, WhitespaceTextDroppedByDefault) {
  auto doc = ParseXml("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root()->children().size(), 1u);
}

TEST(ParserTest, CommentsAndProcessingInstructionsDropped) {
  auto doc = ParseXml("<?pi data?><a><!--c--><?pi d?><b/></a><!--end-->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->document()->children().size(), 1u);
  ASSERT_EQ((*doc)->root()->children().size(), 1u);
  EXPECT_EQ((*doc)->root()->children()[0]->name(), "b");
}

TEST(ParserTest, AdjacentTextMergesAroundElidedComment) {
  auto doc = ParseXml("<a>one<!--c-->two</a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ((*doc)->root()->children().size(), 1u);
  EXPECT_EQ((*doc)->root()->InnerText(), "onetwo");
}

TEST(ParserTest, AttributesPreserved) {
  auto doc = ParseXml(R"(<a x="1" y="two"/>)");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ((*doc)->root()->attributes().size(), 2u);
  EXPECT_EQ(*(*doc)->root()->FindAttribute("x"), "1");
  EXPECT_EQ(*(*doc)->root()->FindAttribute("y"), "two");
  EXPECT_EQ((*doc)->root()->FindAttribute("z"), nullptr);
}

TEST(ParserTest, CDataBecomesNode) {
  auto doc = ParseXml("<a><![CDATA[<not-xml>]]></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ((*doc)->root()->children().size(), 1u);
  EXPECT_EQ((*doc)->root()->children()[0]->kind(), XmlNodeKind::kCData);
  EXPECT_EQ((*doc)->root()->InnerText(), "<not-xml>");
}

TEST(ParserTest, XmlDeclarationAccepted) {
  auto doc = ParseXml("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root()->name(), "a");
}

TEST(ParserTest, DoctypeParsedIntoDtd) {
  auto doc = ParseXml("<!DOCTYPE db [<!ELEMENT db (item*)>]><db/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE((*doc)->has_dtd());
  EXPECT_EQ((*doc)->dtd().root_name(), "db");
  EXPECT_NE((*doc)->dtd().FindElement("db"), nullptr);
}

TEST(ParserTest, DeeplyNested) {
  std::string xml;
  const int depth = 200;
  for (int i = 0; i < depth; ++i) xml += "<n>";
  xml += "x";
  for (int i = 0; i < depth; ++i) xml += "</n>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->root()->CountNodes(), static_cast<size_t>(depth + 1));
}

// ------------------------------------------------------------- error paths

TEST(ParserErrorTest, EmptyInput) {
  EXPECT_EQ(ParseXml("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseXml("   ").status().code(), StatusCode::kParseError);
}

TEST(ParserErrorTest, UnclosedRoot) {
  EXPECT_EQ(ParseXml("<a><b></b>").status().code(), StatusCode::kParseError);
}

TEST(ParserErrorTest, MismatchedTags) {
  EXPECT_EQ(ParseXml("<a><b></a></b>").status().code(),
            StatusCode::kParseError);
}

TEST(ParserErrorTest, StrayClosingTag) {
  EXPECT_EQ(ParseXml("</a>").status().code(), StatusCode::kParseError);
}

TEST(ParserErrorTest, MultipleRoots) {
  EXPECT_EQ(ParseXml("<a/><b/>").status().code(), StatusCode::kParseError);
}

TEST(ParserErrorTest, TextOutsideRoot) {
  EXPECT_EQ(ParseXml("hello<a/>").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseXml("<a/>world").status().code(), StatusCode::kParseError);
}

TEST(ParserErrorTest, DoctypeAfterRoot) {
  EXPECT_EQ(ParseXml("<a/><!DOCTYPE a>").status().code(),
            StatusCode::kParseError);
}

TEST(ParserErrorTest, TwoDoctypes) {
  EXPECT_EQ(ParseXml("<!DOCTYPE a><!DOCTYPE a><a/>").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace extract

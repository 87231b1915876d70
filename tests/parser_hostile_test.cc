// Hostile-input hardening of the XML front door (ISSUE: failure domain A).
//
// Every attack here must come back as a precise Status — kResourceExhausted
// for resource bombs, kParseError/kInvalidArgument for malformed bytes —
// never a crash, a hang, or memory proportional to the attack instead of
// the configured limit. The memory claims are enforced structurally (the
// tokenizer checks caps before copying; see CheckTokenBytes) and probed
// here by running far-over-cap inputs under the default limits.

#include <string>

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/tokenizer.h"

namespace extract {
namespace {

std::string NestingBomb(size_t depth) {
  std::string xml;
  xml.reserve(depth * 8);
  for (size_t i = 0; i < depth; ++i) xml += "<n>";
  for (size_t i = 0; i < depth; ++i) xml += "</n>";
  return xml;
}

TEST(ParserHostileTest, DeepNestingBombIsRejected) {
  auto parsed = ParseXml(NestingBomb(100000));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(parsed.status().message().find("max_depth"), std::string::npos)
      << parsed.status();
}

TEST(ParserHostileTest, DepthExactlyAtLimitParses) {
  ParseLimits limits;
  limits.max_depth = 64;
  EXPECT_TRUE(ParseXml(NestingBomb(64), limits).ok());
  auto over = ParseXml(NestingBomb(65), limits);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserHostileTest, MegabyteAttributeIsRejected) {
  ParseLimits limits;
  limits.max_token_bytes = 1 << 20;
  // 4 MiB attribute value against a 1 MiB token cap. The tokenizer must
  // reject after scanning, BEFORE copying the value out.
  std::string xml = "<a v=\"" + std::string(4u << 20, 'x') + "\"/>";
  auto parsed = ParseXml(xml, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(parsed.status().message().find("max_token_bytes"),
            std::string::npos)
      << parsed.status();
}

TEST(ParserHostileTest, MegabyteTextIsRejected) {
  ParseLimits limits;
  limits.max_token_bytes = 1 << 16;
  std::string xml = "<a>" + std::string(1u << 20, 'y') + "</a>";
  auto parsed = ParseXml(xml, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserHostileTest, MegabyteCommentAndCDataAreRejected) {
  ParseLimits limits;
  limits.max_token_bytes = 1 << 12;
  std::string comment =
      "<a><!--" + std::string(1u << 16, 'c') + "--></a>";
  auto parsed = ParseXml(comment, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);

  std::string cdata =
      "<a><![CDATA[" + std::string(1u << 16, 'd') + "]]></a>";
  parsed = ParseXml(cdata, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserHostileTest, EntityFloodIsRejected) {
  ParseLimits limits;
  limits.max_entity_expansions = 1000;
  std::string xml = "<a>";
  for (int i = 0; i < 2000; ++i) xml += "&amp;";
  xml += "</a>";
  auto parsed = ParseXml(xml, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(parsed.status().message().find("entity expansion cap"),
            std::string::npos)
      << parsed.status();
}

TEST(ParserHostileTest, EntityFloodAcrossAttributesIsRejected) {
  ParseLimits limits;
  limits.max_entity_expansions = 100;
  std::string xml = "<a";
  for (int i = 0; i < 64; ++i) {
    xml += " k" + std::to_string(i) + "=\"&lt;&gt;&amp;\"";
  }
  xml += "/>";
  auto parsed = ParseXml(xml, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserHostileTest, NodeCountBombIsRejected) {
  ParseLimits limits;
  limits.max_total_nodes = 1000;
  std::string xml = "<a>";
  for (int i = 0; i < 2000; ++i) xml += "<b/>";
  xml += "</a>";
  auto parsed = ParseXml(xml, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(parsed.status().message().find("max_total_nodes"),
            std::string::npos)
      << parsed.status();
}

TEST(ParserHostileTest, NodeCountExactlyAtLimitParses) {
  ParseLimits limits;
  limits.max_total_nodes = 101;  // root + 100 children
  std::string xml = "<a>";
  for (int i = 0; i < 100; ++i) xml += "<b/>";
  xml += "</a>";
  EXPECT_TRUE(ParseXml(xml, limits).ok());
}

TEST(ParserHostileTest, UnknownEntityIsStillParseError) {
  // Entity *counting* must not reclassify the existing malformed-entity
  // error: an undefined entity is a parse error, not resource exhaustion.
  auto parsed = ParseXml("<a>&bogus;</a>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(ParserHostileTest, ZeroDisablesEveryCap) {
  ParseLimits limits;
  limits.max_depth = 0;
  limits.max_token_bytes = 0;
  limits.max_total_nodes = 0;
  limits.max_entity_expansions = 0;
  std::string xml = NestingBomb(2000);
  EXPECT_TRUE(ParseXml(xml, limits).ok());
}

TEST(ParserHostileTest, DoctypeInternalSubsetBombIsRejected) {
  ParseLimits limits;
  limits.max_token_bytes = 1 << 12;
  std::string xml = "<!DOCTYPE a [" + std::string(1u << 16, ' ') + "]><a/>";
  auto parsed = ParseXml(xml, limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserHostileTest, ErrorsCarryLineInformation) {
  ParseLimits limits;
  limits.max_depth = 4;
  auto parsed = ParseXml("<a>\n<b>\n<c>\n<d>\n<e/>\n</d></c></b></a>", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line"), std::string::npos)
      << parsed.status();
}

}  // namespace
}  // namespace extract

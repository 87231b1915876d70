// Robustness ("fuzz-lite") tests: the parser must never crash, hang or
// return an undiagnosed tree on mutated input — every outcome is either a
// well-formed document or a ParseError.

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/stores_dataset.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace extract {
namespace {

// A pool of valid seed documents to mutate.
std::vector<std::string> SeedDocuments() {
  return {
      "<a><b>text</b><c x=\"1\"/></a>",
      "<?xml version=\"1.0\"?><r><x>1 &amp; 2</x><![CDATA[raw]]></r>",
      "<!DOCTYPE db [<!ELEMENT db (e*)><!ELEMENT e (#PCDATA)>]>"
      "<db><e>one</e><e>two</e></db>",
      "<deep><deep><deep><deep>v</deep></deep></deep></deep>",
      GenerateStoresXml().substr(0, 1200),
  };
}

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, MutatedInputNeverCrashes) {
  Rng rng(GetParam());
  std::vector<std::string> seeds = SeedDocuments();
  for (int trial = 0; trial < 200; ++trial) {
    std::string doc = seeds[rng.Uniform(seeds.size())];
    // Apply 1-4 random mutations: byte flips, deletions, duplications,
    // truncations, and injections of XML metacharacters.
    size_t mutations = 1 + rng.Uniform(4);
    for (size_t m = 0; m < mutations && !doc.empty(); ++m) {
      size_t pos = rng.Uniform(doc.size());
      switch (rng.Uniform(5)) {
        case 0:
          doc[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          doc.erase(pos, 1 + rng.Uniform(4));
          break;
        case 2:
          doc.insert(pos, doc.substr(pos, 1 + rng.Uniform(8)));
          break;
        case 3:
          doc.resize(pos);
          break;
        case 4: {
          const char* bits[] = {"<", ">", "&", "]]>", "<!--", "<?", "\"", "<!"};
          doc.insert(pos, bits[rng.Uniform(8)]);
          break;
        }
      }
    }
    auto parsed = ParseXml(doc);  // must not crash/hang
    if (parsed.ok()) {
      // Whatever parsed must survive a serialize -> reparse round trip.
      std::string again = WriteXml(*(*parsed)->root());
      auto reparsed = ParseXml(again);
      ASSERT_TRUE(reparsed.ok())
          << "roundtrip failed: " << reparsed.status() << "\n"
          << again;
      EXPECT_TRUE((*reparsed)->root()->StructurallyEquals(*(*parsed)->root()));
    } else {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<uint64_t>(0, 10));

TEST(ParserFuzzTest, PathologicalInputs) {
  // Inputs crafted to hit specific edge paths.
  for (const char* input : {
           "<", "<>", "< a/>", "<a", "<a /", "<a b", "<a b=", "<a b=\"",
           "<a/><", "<a>&", "<a>&#;</a>", "<a>&#xZZ;</a>", "<!", "<!-",
           "<!--", "<![", "<![CDATA", "<!D", "<!DOCTYPE", "<!DOCTYPE [",
           "<?", "<?x", "</>", "</a>", "<a></b></a>", "<a><a><a></a></a>",
           "\xFF\xFE<a/>", "<a>\x01\x02</a>", "<a b=\"&\"/>",
       }) {
    auto parsed = ParseXml(input);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << input;
    }
  }
}

TEST(ParserFuzzTest, VeryDeepNestingDoesNotOverflow) {
  // 20k levels exercise recursion depth; the parser's tree build is
  // iterative (explicit stack), so this must succeed. (Destruction of the
  // DOM recurses once per level, which bounds how deep this test can go.)
  std::string xml;
  const int depth = 20000;
  xml.reserve(static_cast<size_t>(depth) * 8);
  for (int i = 0; i < depth; ++i) xml += "<n>";
  for (int i = 0; i < depth; ++i) xml += "</n>";
  // The default ParseLimits reject this long before 20k levels (see
  // parser_hostile_test); lift the cap to exercise the raw build loop.
  ParseLimits limits;
  limits.max_depth = 0;
  auto parsed = ParseXml(xml, limits);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // Note: CountNodes()/serialization on such trees is recursive; only the
  // parse path is exercised here by design.
}

TEST(ParserFuzzTest, HugeTokenDoesNotChoke) {
  std::string xml = "<a>" + std::string(1 << 20, 'x') + "</a>";
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->root()->InnerText().size(), size_t{1} << 20);
}

}  // namespace
}  // namespace extract

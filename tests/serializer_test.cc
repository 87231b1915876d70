#include "xml/serializer.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "xml/parser.h"

namespace extract {
namespace {

TEST(SerializerTest, CompactRoundTripSimple) {
  const std::string xml = "<a x=\"1\"><b>t</b><c/></a>";
  auto doc = ParseXml(xml);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(WriteXml(*(*doc)->root()), xml);
}

TEST(SerializerTest, EscapesTextAndAttributes) {
  auto root = XmlNode::MakeElement("a");
  root->AddAttribute("q", "a \"b\" <c>");
  root->AppendChild(XmlNode::MakeText("1 < 2 & 3"));
  EXPECT_EQ(WriteXml(*root),
            "<a q=\"a &quot;b&quot; &lt;c&gt;\">1 &lt; 2 &amp; 3</a>");
}

TEST(SerializerTest, EmptyElementSelfCloses) {
  EXPECT_EQ(WriteXml(*XmlNode::MakeElement("br")), "<br/>");
}

TEST(SerializerTest, CDataPreserved) {
  auto doc = ParseXml("<a><![CDATA[<x>&]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(WriteXml(*(*doc)->root()), "<a><![CDATA[<x>&]]></a>");
}

TEST(RenderXmlTreeTest, InlinesSoleTextChild) {
  auto doc = ParseXml("<store><name>Levis</name><m><c/></m></store>");
  ASSERT_TRUE(doc.ok());
  std::string out = RenderXmlTree(*(*doc)->root());
  EXPECT_EQ(out,
            "store\n"
            "├── name \"Levis\"\n"
            "└── m\n"
            "    └── c\n");
}

// ------------------------- property: parse(serialize(t)) == t (TEST_P) ----

// Generates a random DOM tree with text, attributes and nesting.
std::unique_ptr<XmlNode> RandomTree(Rng* rng, int depth) {
  auto node = XmlNode::MakeElement("n" + std::to_string(rng->Uniform(5)));
  size_t num_attrs = rng->Uniform(3);
  for (size_t i = 0; i < num_attrs; ++i) {
    node->AddAttribute("a" + std::to_string(i),
                       "v<&\"" + std::to_string(rng->Uniform(100)));
  }
  size_t num_children = depth > 0 ? rng->Uniform(4) : 0;
  bool last_was_text = false;
  for (size_t i = 0; i < num_children; ++i) {
    if (rng->Bernoulli(0.3) && !last_was_text) {
      // Adjacent text nodes would merge on reparse; emit only isolated ones.
      node->AppendChild(
          XmlNode::MakeText("text & <stuff> " + std::to_string(i)));
      last_was_text = true;
    } else {
      node->AppendChild(RandomTree(rng, depth - 1));
      last_was_text = false;
    }
  }
  if (num_children == 0 && rng->Bernoulli(0.5)) {
    node->AppendChild(XmlNode::MakeText("leaf " + std::to_string(rng->Uniform(9))));
  }
  return node;
}

class SerializerRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializerRoundTrip, ParseSerializeParseIsIdentity) {
  Rng rng(GetParam());
  auto tree = RandomTree(&rng, 4);
  std::string xml = WriteXml(*tree);
  auto reparsed = ParseXml(xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << xml;
  EXPECT_TRUE((*reparsed)->root()->StructurallyEquals(*tree)) << xml;
  // Serialization is a fixpoint after one round trip.
  EXPECT_EQ(WriteXml(*(*reparsed)->root()), xml);
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, SerializerRoundTrip,
                         ::testing::Range<uint64_t>(0, 25));

}  // namespace
}  // namespace extract

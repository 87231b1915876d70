#include "schema/node_classifier.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace extract {
namespace {

struct Loaded {
  std::unique_ptr<XmlDocument> dom;
  IndexedDocument doc;
  NodeClassification classification;
};

Loaded Load(std::string_view xml) {
  auto parsed = ParseXml(xml);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto idx = IndexedDocument::Build(**parsed);
  EXPECT_TRUE(idx.ok()) << idx.status();
  Loaded out{std::move(*parsed), std::move(*idx), {}};
  out.classification = NodeClassification::Classify(
      out.doc, out.dom->has_dtd() ? &out.dom->dtd() : nullptr);
  return out;
}

// Finds the first element with the given tag.
NodeId FindElement(const IndexedDocument& doc, std::string_view tag) {
  for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
    if (doc.is_element(n) && doc.label_name(n) == tag) return n;
  }
  return kInvalidNode;
}

constexpr std::string_view kRetailerXml = R"(<!DOCTYPE retailers [
  <!ELEMENT retailers (retailer*)>
  <!ELEMENT retailer (name, product, store*)>
  <!ELEMENT store (name, state, city, merchandises)>
  <!ELEMENT merchandises (clothes*)>
  <!ELEMENT clothes (fitting, category)>
  <!ELEMENT name (#PCDATA)> <!ELEMENT product (#PCDATA)>
  <!ELEMENT state (#PCDATA)> <!ELEMENT city (#PCDATA)>
  <!ELEMENT fitting (#PCDATA)> <!ELEMENT category (#PCDATA)>
]>
<retailers>
  <retailer>
    <name>Brook Brothers</name>
    <product>apparel</product>
    <store>
      <name>Galleria</name><state>Texas</state><city>Houston</city>
      <merchandises>
        <clothes><fitting>man</fitting><category>suit</category></clothes>
        <clothes><fitting>woman</fitting><category>skirt</category></clothes>
      </merchandises>
    </store>
  </retailer>
</retailers>)";

TEST(ClassifierDtdTest, PaperCategories) {
  Loaded db = Load(kRetailerXml);
  const auto& c = db.classification;
  const auto& doc = db.doc;
  // Entities: *-nodes in the DTD.
  EXPECT_TRUE(c.IsEntity(FindElement(doc, "retailer")));
  EXPECT_TRUE(c.IsEntity(FindElement(doc, "store")));
  EXPECT_TRUE(c.IsEntity(FindElement(doc, "clothes")));
  // Attributes: non-* with a single text child.
  EXPECT_TRUE(c.IsAttribute(FindElement(doc, "name")));
  EXPECT_TRUE(c.IsAttribute(FindElement(doc, "product")));
  EXPECT_TRUE(c.IsAttribute(FindElement(doc, "state")));
  EXPECT_TRUE(c.IsAttribute(FindElement(doc, "city")));
  EXPECT_TRUE(c.IsAttribute(FindElement(doc, "fitting")));
  // Connections: everything else.
  EXPECT_TRUE(c.IsConnection(FindElement(doc, "merchandises")));
  EXPECT_TRUE(c.IsConnection(FindElement(doc, "retailers")));
  // Text nodes are values.
  NodeId name = FindElement(doc, "name");
  EXPECT_EQ(c.category(doc.sole_text_child(name)), NodeCategory::kValue);
}

TEST(ClassifierDtdTest, EntityLabelsCollected) {
  Loaded db = Load(kRetailerXml);
  EXPECT_EQ(db.classification.entity_labels().size(), 3u);
  EXPECT_TRUE(db.classification.IsEntityLabel(db.doc.labels().Find("store")));
  EXPECT_FALSE(db.classification.IsEntityLabel(db.doc.labels().Find("city")));
}

TEST(ClassifierDtdTest, CategoryCounts) {
  Loaded db = Load(kRetailerXml);
  // Entities: 1 retailer + 1 store + 2 clothes = 4.
  EXPECT_EQ(db.classification.CountCategory(NodeCategory::kEntity), 4u);
  // Connections: retailers + merchandises = 2.
  EXPECT_EQ(db.classification.CountCategory(NodeCategory::kConnection), 2u);
}

TEST(ClassifierInferenceTest, StarInferredFromSiblingCounts) {
  // No DTD: clothes repeats under merchandises -> entity; store occurs once
  // under retailer in this document -> NOT inferred as entity (the known
  // limitation of data inference the DTD resolves).
  constexpr std::string_view xml = R"(<retailers>
    <retailer>
      <name>X</name>
      <store>
        <merchandises>
          <clothes><fitting>man</fitting></clothes>
          <clothes><fitting>woman</fitting></clothes>
        </merchandises>
      </store>
    </retailer>
  </retailers>)";
  Loaded db = Load(xml);
  const auto& doc = db.doc;
  EXPECT_TRUE(db.classification.IsEntity(FindElement(doc, "clothes")));
  EXPECT_FALSE(db.classification.IsEntity(FindElement(doc, "store")));
  EXPECT_TRUE(db.classification.IsAttribute(FindElement(doc, "name")));
  EXPECT_TRUE(db.classification.IsAttribute(FindElement(doc, "fitting")));
  EXPECT_TRUE(db.classification.IsConnection(FindElement(doc, "merchandises")));
}

TEST(ClassifierTest, EmptyElementIsAttributeShaped) {
  // <middle_name/> with no text: still attribute (empty value).
  Loaded db = Load("<people><p><middle/></p><p><middle>Q</middle></p></people>");
  EXPECT_TRUE(db.classification.IsAttribute(FindElement(db.doc, "middle")));
}

TEST(ClassifierTest, MultiTextChildrenNotAttribute) {
  // An element with element children mixed in is not an attribute.
  Loaded db = Load("<a><x><y>1</y>text</x><x><y>1</y>text</x></a>");
  EXPECT_FALSE(db.classification.IsAttribute(FindElement(db.doc, "x")));
}

TEST(ClassifierTest, PairGranularity) {
  // "name" under store vs under item can classify differently: under store
  // it is an attribute; under list it repeats -> entity.
  constexpr std::string_view xml = R"(<db>
    <store><name>A</name></store>
    <store><name>B</name></store>
    <list><name>x</name><name>y</name></list>
  </db>)";
  Loaded db = Load(xml);
  const auto& doc = db.doc;
  LabelId name = doc.labels().Find("name");
  LabelId store = doc.labels().Find("store");
  LabelId list = doc.labels().Find("list");
  EXPECT_EQ(db.classification.PairCategory(store, name),
            NodeCategory::kAttribute);
  EXPECT_EQ(db.classification.PairCategory(list, name), NodeCategory::kEntity);
}

TEST(ClassifierTest, UnseenPairDefaultsToConnection) {
  Loaded db = Load("<a><b>x</b></a>");
  EXPECT_EQ(db.classification.PairCategory(999, 998),
            NodeCategory::kConnection);
}

TEST(ClassifierTest, ExpandedAttributesClassifyAsAttributes) {
  Loaded db = Load(R"(<db><item name="a"/><item name="b"/></db>)");
  EXPECT_TRUE(db.classification.IsAttribute(FindElement(db.doc, "name")));
  EXPECT_TRUE(db.classification.IsEntity(FindElement(db.doc, "item")));
}

TEST(ClassifierTest, ValueIdsAscendWithTheirStrings) {
  Loaded db = Load(
      "<db><s><c>red</c><d/></s><s><c>blue</c><d>red</d></s>"
      "<s><c>Red</c><d>blue</d></s></db>");
  const NodeClassification& c = db.classification;
  // "Red" < "blue" < "red" in byte order.
  ASSERT_EQ(c.num_values(), 3u);
  EXPECT_EQ(db.doc.text(c.value_text(0)), "Red");
  EXPECT_EQ(db.doc.text(c.value_text(1)), "blue");
  EXPECT_EQ(db.doc.text(c.value_text(2)), "red");
  const NodeId end = static_cast<NodeId>(db.doc.num_nodes());
  for (const char* label : {"c", "d"}) {
    for (const AttributeEntry& entry :
         c.AttributesIn(db.doc.labels().Find(label), 0, end)) {
      if (entry.text == kInvalidNode) {
        EXPECT_EQ(entry.value, kNoValue);  // the empty <d/>
      } else {
        EXPECT_EQ(db.doc.text(c.value_text(entry.value)),
                  db.doc.text(entry.text));
      }
    }
  }
}

TEST(NodeCategoryTest, Names) {
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kEntity), "entity");
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kAttribute), "attribute");
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kConnection), "connection");
  EXPECT_EQ(NodeCategoryToString(NodeCategory::kValue), "value");
}

}  // namespace
}  // namespace extract

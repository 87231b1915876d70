// NodeClassification::Classify counts child labels in a label-indexed array
// and materializes each node's category from the (parent label, label) pair
// index it recorded in its first pass. This suite keeps the map-based
// classifier that design replaced as its reference — a std::map of child
// labels per element and a pair-map lookup per node — and requires both to
// agree on every node's category, on pair_categories() (which the snapshot
// encoder persists) and on entity_labels(): on seeded random shapes with and
// without a DTD, on the three demo data sets, on a document whose only
// entity evidence is its DTD, and on a document whose labels occur under
// many parent labels.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datagen/movies_dataset.h"
#include "datagen/random_xml.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "schema/node_classifier.h"
#include "xml/parser.h"

namespace extract {
namespace {

struct ReferenceClassification {
  std::map<std::pair<LabelId, LabelId>, NodeCategory> pair_category;
  std::vector<NodeCategory> per_node;
  std::vector<LabelId> entity_labels;
};

// The map-based classifier: the same rules over per-element child-label
// maps and a pair map.
ReferenceClassification ReferenceClassify(const IndexedDocument& doc,
                                          const Dtd* dtd) {
  ReferenceClassification out;
  const size_t n = doc.num_nodes();
  out.per_node.resize(n, NodeCategory::kConnection);
  const bool have_dtd = dtd != nullptr && !dtd->empty();

  struct PairStats {
    bool starred = false;
    bool attribute_shape = true;
  };
  std::map<std::pair<LabelId, LabelId>, PairStats> stats;
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (!doc.is_element(id)) continue;
    const LabelId parent_label = doc.parent(id) == kInvalidNode
                                     ? kInvalidLabel
                                     : doc.label(doc.parent(id));
    PairStats& my = stats[{parent_label, doc.label(id)}];
    auto kids = doc.children(id);
    const bool shape_ok =
        kids.empty() || (kids.size() == 1 && doc.is_text(kids[0]));
    my.attribute_shape = my.attribute_shape && shape_ok;
    std::map<LabelId, int> child_label_count;
    for (NodeId c : kids) {
      if (doc.is_element(c)) child_label_count[doc.label(c)]++;
    }
    for (const auto& [child_label, count] : child_label_count) {
      if (count >= 2) stats[{doc.label(id), child_label}].starred = true;
    }
  }
  for (const auto& [key, pair_stats] : stats) {
    const auto& [parent_label, label] = key;
    const bool starred =
        have_dtd && parent_label != kInvalidLabel
            ? dtd->IsStarChild(doc.labels().Name(parent_label),
                               doc.labels().Name(label))
            : pair_stats.starred;
    out.pair_category[key] = starred ? NodeCategory::kEntity
                             : pair_stats.attribute_shape
                                 ? NodeCategory::kAttribute
                                 : NodeCategory::kConnection;
  }
  std::set<LabelId> entity_labels;
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (doc.is_text(id)) {
      out.per_node[i] = NodeCategory::kValue;
      continue;
    }
    const LabelId parent_label = doc.parent(id) == kInvalidNode
                                     ? kInvalidLabel
                                     : doc.label(doc.parent(id));
    auto it = out.pair_category.find({parent_label, doc.label(id)});
    out.per_node[i] = it == out.pair_category.end() ? NodeCategory::kConnection
                                                    : it->second;
    if (out.per_node[i] == NodeCategory::kEntity) {
      entity_labels.insert(doc.label(id));
    }
  }
  out.entity_labels.assign(entity_labels.begin(), entity_labels.end());
  return out;
}

void ExpectClassifyMatchesReference(const std::string& name,
                                    std::string_view xml) {
  SCOPED_TRACE(name);
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto doc = IndexedDocument::Build(**parsed);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Dtd* dtd = (*parsed)->has_dtd() ? &(*parsed)->dtd() : nullptr;

  const NodeClassification got = NodeClassification::Classify(*doc, dtd);
  const ReferenceClassification want = ReferenceClassify(*doc, dtd);
  ASSERT_EQ(got.pair_categories(), want.pair_category);
  ASSERT_EQ(got.entity_labels(), want.entity_labels);
  for (NodeId id = 0; id < static_cast<NodeId>(doc->num_nodes()); ++id) {
    ASSERT_EQ(got.category(id), want.per_node[static_cast<size_t>(id)])
        << "node " << id;
  }
}

TEST(ClassifierDifferentialTest, RandomShapes) {
  for (size_t levels : {1u, 2u, 3u}) {
    for (size_t entities : {1u, 2u, 4u}) {
      for (bool dtd : {true, false}) {
        RandomXmlOptions options;
        options.levels = levels;
        options.entities_per_parent = entities;
        options.attributes_per_entity = 1 + levels;
        options.domain_size = 6;
        options.include_dtd = dtd;
        options.seed = 300 + levels * 10 + entities * 2 + (dtd ? 1 : 0);
        ExpectClassifyMatchesReference(
            "random levels " + std::to_string(levels) + " entities " +
                std::to_string(entities) + (dtd ? " with DTD" : " without DTD"),
            GenerateRandomXml(options).xml);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ClassifierDifferentialTest, DemoDataSets) {
  ExpectClassifyMatchesReference("retailer", GenerateRetailerXml());
  ExpectClassifyMatchesReference("stores", GenerateStoresXml());
  ExpectClassifyMatchesReference("movies", GenerateMoviesXml());
}

// A lone <store> is an entity only because the DTD declares store*.
TEST(ClassifierDifferentialTest, EntityOnlyByDtd) {
  ExpectClassifyMatchesReference("store* by DTD", R"(<!DOCTYPE retailers [
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
</retailers>)");
}

// Labels under several parent labels, a label repeated under one parent
// but not another, mixed content, empty elements and XML attributes.
TEST(ClassifierDifferentialTest, PairGranularityAndShapes) {
  ExpectClassifyMatchesReference(
      "pairs",
      "<db><store><name>A</name><name/></store><store><name>B</name></store>"
      "<list><name>x</name><name>y</name><item id=\"1\">t<b>u</b>v</item>"
      "<item id=\"2\"/></list><name>top</name></db>");
}

// Every tN holds two <x> and one <y>, so x and y each occur under hundreds
// of parent labels and the classifier's pair table grows well past its
// first size.
TEST(ClassifierDifferentialTest, ManyParentLabels) {
  std::string xml = "<r>";
  for (int i = 0; i < 400; ++i) {
    const std::string tag = "t" + std::to_string(i);
    xml += "<" + tag + "><x>1</x><x>2</x><y>" + std::to_string(i % 7) +
           "</y></" + tag + ">";
    if (i % 3 == 0) xml += "<" + tag + "><y>z</y></" + tag + ">";
  }
  xml += "</r>";
  ExpectClassifyMatchesReference("many parents", xml);
}

}  // namespace
}  // namespace extract

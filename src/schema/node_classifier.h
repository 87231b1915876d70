// Node classification per XSeek ([6] in the paper, adopted in eXtract §2.1):
// every element is an entity, an attribute, or a connection node.
//
//   * entity:     a *-node — an element type that can occur multiple times
//                 under its parent (from the DTD when available, otherwise
//                 inferred from the data);
//   * attribute:  a non-* element whose only child is a text value;
//   * connection: anything else;
//   * value:      text nodes.
//
// Classification is computed once per document at the granularity of
// (parent label, label) pairs and then materialized per node. Alongside the
// per-node categories it keeps per-label entity and attribute columns, the
// lookups the snippet stages (paper §2.2–§2.4) answer a result's questions
// from: a result [root, subtree_end(root)) is a contiguous id range, so each
// column clips to it by binary search instead of a walk over the subtree.
//
// It also keeps the document's attribute value dictionary: every distinct
// attribute text gets a dense ValueId, numbered in ascending byte order of
// the strings, and every attribute entry carries its value's id. The
// snippet stages count, rank and match values by id; because id order is
// string order, ranking ties and rendered output are those of the strings.
// The dictionary is derived, like the columns, so a snapshot image does not
// store it.

#ifndef EXTRACT_SCHEMA_NODE_CLASSIFIER_H_
#define EXTRACT_SCHEMA_NODE_CLASSIFIER_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "index/indexed_document.h"
#include "xml/dtd.h"

namespace extract {

/// The XSeek category of a node.
enum class NodeCategory : uint8_t {
  kEntity,
  kAttribute,
  kConnection,
  kValue,  ///< text nodes
};

/// Human-readable category name ("entity", ...).
std::string_view NodeCategoryToString(NodeCategory c);

/// Dense id of a distinct attribute value within one document; ids ascend
/// with the values' byte order.
using ValueId = uint32_t;
/// The value id of an empty attribute (one without a text child).
inline constexpr ValueId kNoValue = UINT32_MAX;

/// One attribute node of a document, as the snippet stages read it.
struct AttributeEntry {
  NodeId node = kInvalidNode;  ///< the attribute element
  /// Its sole text child; kInvalidNode for an empty attribute.
  NodeId text = kInvalidNode;
  /// Its nearest entity strict ancestor; kInvalidNode if it has none. The
  /// entity lies inside a result rooted at r iff entity >= r, because both
  /// are ancestors-or-self of the attribute.
  NodeId entity = kInvalidNode;
  /// Its text's id in the value dictionary; kNoValue for an empty
  /// attribute.
  ValueId value = kNoValue;
};

/// \brief The classification result for one document.
class NodeClassification {
 public:
  /// Classifies every node of `doc`. A non-empty `dtd` decides *-nodes;
  /// without one (null or empty) they are inferred from the data.
  static NodeClassification Classify(const IndexedDocument& doc,
                                     const Dtd* dtd);

  /// \brief Restores a classification of `doc` from its stored tables (the
  /// corpus snapshot loader's path; persisting beats re-classifying at
  /// fault-in). `per_node` must hold one valid category per node of `doc`
  /// and `entity_labels` must be sorted ascending; `pair_category` is taken
  /// as-is. The entity and attribute columns and the value dictionary are
  /// derived from `doc` and `per_node`, as Classify derives them.
  static NodeClassification Restore(
      const IndexedDocument& doc,
      std::map<std::pair<LabelId, LabelId>, NodeCategory> pair_category,
      std::vector<NodeCategory> per_node, std::vector<LabelId> entity_labels);

  /// Category of node `n`.
  NodeCategory category(NodeId n) const { return per_node_[n]; }

  bool IsEntity(NodeId n) const { return per_node_[n] == NodeCategory::kEntity; }
  bool IsAttribute(NodeId n) const {
    return per_node_[n] == NodeCategory::kAttribute;
  }
  bool IsConnection(NodeId n) const {
    return per_node_[n] == NodeCategory::kConnection;
  }

  /// Category decided for a (parent label, label) pair; parent kInvalidLabel
  /// denotes the document root position. Returns kConnection for unseen
  /// pairs.
  NodeCategory PairCategory(LabelId parent_label, LabelId label) const;

  /// Every decided (parent label, label) -> category pair (the snapshot
  /// encoder persists this table so Restore can skip re-classification).
  const std::map<std::pair<LabelId, LabelId>, NodeCategory>& pair_categories()
      const {
    return pair_category_;
  }

  /// Labels that are classified as entities in at least one parent context.
  const std::vector<LabelId>& entity_labels() const { return entity_labels_; }

  /// True iff some node labelled `label` is an entity (its entity column is
  /// non-empty).
  bool IsEntityLabel(LabelId label) const;

  /// Count of nodes per category (diagnostics / schema summary).
  size_t CountCategory(NodeCategory c) const;

  /// Number of labels the columns are indexed by (the document's label
  /// count).
  size_t num_labels() const {
    return entity_offsets_.empty() ? 0 : entity_offsets_.size() - 1;
  }

  /// The entity elements labelled `label` with ids in [begin, end),
  /// ascending. Empty for a label out of range.
  std::span<const NodeId> EntitiesIn(LabelId label, NodeId begin,
                                     NodeId end) const;

  /// The attribute elements labelled `label` with ids in [begin, end),
  /// ascending by node. Empty for a label out of range.
  std::span<const AttributeEntry> AttributesIn(LabelId label, NodeId begin,
                                               NodeId end) const;

  /// Number of distinct attribute values; their ids are [0, num_values()).
  size_t num_values() const { return value_texts_.size(); }

  /// A text node holding value `v` (every attribute text of that id holds
  /// the same bytes).
  NodeId value_text(ValueId v) const { return value_texts_[v]; }

 private:
  /// Derives the per-label columns and the value dictionary from per_node_
  /// and `doc`. Only element nodes enter the columns.
  void BuildColumns(const IndexedDocument& doc);

  std::map<std::pair<LabelId, LabelId>, NodeCategory> pair_category_;
  std::vector<NodeCategory> per_node_;
  std::vector<LabelId> entity_labels_;
  // Per-label columns in CSR form: label l's entries are
  // [offsets[l], offsets[l + 1]) of the entry array, ascending by node.
  std::vector<uint32_t> entity_offsets_;
  std::vector<NodeId> entity_nodes_;
  std::vector<uint32_t> attribute_offsets_;
  std::vector<AttributeEntry> attribute_entries_;
  // The value dictionary: one text node per value id.
  std::vector<NodeId> value_texts_;
};

}  // namespace extract

#endif  // EXTRACT_SCHEMA_NODE_CLASSIFIER_H_

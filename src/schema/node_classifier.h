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
// (parent label, label) pairs and then materialized per node.

#ifndef EXTRACT_SCHEMA_NODE_CLASSIFIER_H_
#define EXTRACT_SCHEMA_NODE_CLASSIFIER_H_

#include <cstdint>
#include <map>
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

/// \brief The classification result for one document.
class NodeClassification {
 public:
  /// Classifies every node of `doc`. A non-empty `dtd` decides *-nodes;
  /// without one (null or empty) they are inferred from the data.
  static NodeClassification Classify(const IndexedDocument& doc,
                                     const Dtd* dtd);

  /// \brief Restores a classification from its stored tables (the corpus
  /// snapshot loader's path; persisting beats re-classifying at fault-in).
  /// `entity_labels` must be sorted ascending and every label below
  /// `num_labels`; `pair_category` / `per_node` are taken as-is.
  static NodeClassification Restore(
      std::map<std::pair<LabelId, LabelId>, NodeCategory> pair_category,
      std::vector<NodeCategory> per_node, std::vector<LabelId> entity_labels,
      size_t num_labels);

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

  /// True iff `label` is an entity label in some context.
  bool IsEntityLabel(LabelId label) const;

  /// Count of nodes per category (diagnostics / schema summary).
  size_t CountCategory(NodeCategory c) const;

 private:
  std::map<std::pair<LabelId, LabelId>, NodeCategory> pair_category_;
  std::vector<NodeCategory> per_node_;
  std::vector<LabelId> entity_labels_;
  std::vector<bool> is_entity_label_;  // indexed by LabelId
};

}  // namespace extract

#endif  // EXTRACT_SCHEMA_NODE_CLASSIFIER_H_

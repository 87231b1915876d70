#include "schema/node_classifier.h"

#include <algorithm>
#include <set>

namespace extract {

std::string_view NodeCategoryToString(NodeCategory c) {
  switch (c) {
    case NodeCategory::kEntity:
      return "entity";
    case NodeCategory::kAttribute:
      return "attribute";
    case NodeCategory::kConnection:
      return "connection";
    case NodeCategory::kValue:
      return "value";
  }
  return "?";
}

NodeClassification NodeClassification::Classify(const IndexedDocument& doc,
                                                const Dtd* dtd) {
  NodeClassification out;
  const size_t n = doc.num_nodes();
  out.per_node_.resize(n, NodeCategory::kConnection);

  const bool have_dtd = dtd != nullptr && !dtd->empty();

  // Pass 1: per (parent label, label) pair, gather the evidence the rules
  // need: star inference (some parent instance has >= 2 children with this
  // label) and attribute shape (every instance's children are a single text
  // node, or none).
  struct PairStats {
    bool starred = false;
    bool attribute_shape = true;
  };
  std::map<std::pair<LabelId, LabelId>, PairStats> stats;

  for (size_t i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    if (!doc.is_element(id)) continue;
    LabelId parent_label =
        doc.parent(id) == kInvalidNode ? kInvalidLabel : doc.label(doc.parent(id));
    PairStats& my = stats[{parent_label, doc.label(id)}];
    auto kids = doc.children(id);
    bool shape_ok = kids.empty() || (kids.size() == 1 && doc.is_text(kids[0]));
    my.attribute_shape = my.attribute_shape && shape_ok;

    std::map<LabelId, int> child_label_count;
    for (NodeId c : kids) {
      if (doc.is_element(c)) child_label_count[doc.label(c)]++;
    }
    for (const auto& [child_label, count] : child_label_count) {
      if (count >= 2) stats[{doc.label(id), child_label}].starred = true;
    }
  }

  // Decide pair categories.
  for (const auto& [key, pair_stats] : stats) {
    const auto& [parent_label, label] = key;
    bool starred;
    if (have_dtd && parent_label != kInvalidLabel) {
      starred = dtd->IsStarChild(doc.labels().Name(parent_label),
                                 doc.labels().Name(label));
    } else {
      starred = pair_stats.starred;
    }
    NodeCategory category;
    if (starred) {
      category = NodeCategory::kEntity;
    } else if (pair_stats.attribute_shape) {
      category = NodeCategory::kAttribute;
    } else {
      category = NodeCategory::kConnection;
    }
    out.pair_category_[key] = category;
  }

  // Materialize per node and collect entity labels.
  std::set<LabelId> entity_label_set;
  for (size_t i = 0; i < n; ++i) {
    NodeId id = static_cast<NodeId>(i);
    if (doc.is_text(id)) {
      out.per_node_[i] = NodeCategory::kValue;
      continue;
    }
    LabelId parent_label =
        doc.parent(id) == kInvalidNode ? kInvalidLabel : doc.label(doc.parent(id));
    NodeCategory category = out.PairCategory(parent_label, doc.label(id));
    out.per_node_[i] = category;
    if (category == NodeCategory::kEntity) entity_label_set.insert(doc.label(id));
  }
  out.entity_labels_.assign(entity_label_set.begin(), entity_label_set.end());
  out.BuildColumns(doc);
  return out;
}

void NodeClassification::BuildColumns(const IndexedDocument& doc) {
  const size_t n = doc.num_nodes();
  const size_t num_labels = doc.labels().size();
  entity_offsets_.assign(num_labels + 1, 0);
  attribute_offsets_.assign(num_labels + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (!doc.is_element(id)) continue;
    if (per_node_[i] == NodeCategory::kEntity) {
      ++entity_offsets_[doc.label(id) + 1];
    } else if (per_node_[i] == NodeCategory::kAttribute) {
      ++attribute_offsets_[doc.label(id) + 1];
    }
  }
  for (size_t l = 0; l < num_labels; ++l) {
    entity_offsets_[l + 1] += entity_offsets_[l];
    attribute_offsets_[l + 1] += attribute_offsets_[l];
  }
  entity_nodes_.resize(entity_offsets_.back());
  attribute_entries_.resize(attribute_offsets_.back());

  // Filling in node order keeps every label's run ascending. Pre-order
  // numbers a parent before its children, so one pass also carries each
  // node's nearest entity ancestor-or-self down from its parent.
  std::vector<uint32_t> entity_fill(entity_offsets_.begin(),
                                    entity_offsets_.end() - 1);
  std::vector<uint32_t> attribute_fill(attribute_offsets_.begin(),
                                       attribute_offsets_.end() - 1);
  std::vector<NodeId> nearest_entity(n, kInvalidNode);
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (!doc.is_element(id)) continue;
    const NodeId parent = doc.parent(id);
    const NodeId above =
        parent == kInvalidNode ? kInvalidNode : nearest_entity[parent];
    const LabelId label = doc.label(id);
    if (per_node_[i] == NodeCategory::kEntity) {
      nearest_entity[i] = id;
      entity_nodes_[entity_fill[label]++] = id;
      continue;
    }
    nearest_entity[i] = above;
    if (per_node_[i] == NodeCategory::kAttribute) {
      attribute_entries_[attribute_fill[label]++] =
          AttributeEntry{id, doc.sole_text_child(id), above};
    }
  }
}

std::span<const NodeId> NodeClassification::EntitiesIn(LabelId label,
                                                       NodeId begin,
                                                       NodeId end) const {
  if (label >= num_labels()) return {};
  const NodeId* first = entity_nodes_.data() + entity_offsets_[label];
  const NodeId* last = entity_nodes_.data() + entity_offsets_[label + 1];
  first = std::lower_bound(first, last, begin);
  last = std::lower_bound(first, last, end);
  return {first, last};
}

std::span<const AttributeEntry> NodeClassification::AttributesIn(
    LabelId label, NodeId begin, NodeId end) const {
  if (label >= num_labels()) return {};
  const AttributeEntry* first =
      attribute_entries_.data() + attribute_offsets_[label];
  const AttributeEntry* last =
      attribute_entries_.data() + attribute_offsets_[label + 1];
  auto before = [](const AttributeEntry& entry, NodeId id) {
    return entry.node < id;
  };
  first = std::lower_bound(first, last, begin, before);
  last = std::lower_bound(first, last, end, before);
  return {first, last};
}

NodeCategory NodeClassification::PairCategory(LabelId parent_label,
                                              LabelId label) const {
  auto it = pair_category_.find({parent_label, label});
  return it == pair_category_.end() ? NodeCategory::kConnection : it->second;
}

NodeClassification NodeClassification::Restore(
    const IndexedDocument& doc,
    std::map<std::pair<LabelId, LabelId>, NodeCategory> pair_category,
    std::vector<NodeCategory> per_node, std::vector<LabelId> entity_labels) {
  NodeClassification out;
  out.pair_category_ = std::move(pair_category);
  out.per_node_ = std::move(per_node);
  out.entity_labels_ = std::move(entity_labels);
  out.BuildColumns(doc);
  return out;
}

bool NodeClassification::IsEntityLabel(LabelId label) const {
  return label < num_labels() &&
         entity_offsets_[label] != entity_offsets_[label + 1];
}

size_t NodeClassification::CountCategory(NodeCategory c) const {
  return static_cast<size_t>(
      std::count(per_node_.begin(), per_node_.end(), c));
}

}  // namespace extract

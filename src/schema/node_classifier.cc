#include "schema/node_classifier.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string_view>

#include "common/dense_ids.h"

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

namespace {

// The murmur3 finalizer: spreads a packed label pair over the low bits the
// table probes by.
uint64_t MixBits(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

}  // namespace

NodeClassification NodeClassification::Classify(const IndexedDocument& doc,
                                                const Dtd* dtd) {
  NodeClassification out;
  const size_t n = doc.num_nodes();
  out.per_node_.resize(n, NodeCategory::kConnection);

  const bool have_dtd = dtd != nullptr && !dtd->empty();

  // Pass 1: number every distinct (parent label, label) pair of an element,
  // record each element's pair, and gather the evidence the rules need per
  // pair: star inference (some parent instance has >= 2 children with this
  // label) and attribute shape (every instance's children are a single text
  // node, or none).
  struct PairStats {
    LabelId parent_label;
    LabelId label;
    bool starred = false;
    bool attribute_shape = true;
  };
  const size_t num_labels = doc.labels().size();
  std::vector<PairStats> pairs;
  DenseIds pair_ids(num_labels + 1);
  auto pair_index = [&](LabelId parent_label, LabelId label) {
    const uint64_t key = (static_cast<uint64_t>(parent_label) << 32) | label;
    const uint32_t index = pair_ids.Intern(MixBits(key), [&](uint32_t i) {
      return pairs[i].parent_label == parent_label && pairs[i].label == label;
    });
    if (index == pairs.size()) pairs.push_back(PairStats{parent_label, label});
    return index;
  };
  std::vector<uint32_t> node_pair(n);
  // Child-label counts of the element at hand, zeroed again through the
  // labels it touched.
  std::vector<uint32_t> child_count(num_labels, 0);
  std::vector<LabelId> touched;
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    if (!doc.is_element(id)) continue;
    const LabelId label = doc.label(id);
    const LabelId parent_label =
        doc.parent(id) == kInvalidNode ? kInvalidLabel : doc.label(doc.parent(id));
    node_pair[i] = pair_index(parent_label, label);
    auto kids = doc.children(id);
    const bool shape_ok =
        kids.empty() || (kids.size() == 1 && doc.is_text(kids[0]));
    if (!shape_ok) pairs[node_pair[i]].attribute_shape = false;

    for (NodeId c : kids) {
      if (doc.is_element(c) && child_count[doc.label(c)]++ == 0) {
        touched.push_back(doc.label(c));
      }
    }
    for (LabelId child_label : touched) {
      if (child_count[child_label] >= 2) {
        pairs[pair_index(label, child_label)].starred = true;
      }
      child_count[child_label] = 0;
    }
    touched.clear();
  }

  // Decide pair categories.
  std::vector<NodeCategory> pair_category(pairs.size());
  std::vector<bool> entity_label(num_labels, false);
  for (size_t p = 0; p < pairs.size(); ++p) {
    const PairStats& pair = pairs[p];
    bool starred;
    if (have_dtd && pair.parent_label != kInvalidLabel) {
      starred = dtd->IsStarChild(doc.labels().Name(pair.parent_label),
                                 doc.labels().Name(pair.label));
    } else {
      starred = pair.starred;
    }
    if (starred) {
      pair_category[p] = NodeCategory::kEntity;
      // Every pair names at least one element, so its label is an entity
      // label.
      entity_label[pair.label] = true;
    } else if (pair.attribute_shape) {
      pair_category[p] = NodeCategory::kAttribute;
    } else {
      pair_category[p] = NodeCategory::kConnection;
    }
    out.pair_category_.emplace(std::make_pair(pair.parent_label, pair.label),
                               pair_category[p]);
  }

  // Materialize per node from the recorded pairs.
  for (size_t i = 0; i < n; ++i) {
    out.per_node_[i] = doc.is_text(static_cast<NodeId>(i))
                           ? NodeCategory::kValue
                           : pair_category[node_pair[i]];
  }
  for (LabelId label = 0; label < entity_label.size(); ++label) {
    if (entity_label[label]) out.entity_labels_.push_back(label);
  }
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
  // node's nearest entity ancestor-or-self down from its parent. Attribute
  // texts get provisional value ids in first-seen order.
  std::vector<uint32_t> entity_fill(entity_offsets_.begin(),
                                    entity_offsets_.end() - 1);
  std::vector<uint32_t> attribute_fill(attribute_offsets_.begin(),
                                       attribute_offsets_.end() - 1);
  std::vector<NodeId> nearest_entity(n, kInvalidNode);
  // Sized for every attribute holding a distinct value, up to a cap past
  // which the table grows instead.
  const size_t expected_values =
      std::min<size_t>(attribute_entries_.size(), size_t{1} << 14);
  DenseIds value_ids(expected_values);
  std::vector<NodeId> first_texts;  // provisional id -> its first text node
  std::vector<std::string_view> first_bytes;  // ... and its string
  first_texts.reserve(expected_values);
  first_bytes.reserve(expected_values);
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
    if (per_node_[i] != NodeCategory::kAttribute) continue;
    const NodeId text = doc.sole_text_child(id);
    ValueId value = kNoValue;
    if (text != kInvalidNode) {
      const std::string_view bytes = doc.text(text);
      value = value_ids.Intern(
          std::hash<std::string_view>{}(bytes),
          [&](uint32_t v) { return first_bytes[v] == bytes; });
      if (value == first_texts.size()) {
        first_texts.push_back(text);
        first_bytes.push_back(bytes);
      }
    }
    attribute_entries_[attribute_fill[label]++] =
        AttributeEntry{id, text, above, value};
  }

  // Renumber the values in ascending byte order of their strings.
  std::vector<ValueId> order(first_texts.size());
  std::iota(order.begin(), order.end(), ValueId{0});
  std::sort(order.begin(), order.end(), [&](ValueId a, ValueId b) {
    return first_bytes[a] < first_bytes[b];
  });
  std::vector<ValueId> rank(order.size());
  value_texts_.resize(order.size());
  for (ValueId v = 0; v < order.size(); ++v) {
    rank[order[v]] = v;
    value_texts_[v] = first_texts[order[v]];
  }
  for (AttributeEntry& entry : attribute_entries_) {
    if (entry.value != kNoValue) entry.value = rank[entry.value];
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

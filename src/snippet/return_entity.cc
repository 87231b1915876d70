#include "snippet/return_entity.h"

#include <algorithm>
#include <map>
#include <span>

#include "common/string_util.h"

namespace extract {

namespace {

bool LabelMatchesAnyKeyword(const std::string& label_name,
                            const Query& query) {
  for (const std::string& keyword : query.keywords) {
    if (ContainsToken(label_name, keyword)) return true;
  }
  return false;
}

// Per-label aggregate over a result: the label's entity instances in
// document order, the best (minimal) depth, and the keyword evidence bits.
struct LabelInfo {
  std::span<const NodeId> instances;
  uint32_t min_depth = UINT32_MAX;
  bool name_match = false;
  bool attribute_match = false;
};

using LabelScan = std::map<LabelId, LabelInfo>;

// The paper's preference order over the aggregated labels.
ReturnEntityInfo PickReturnEntity(const LabelScan& by_label) {
  ReturnEntityInfo out;
  if (by_label.empty()) return out;  // kNone

  auto pick = [&](auto predicate, ReturnEntityEvidence evidence) -> bool {
    LabelId best = kInvalidLabel;
    uint32_t best_depth = UINT32_MAX;
    NodeId best_first = kInvalidNode;
    for (const auto& [label, info] : by_label) {
      if (!predicate(info)) continue;
      // Highest (smallest depth) wins; then earliest in document order.
      if (best == kInvalidLabel || info.min_depth < best_depth ||
          (info.min_depth == best_depth && info.instances[0] < best_first)) {
        best = label;
        best_depth = info.min_depth;
        best_first = info.instances[0];
      }
    }
    if (best == kInvalidLabel) return false;
    out.label = best;
    const std::span<const NodeId> instances = by_label.find(best)->second.instances;
    out.instances.assign(instances.begin(), instances.end());
    out.evidence = evidence;
    return true;
  };

  if (pick([](const LabelInfo& i) { return i.name_match; },
           ReturnEntityEvidence::kNameMatch)) {
    return out;
  }
  if (pick([](const LabelInfo& i) { return i.attribute_match; },
           ReturnEntityEvidence::kAttributeMatch)) {
    return out;
  }
  // Default: the highest entities (no entity ancestor). With per-label
  // aggregation this is the label achieving the minimal depth.
  pick([](const LabelInfo&) { return true; },
       ReturnEntityEvidence::kDefaultHighest);
  return out;
}

}  // namespace

ReturnEntityInfo IdentifyReturnEntity(const IndexedDocument& doc,
                                      const NodeClassification& classification,
                                      const Query& query, NodeId result_root) {
  const NodeId end = doc.subtree_end(result_root);
  const size_t num_labels = classification.num_labels();
  // Whether an attribute label holds a keyword, decided once per label:
  // 0 = not yet tested, 1 = no, 2 = yes.
  std::vector<uint8_t> attribute_label_matches(num_labels, 0);
  auto attribute_label_matches_keyword = [&](LabelId label) {
    uint8_t& memo = attribute_label_matches[label];
    if (memo == 0) {
      memo = LabelMatchesAnyKeyword(doc.labels().Name(label), query) ? 2 : 1;
    }
    return memo == 2;
  };

  LabelScan by_label;
  for (LabelId label = 0; label < num_labels; ++label) {
    const std::span<const NodeId> instances =
        classification.EntitiesIn(label, result_root, end);
    if (instances.empty()) continue;
    LabelInfo& info = by_label.emplace_hint(by_label.end(), label, LabelInfo{})
                          ->second;
    info.instances = instances;
    for (NodeId id : instances) {
      info.min_depth = std::min(info.min_depth, doc.depth(id));
    }
    info.name_match = LabelMatchesAnyKeyword(doc.labels().Name(label), query);
    for (NodeId id : instances) {
      for (NodeId c : doc.children(id)) {
        if (doc.is_element(c) && classification.IsAttribute(c) &&
            attribute_label_matches_keyword(doc.label(c))) {
          info.attribute_match = true;
          break;
        }
      }
      if (info.attribute_match) break;
    }
  }
  return PickReturnEntity(by_label);
}

}  // namespace extract

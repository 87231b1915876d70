#include "snippet/return_entity.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace extract {

namespace {

bool LabelMatchesAnyKeyword(const std::string& label_name,
                            const Query& query) {
  for (const std::string& keyword : query.keywords) {
    if (ContainsToken(label_name, keyword)) return true;
  }
  return false;
}

// Per-label aggregate of one scan (or scan slice): entity instances in
// document order, the best (minimal) depth, and the keyword evidence bits.
struct LabelInfo {
  std::vector<NodeId> instances;
  uint32_t min_depth = UINT32_MAX;
  bool name_match = false;
  bool attribute_match = false;
};

using LabelScan = std::map<LabelId, LabelInfo>;

// Scans node ids in [scan_begin, scan_end); the child walk for attribute
// evidence may read past the range (children belong to their parent's
// slice), so a disjoint cover visits every entity exactly once.
void ScanRange(const IndexedDocument& doc,
               const NodeClassification& classification, const Query& query,
               NodeId scan_begin, NodeId scan_end, LabelScan& by_label) {
  for (NodeId id = scan_begin; id < scan_end; ++id) {
    if (!doc.is_element(id) || !classification.IsEntity(id)) continue;
    LabelInfo& info = by_label[doc.label(id)];
    info.instances.push_back(id);
    info.min_depth = std::min(info.min_depth, doc.depth(id));
    if (!info.name_match && LabelMatchesAnyKeyword(doc.label_name(id), query)) {
      info.name_match = true;
    }
    if (!info.attribute_match) {
      for (NodeId c : doc.children(id)) {
        if (doc.is_element(c) && classification.IsAttribute(c) &&
            LabelMatchesAnyKeyword(doc.label_name(c), query)) {
          info.attribute_match = true;
          break;
        }
      }
    }
  }
}

// Folds `slice` (scanned from a later node range) into `into`: instance
// lists concatenate back into document order, depths take the min, evidence
// bits OR. Associative, and order-preserving when applied in slice order —
// the merge that makes the partition-parallel scan byte-identical.
void MergeScan(LabelScan& into, LabelScan&& slice) {
  for (auto& [label, info] : slice) {
    auto [it, inserted] = into.try_emplace(label, std::move(info));
    if (inserted) continue;
    LabelInfo& mine = it->second;
    mine.instances.insert(mine.instances.end(), info.instances.begin(),
                          info.instances.end());
    mine.min_depth = std::min(mine.min_depth, info.min_depth);
    mine.name_match = mine.name_match || info.name_match;
    mine.attribute_match = mine.attribute_match || info.attribute_match;
  }
}

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
    out.instances = by_label.find(best)->second.instances;
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
  LabelScan by_label;
  ScanRange(doc, classification, query, result_root,
            doc.subtree_end(result_root), by_label);
  return PickReturnEntity(by_label);
}

ReturnEntityInfo IdentifyReturnEntity(const IndexedDocument& doc,
                                      const NodeClassification& classification,
                                      const Query& query, NodeId result_root,
                                      const std::vector<NodeRange>& slices,
                                      size_t num_threads) {
  if (slices.size() <= 1 || num_threads == 1) {
    return IdentifyReturnEntity(doc, classification, query, result_root);
  }
  std::vector<LabelScan> partials(slices.size());
  ParallelFor(slices.size(), num_threads, [&](size_t s) {
    ScanRange(doc, classification, query, slices[s].begin, slices[s].end,
              partials[s]);
  });
  LabelScan by_label = std::move(partials[0]);
  for (size_t s = 1; s < partials.size(); ++s) {
    MergeScan(by_label, std::move(partials[s]));
  }
  return PickReturnEntity(by_label);
}

}  // namespace extract

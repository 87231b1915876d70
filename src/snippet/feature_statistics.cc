#include "snippet/feature_statistics.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/tree_printer.h"

namespace extract {

namespace {

// Nearest entity ancestor of `n` strictly above `n` but within the result
// subtree; kInvalidNode if none.
NodeId NearestEntityAncestorWithin(const IndexedDocument& doc,
                                   const NodeClassification& classification,
                                   NodeId n, NodeId result_root) {
  for (NodeId cur = doc.parent(n);
       cur != kInvalidNode && doc.IsAncestorOrSelf(result_root, cur);
       cur = doc.parent(cur)) {
    if (classification.IsEntity(cur)) return cur;
  }
  return kInvalidNode;
}

}  // namespace

FeatureStatistics FeatureStatistics::Compute(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId result_root) {
  return ComputeRange(doc, classification, result_root, result_root,
                      doc.subtree_end(result_root));
}

FeatureStatistics FeatureStatistics::ComputeRange(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId result_root, NodeId scan_begin, NodeId scan_end) {
  FeatureStatistics out;
  for (NodeId id = scan_begin; id < scan_end; ++id) {
    if (!doc.is_element(id) || !classification.IsAttribute(id)) continue;
    NodeId text = doc.sole_text_child(id);
    if (text == kInvalidNode) continue;  // empty attribute: no feature value
    NodeId entity =
        NearestEntityAncestorWithin(doc, classification, id, result_root);
    LabelId entity_label =
        entity == kInvalidNode ? doc.label(result_root) : doc.label(entity);
    FeatureType type{entity_label, doc.label(id)};
    FeatureTypeStats& stats = out.types_[type];
    ++stats.total_occurrences;
    ++stats.value_occurrences[doc.text(text)];
  }
  return out;
}

void FeatureStatistics::MergeFrom(const FeatureStatistics& other) {
  for (const auto& [type, stats] : other.types_) {
    FeatureTypeStats& mine = types_[type];
    mine.total_occurrences += stats.total_occurrences;
    for (const auto& [value, count] : stats.value_occurrences) {
      mine.value_occurrences[value] += count;
    }
  }
}

size_t FeatureStatistics::Occurrences(const Feature& f) const {
  auto it = types_.find(f.type);
  if (it == types_.end()) return 0;
  auto vit = it->second.value_occurrences.find(f.value);
  return vit == it->second.value_occurrences.end() ? 0 : vit->second;
}

double FeatureStatistics::DominanceScore(const Feature& f) const {
  auto it = types_.find(f.type);
  if (it == types_.end()) return 0.0;
  auto vit = it->second.value_occurrences.find(f.value);
  if (vit == it->second.value_occurrences.end()) return 0.0;
  const FeatureTypeStats& stats = it->second;
  return static_cast<double>(vit->second) /
         (static_cast<double>(stats.total_occurrences) /
          static_cast<double>(stats.domain_size()));
}

bool FeatureStatistics::IsDominant(const Feature& f) const {
  auto it = types_.find(f.type);
  if (it == types_.end()) return false;
  auto vit = it->second.value_occurrences.find(f.value);
  if (vit == it->second.value_occurrences.end()) return false;
  const FeatureTypeStats& stats = it->second;
  if (stats.domain_size() == 1) return true;  // the paper's exception
  return vit->second * stats.domain_size() > stats.total_occurrences;
}

std::string FeatureStatistics::Render(const LabelTable& labels,
                                      size_t min_occurrences) const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"attribute", "value: occurrences"});
  for (const auto& [type, stats] : types_) {
    std::vector<std::pair<std::string, size_t>> values(
        stats.value_occurrences.begin(), stats.value_occurrences.end());
    std::sort(values.begin(), values.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    std::string cell;
    size_t other_count = 0;
    size_t other_total = 0;
    for (const auto& [value, count] : values) {
      if (count < min_occurrences) {
        ++other_count;
        other_total += count;
        continue;
      }
      if (!cell.empty()) cell += "  ";
      cell += value + ": " + std::to_string(count);
    }
    if (other_count > 0) {
      if (!cell.empty()) cell += "  ";
      cell += "other (" + std::to_string(other_count) +
              "): " + std::to_string(other_total);
    }
    rows.push_back({labels.Name(type.attribute_label) + ":", cell});
  }
  return RenderTable(rows);
}

}  // namespace extract

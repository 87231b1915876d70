#include "snippet/feature_statistics.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/tree_printer.h"

namespace extract {

FeatureStatistics FeatureStatistics::Compute(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId result_root) {
  FeatureStatistics out;
  const NodeId end = doc.subtree_end(result_root);
  const size_t num_labels = classification.num_labels();
  for (LabelId label = 0; label < num_labels; ++label) {
    for (const AttributeEntry& attribute :
         classification.AttributesIn(label, result_root, end)) {
      if (attribute.text == kInvalidNode) continue;  // no feature value
      FeatureTypeStats& stats = out.types_[FeatureType{
          FeatureEntityLabel(doc, attribute, result_root), label}];
      ++stats.total_occurrences;
      ++stats.value_occurrences[doc.text(attribute.text)];
    }
  }
  return out;
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

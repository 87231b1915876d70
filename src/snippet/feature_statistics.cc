#include "snippet/feature_statistics.h"

#include <algorithm>

#include "common/tree_printer.h"

namespace extract {

namespace {

// Per-thread counts indexed by value id, reused across results: the array
// only grows, and after each type it is zeroed again through the ids that
// type touched, so a result costs its attribute count, not the size of its
// document's dictionary.
struct ValueCounter {
  std::vector<uint32_t> counts;
  std::vector<ValueId> touched;

  void Add(ValueId value) {
    if (counts[value]++ == 0) touched.push_back(value);
  }

  // Moves the counts into `stats` ascending by id and zeroes them.
  void Drain(const NodeClassification& classification,
             FeatureTypeStats& stats) {
    std::sort(touched.begin(), touched.end());
    stats.values.reserve(touched.size());
    for (ValueId value : touched) {
      stats.values.push_back(
          ValueCount{value, classification.value_text(value), counts[value]});
      counts[value] = 0;
    }
    touched.clear();
  }
};

}  // namespace

FeatureStatistics FeatureStatistics::Compute(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId result_root) {
  static thread_local ValueCounter counter;
  if (counter.counts.size() < classification.num_values()) {
    counter.counts.resize(classification.num_values(), 0);
  }
  FeatureStatistics out;
  const NodeId end = doc.subtree_end(result_root);
  const size_t num_labels = classification.num_labels();
  std::vector<LabelId> counted;  // entity labels of the span already counted
  for (LabelId label = 0; label < num_labels; ++label) {
    const std::span<const AttributeEntry> attributes =
        classification.AttributesIn(label, result_root, end);
    // One pass per entity label in the span, each counting that label's
    // entries: a pass starts at the first entry of a label no earlier pass
    // counted, so entries before it belong to counted labels.
    counted.clear();
    for (size_t first = 0; first < attributes.size();) {
      const LabelId entity =
          FeatureEntityLabel(doc, attributes[first], result_root);
      size_t next = attributes.size();
      size_t total = 0;
      for (size_t i = first; i < attributes.size(); ++i) {
        const AttributeEntry& attribute = attributes[i];
        if (attribute.value == kNoValue) continue;  // no feature value
        const LabelId its_entity =
            FeatureEntityLabel(doc, attribute, result_root);
        if (its_entity == entity) {
          counter.Add(attribute.value);
          ++total;
        } else if (next == attributes.size() &&
                   std::find(counted.begin(), counted.end(), its_entity) ==
                       counted.end()) {
          next = i;
        }
      }
      if (total > 0) {
        FeatureTypeStats& stats = out.types_.emplace_back();
        stats.type = FeatureType{entity, label};
        stats.total_occurrences = total;
        counter.Drain(classification, stats);
      }
      counted.push_back(entity);
      first = next;
    }
  }
  std::sort(out.types_.begin(), out.types_.end(),
            [](const FeatureTypeStats& a, const FeatureTypeStats& b) {
              return a.type < b.type;
            });
  return out;
}

std::string FeatureStatistics::Render(const IndexedDocument& doc,
                                      size_t min_occurrences) const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"attribute", "value: occurrences"});
  for (const FeatureTypeStats& stats : types_) {
    // Decreasing count; ties ascending by id, which is ascending by string.
    std::vector<ValueCount> values = stats.values;
    std::stable_sort(values.begin(), values.end(),
                     [](const ValueCount& a, const ValueCount& b) {
                       return a.count > b.count;
                     });
    std::string cell;
    size_t other_count = 0;
    size_t other_total = 0;
    for (const ValueCount& value : values) {
      if (value.count < min_occurrences) {
        ++other_count;
        other_total += value.count;
        continue;
      }
      if (!cell.empty()) cell += "  ";
      cell += doc.text(value.text) + ": " + std::to_string(value.count);
    }
    if (other_count > 0) {
      if (!cell.empty()) cell += "  ";
      cell += "other (" + std::to_string(other_count) +
              "): " + std::to_string(other_total);
    }
    rows.push_back({doc.labels().Name(stats.type.attribute_label) + ":", cell});
  }
  return RenderTable(rows);
}

}  // namespace extract

#include "snippet/dominant_features.h"

#include <algorithm>

namespace extract {

std::vector<RankedFeature> IdentifyDominantFeatures(
    const IndexedDocument& doc, const FeatureStatistics& stats,
    const DominantFeatureOptions& options) {
  struct Candidate {
    const FeatureTypeStats* type;
    const ValueCount* value;
    double score;
  };
  std::vector<Candidate> candidates;
  for (const FeatureTypeStats& type : stats.types()) {
    for (const ValueCount& value : type.values) {
      if (!options.normalize) {
        candidates.push_back({&type, &value, static_cast<double>(value.count)});
      } else if (type.IsDominant(value.count)) {
        candidates.push_back({&type, &value, type.DominanceScore(value.count)});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.value->count != b.value->count) {
                return a.value->count > b.value->count;
              }
              if (a.type->type != b.type->type) {
                return a.type->type < b.type->type;
              }
              return a.value->value < b.value->value;
            });
  if (options.max_features > 0 && candidates.size() > options.max_features) {
    candidates.resize(options.max_features);
  }
  std::vector<RankedFeature> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    out.push_back(RankedFeature{
        Feature{c.type->type, doc.text(c.value->text), c.value->value},
        c.score, c.value->count});
  }
  return out;
}

}  // namespace extract

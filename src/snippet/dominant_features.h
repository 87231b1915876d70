// Dominant Feature Identifier (paper §2.3): ranks the features of a query
// result by dominance score and keeps the dominant ones.
//
// The raw-occurrence-count ranking (no normalization) is also provided; it
// is the ablation baseline the paper argues against ("the relationship
// between the dominance of a feature and the number of occurrences is not
// always reliable").

#ifndef EXTRACT_SNIPPET_DOMINANT_FEATURES_H_
#define EXTRACT_SNIPPET_DOMINANT_FEATURES_H_

#include <cstddef>
#include <vector>

#include "snippet/feature_statistics.h"

namespace extract {

/// A feature with its rank evidence.
struct RankedFeature {
  Feature feature;
  /// DS(f, R) under dominance ranking; N(e,a,v) under raw-count ranking.
  double score = 0.0;
  /// N(e,a,v).
  size_t occurrences = 0;
};

/// Ranking knobs.
struct DominantFeatureOptions {
  /// true: the paper's dominance-score ranking with the DS > 1 (or D == 1)
  /// dominance filter. false: rank every feature by raw occurrence count
  /// (the ablation baseline).
  bool normalize = true;
  /// Keep at most this many features (0 = unlimited).
  size_t max_features = 0;
};

/// \brief Ranks the features of `stats`, a result of `doc`, best-first.
///
/// Dominance ranking: dominant features only, by decreasing DS; ties by
/// decreasing occurrences, then lexicographic (entity, attribute, value) for
/// determinism. Raw-count ranking: all features by decreasing occurrences;
/// ties lexicographic.
///
/// Dominance is decided and ranked on the counts and value ids alone (value
/// id order is value string order); only the features returned read their
/// value string from `doc`.
std::vector<RankedFeature> IdentifyDominantFeatures(
    const IndexedDocument& doc, const FeatureStatistics& stats,
    const DominantFeatureOptions& options);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_DOMINANT_FEATURES_H_

// Feature statistics of one query result (paper §2.3): for every feature
// type (e, a) the occurrence counts N(e,a), per-value counts N(e,a,v) and
// domain size D(e,a), plus the dominance score
//
//     DS(f, R) = N(e,a,v) / ( N(e,a) / D(e,a) ).
//
// A feature is dominant iff DS > 1, or trivially when D(e,a) == 1.
// Dominance is decided in exact integer arithmetic
// (N(e,a,v) * D(e,a) > N(e,a)) so values on the boundary (DS == 1) are
// never misclassified by floating point.

#ifndef EXTRACT_SNIPPET_FEATURE_STATISTICS_H_
#define EXTRACT_SNIPPET_FEATURE_STATISTICS_H_

#include <map>
#include <string>
#include <vector>

#include "index/indexed_document.h"
#include "schema/node_classifier.h"
#include "snippet/feature.h"

namespace extract {

/// Counts for one feature type (e, a) within a query result.
struct FeatureTypeStats {
  /// N(e,a): total occurrences of features of this type.
  size_t total_occurrences = 0;
  /// N(e,a,v) per distinct value v. D(e,a) == value_occurrences.size().
  std::map<std::string, size_t> value_occurrences;

  /// D(e,a).
  size_t domain_size() const { return value_occurrences.size(); }
};

/// The entity label e of the feature (e, a, v) that `attribute` contributes
/// to the result rooted at `result_root`: its nearest entity's label when
/// that entity lies inside the result, else the result root's label.
inline LabelId FeatureEntityLabel(const IndexedDocument& doc,
                                  const AttributeEntry& attribute,
                                  NodeId result_root) {
  return attribute.entity >= result_root ? doc.label(attribute.entity)
                                         : doc.label(result_root);
}

/// \brief The feature statistics of one query result (the right portion of
/// the paper's Figure 1).
class FeatureStatistics {
 public:
  /// Counts the features of the subtree rooted at `result_root`.
  ///
  /// Every attribute node contributes the feature (e, a, v) where e is the
  /// label of its nearest *entity* ancestor (connection nodes are
  /// transparent, matching XSeek's semantics; in the paper's examples the
  /// entity is always the direct parent), a its own label and v its text.
  /// Attributes with no entity ancestor inside the result (e.g. attributes
  /// of the result root's ancestors) are attributed to the result root's
  /// label as a fallback.
  ///
  /// Reads the classification's attribute columns clipped to the result's
  /// id range, which carry each attribute's text and nearest entity: no
  /// walk over the subtree or up an attribute's ancestors.
  static FeatureStatistics Compute(const IndexedDocument& doc,
                                   const NodeClassification& classification,
                                   NodeId result_root);

  /// All feature types found, with their counts.
  const std::map<FeatureType, FeatureTypeStats>& types() const {
    return types_;
  }

  /// N(e,a,v); 0 if the feature does not occur.
  size_t Occurrences(const Feature& f) const;

  /// DS(f, R); 0.0 if the feature does not occur.
  double DominanceScore(const Feature& f) const;

  /// Exact dominance test: N(e,a,v) * D(e,a) > N(e,a), or D(e,a) == 1.
  bool IsDominant(const Feature& f) const;

  /// Renders the Figure 1-style statistics block:
  ///
  ///     city:     Houston: 6  Austin: 1  ...
  ///     fitting:  man: 600  woman: 360  children: 40
  ///
  /// Values are listed in decreasing occurrence order; values below
  /// `min_occurrences` are aggregated into "other (n): total".
  std::string Render(const LabelTable& labels, size_t min_occurrences) const;

 private:
  std::map<FeatureType, FeatureTypeStats> types_;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_FEATURE_STATISTICS_H_

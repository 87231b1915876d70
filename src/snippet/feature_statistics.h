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
//
// Values are counted by their id in the document's value dictionary
// (NodeClassification), not by string. The statistics hold no pointer into
// the document: each value keeps its id and a text node holding it, and
// whatever needs the string (the ranking's output, Render) takes the
// document.

#ifndef EXTRACT_SNIPPET_FEATURE_STATISTICS_H_
#define EXTRACT_SNIPPET_FEATURE_STATISTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/indexed_document.h"
#include "schema/node_classifier.h"
#include "snippet/feature.h"

namespace extract {

/// One value v of a feature type within a query result.
struct ValueCount {
  /// v's id in the document's value dictionary.
  ValueId value = kNoValue;
  /// A text node holding v.
  NodeId text = kInvalidNode;
  /// N(e,a,v).
  uint32_t count = 0;
};

/// Counts for one feature type (e, a) within a query result.
struct FeatureTypeStats {
  FeatureType type;
  /// N(e,a): total occurrences of features of this type.
  size_t total_occurrences = 0;
  /// N(e,a,v) per distinct value v, ascending by value id (and so by
  /// value string).
  std::vector<ValueCount> values;

  /// D(e,a).
  size_t domain_size() const { return values.size(); }

  /// Exact dominance of a value of this type occurring `count` times:
  /// count * D(e,a) > N(e,a), or D(e,a) == 1.
  bool IsDominant(size_t count) const {
    return domain_size() == 1 || count * domain_size() > total_occurrences;
  }

  /// DS(f, R) of a value of this type occurring `count` times.
  double DominanceScore(size_t count) const {
    return static_cast<double>(count) /
           (static_cast<double>(total_occurrences) /
            static_cast<double>(domain_size()));
  }
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
  /// id range, which carry each attribute's value id and nearest entity: no
  /// walk over the subtree or up an attribute's ancestors. Each label's
  /// span is walked once per entity label among its entries, counting that
  /// entity label's values by id into a per-thread array.
  static FeatureStatistics Compute(const IndexedDocument& doc,
                                   const NodeClassification& classification,
                                   NodeId result_root);

  /// All feature types found, ascending by type.
  const std::vector<FeatureTypeStats>& types() const { return types_; }

  /// Renders the Figure 1-style statistics block of a result of `doc`:
  ///
  ///     city:     Houston: 6  Austin: 1  ...
  ///     fitting:  man: 600  woman: 360  children: 40
  ///
  /// Values are listed in decreasing occurrence order; values below
  /// `min_occurrences` are aggregated into "other (n): total".
  std::string Render(const IndexedDocument& doc, size_t min_occurrences) const;

 private:
  std::vector<FeatureTypeStats> types_;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_FEATURE_STATISTICS_H_

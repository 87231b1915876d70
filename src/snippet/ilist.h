// The Snippet Information List (IList, paper §2): the ranked list of the
// most significant information in a query result, assembled from
//
//   1. the query keywords (user order),
//   2. the names of the entities in the result (self-containment, §2.1),
//   3. the key of the query result (distinguishability, §2.2),
//   4. the dominant features in decreasing dominance score (§2.3).
//
// For the paper's running example the IList is exactly Figure 3:
// Texas, apparel, retailer, clothes, store, Brook Brothers, Houston,
// outwear, man, casual, suit, woman.
//
// Key and feature items carry their value both as a string (the display)
// and as its id in the document's value dictionary (NodeClassification),
// which is what the Instance Selector matches attributes by.

#ifndef EXTRACT_SNIPPET_ILIST_H_
#define EXTRACT_SNIPPET_ILIST_H_

#include <string>
#include <vector>

#include "search/search_engine.h"
#include "snippet/dominant_features.h"
#include "snippet/result_key.h"

namespace extract {

/// Which §2 goal an IList item serves.
enum class IListItemKind {
  kKeyword,
  kEntityName,
  kResultKey,
  kDominantFeature,
};

std::string_view IListItemKindToString(IListItemKind k);

/// One ranked item together with the matching specification the Instance
/// Selector uses to locate its instances in the result.
struct IListItem {
  IListItemKind kind = IListItemKind::kKeyword;
  /// Display string (what Figure 3 shows); for kResultKey and
  /// kDominantFeature, the attribute value itself.
  std::string display;

  /// kKeyword: the lower-cased token.
  std::string token;
  /// kEntityName / kResultKey / kDominantFeature.
  LabelId entity_label = kInvalidLabel;
  /// kResultKey / kDominantFeature.
  LabelId attribute_label = kInvalidLabel;
  /// kResultKey / kDominantFeature: the value's id in the document's value
  /// dictionary, which the instance lookup matches attributes by. An item
  /// without one (kNoValue) has no instances.
  ValueId value_id = kNoValue;
  /// kDominantFeature: DS(f, R).
  double score = 0.0;
};

/// \brief The ordered IList.
class IList {
 public:
  void Add(IListItem item) { items_.push_back(std::move(item)); }

  const std::vector<IListItem>& items() const { return items_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const IListItem& operator[](size_t i) const { return items_[i]; }

  /// "Texas, apparel, retailer, clothes, store, ..." (Figure 3).
  std::string ToString() const;

 private:
  std::vector<IListItem> items_;
};

/// \brief Assembles the IList for one query result.
///
/// Deduplication: an item whose display string equals (case-insensitively)
/// an earlier item's display is skipped — e.g. entity "retailer" duplicates
/// the keyword "retailer" in the running example, and the feature value
/// "Texas" duplicates the keyword "Texas". Entity names are added in
/// ascending lexicographic order (matching Figure 3's "clothes, store").
IList BuildIList(const IndexedDocument& doc, const Query& query,
                 NodeId result_root, const ResultKeyInfo& key,
                 const FeatureStatistics& stats,
                 const NodeClassification& classification,
                 const DominantFeatureOptions& features);

/// BuildIList with an externally supplied feature ranking (used by the
/// batch diversifier, snippet/distinguishability.h, which re-scores
/// features across all results of a query before assembly).
IList BuildIListWithFeatures(const IndexedDocument& doc, const Query& query,
                             NodeId result_root, const ResultKeyInfo& key,
                             const std::vector<RankedFeature>& features,
                             const NodeClassification& classification);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_ILIST_H_

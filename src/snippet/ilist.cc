#include "snippet/ilist.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"

namespace extract {

std::string_view IListItemKindToString(IListItemKind k) {
  switch (k) {
    case IListItemKind::kKeyword:
      return "keyword";
    case IListItemKind::kEntityName:
      return "entity";
    case IListItemKind::kResultKey:
      return "key";
    case IListItemKind::kDominantFeature:
      return "feature";
  }
  return "?";
}

std::string IList::ToString() const {
  std::string out;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += items_[i].display;
  }
  return out;
}

IList BuildIList(const IndexedDocument& doc, const Query& query,
                 NodeId result_root, const ReturnEntityInfo& return_entity,
                 const ResultKeyInfo& key, const FeatureStatistics& stats,
                 const NodeClassification& classification,
                 const DominantFeatureOptions& features) {
  return BuildIListWithFeatures(
      doc, query, result_root, return_entity, key,
      IdentifyDominantFeatures(doc, stats, features), classification);
}

IList BuildIListWithFeatures(const IndexedDocument& doc, const Query& query,
                             NodeId result_root,
                             const ReturnEntityInfo& return_entity,
                             const ResultKeyInfo& key,
                             const std::vector<RankedFeature>& features,
                             const NodeClassification& classification) {
  (void)return_entity;  // the key already reflects the return entity
  IList out;
  std::set<std::string> seen;
  auto try_add = [&](IListItem item) {
    if (seen.insert(ToLowerCopy(item.display)).second) {
      out.Add(std::move(item));
    }
  };

  // 1. Query keywords, user order, displayed as typed.
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    IListItem item;
    item.kind = IListItemKind::kKeyword;
    item.token = query.keywords[i];
    item.display = i < query.raw_keywords.size() ? query.raw_keywords[i]
                                                 : query.keywords[i];
    try_add(std::move(item));
  }

  // 2. Names of the entities appearing in the result, ascending
  //    lexicographic (Figure 3: "clothes, store").
  //    A label is named iff its entity column holds an id in the result.
  std::map<std::string, LabelId> entity_names;
  const NodeId end = doc.subtree_end(result_root);
  for (LabelId label = 0; label < classification.num_labels(); ++label) {
    if (!classification.EntitiesIn(label, result_root, end).empty()) {
      entity_names.emplace(doc.labels().Name(label), label);
    }
  }
  for (const auto& [name, label] : entity_names) {
    IListItem item;
    item.kind = IListItemKind::kEntityName;
    item.display = name;
    item.entity_label = label;
    try_add(std::move(item));
  }

  // 3. The key of the query result.
  if (key.found()) {
    IListItem item;
    item.kind = IListItemKind::kResultKey;
    item.display = key.value;
    item.entity_label = key.entity_label;
    item.attribute_label = key.attribute_label;
    item.value_id = key.value_id;
    try_add(std::move(item));
  }

  // 4. Dominant features, decreasing (possibly re-weighted) score.
  for (const RankedFeature& rf : features) {
    IListItem item;
    item.kind = IListItemKind::kDominantFeature;
    item.display = rf.feature.value;
    item.entity_label = rf.feature.type.entity_label;
    item.attribute_label = rf.feature.type.attribute_label;
    item.value_id = rf.feature.value_id;
    item.score = rf.score;
    try_add(std::move(item));
  }
  return out;
}

}  // namespace extract

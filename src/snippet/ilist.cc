#include "snippet/ilist.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string_view>

#include "common/dense_ids.h"
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

namespace {

// FNV-1a over the bytes folded as EqualsIgnoreCase folds them, so two
// displays that compare equal hash equal; the high half is folded into the
// low bits the table probes by.
uint64_t FoldedHash(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h = (h ^ static_cast<uint64_t>(std::tolower(c))) * 0x100000001b3ull;
  }
  return h ^ (h >> 32);
}

}  // namespace

IList BuildIList(const IndexedDocument& doc, const Query& query,
                 NodeId result_root, const ResultKeyInfo& key,
                 const FeatureStatistics& stats,
                 const NodeClassification& classification,
                 const DominantFeatureOptions& features) {
  return BuildIListWithFeatures(
      doc, query, result_root, key,
      IdentifyDominantFeatures(doc, stats, features), classification);
}

IList BuildIListWithFeatures(const IndexedDocument& doc, const Query& query,
                             NodeId result_root, const ResultKeyInfo& key,
                             const std::vector<RankedFeature>& features,
                             const NodeClassification& classification) {
  // Labels whose entity column holds an id in the result, the entity names.
  std::vector<LabelId> entity_labels;
  const NodeId end = doc.subtree_end(result_root);
  for (LabelId label = 0; label < classification.num_labels(); ++label) {
    if (!classification.EntitiesIn(label, result_root, end).empty()) {
      entity_labels.push_back(label);
    }
  }

  // An item's id among the displays, compared ignoring case, is its index
  // in the list: only an item with a new display is added.
  IList out;
  DenseIds displays(query.keywords.size() + entity_labels.size() + 1 +
                    features.size());
  auto try_add = [&](IListItem item) {
    const uint32_t id =
        displays.Intern(FoldedHash(item.display), [&](uint32_t kept) {
          return EqualsIgnoreCase(out[kept].display, item.display);
        });
    if (id == out.size()) out.Add(std::move(item));
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
  std::sort(entity_labels.begin(), entity_labels.end(),
            [&](LabelId a, LabelId b) {
              return doc.labels().Name(a) < doc.labels().Name(b);
            });
  for (LabelId label : entity_labels) {
    IListItem item;
    item.kind = IListItemKind::kEntityName;
    item.display = doc.labels().Name(label);
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

// Features (paper §2.3): a feature is a triplet (entity name e, attribute
// name a, attribute value v); the pair (e, a) is the feature's *type*.

#ifndef EXTRACT_SNIPPET_FEATURE_H_
#define EXTRACT_SNIPPET_FEATURE_H_

#include <compare>
#include <string>

#include "index/label_table.h"
#include "schema/node_classifier.h"

namespace extract {

/// The type of a feature: (entity label, attribute label).
struct FeatureType {
  LabelId entity_label = kInvalidLabel;
  LabelId attribute_label = kInvalidLabel;

  friend auto operator<=>(const FeatureType&, const FeatureType&) = default;
};

/// A feature (e, a, v): entity e has an attribute a with value v.
struct Feature {
  FeatureType type;
  std::string value;
  /// v's id in the document's value dictionary (NodeClassification), which
  /// the instance lookup matches attributes by.
  ValueId value_id = kNoValue;

  friend auto operator<=>(const Feature&, const Feature&) = default;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_FEATURE_H_

#include "snippet/result_key.h"

namespace extract {

ResultKeyInfo IdentifyResultKey(const IndexedDocument& doc,
                                const NodeClassification& classification,
                                const KeyIndex& keys,
                                const ReturnEntityInfo& return_entity,
                                NodeId /*result_root*/) {
  ResultKeyInfo out;
  if (!return_entity.found()) return out;
  auto key_attribute = keys.KeyAttributeOf(return_entity.label);
  if (!key_attribute.has_value()) return out;

  for (NodeId instance : return_entity.instances) {
    // The instance's first key-attribute child in document order.
    for (NodeId c : doc.children(instance)) {
      if (!doc.is_element(c) || doc.label(c) != *key_attribute) continue;
      // c's own entry in the attribute column, if c is an attribute.
      const std::span<const AttributeEntry> entry =
          classification.AttributesIn(*key_attribute, c, c + 1);
      if (entry.empty() || entry.front().value == kNoValue) continue;
      out.entity_label = return_entity.label;
      out.attribute_label = *key_attribute;
      out.value = doc.text(entry.front().text);
      out.value_id = entry.front().value;
      out.value_node = entry.front().text;
      return out;
    }
  }
  return out;
}

}  // namespace extract

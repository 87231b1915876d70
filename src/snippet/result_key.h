// Query Result Key Identifier (paper §2.2, Figure 4): the key attribute
// value of the return entity serves as the key of the query result — the
// analogue of a text document's title in its snippet.

#ifndef EXTRACT_SNIPPET_RESULT_KEY_H_
#define EXTRACT_SNIPPET_RESULT_KEY_H_

#include <string>

#include "schema/key_miner.h"
#include "snippet/return_entity.h"

namespace extract {

/// The key of one query result.
struct ResultKeyInfo {
  LabelId entity_label = kInvalidLabel;
  LabelId attribute_label = kInvalidLabel;
  /// The key value, e.g. "Brook Brothers".
  std::string value;
  /// Its id in the document's value dictionary (NodeClassification).
  ValueId value_id = kNoValue;
  /// The text node carrying the value (instance for snippet selection).
  NodeId value_node = kInvalidNode;

  bool found() const { return value_node != kInvalidNode; }
};

/// \brief Finds the key of the result rooted at `result_root`.
///
/// Uses the mined key attribute of the return entity's label and reads its
/// value off the first return-entity instance (document order) that carries
/// it; the scan stops there. The value's id and text node come from that
/// attribute's entry in the attribute column. Not found when the result has
/// no return entity, the entity label has no mined key, or no instance in
/// this result carries the key attribute with a value.
ResultKeyInfo IdentifyResultKey(const IndexedDocument& doc,
                                const NodeClassification& classification,
                                const KeyIndex& keys,
                                const ReturnEntityInfo& return_entity,
                                NodeId result_root);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_RESULT_KEY_H_

// Return Entity Identifier (paper §2.2): infer the user's search target
// among the entities of a query result.
//
// Heuristics, verbatim from the paper: "an entity in a query result is a
// return entity if its name matches a keyword or its attribute name matches
// a keyword. If there is no such entity, we use the highest entity (i.e.
// entities that do not have ancestor entities) in the query result as the
// default return entity."

#ifndef EXTRACT_SNIPPET_RETURN_ENTITY_H_
#define EXTRACT_SNIPPET_RETURN_ENTITY_H_

#include <vector>

#include "search/search_engine.h"

namespace extract {

/// How the return entity was established.
enum class ReturnEntityEvidence {
  kNameMatch,       ///< entity tag name matches a query keyword
  kAttributeMatch,  ///< one of its attributes' names matches a keyword
  kDefaultHighest,  ///< fallback: highest entity in the result
  kNone,            ///< the result contains no entity at all
};

/// The identified return entity of one query result.
struct ReturnEntityInfo {
  LabelId label = kInvalidLabel;
  /// Instances of the return entity inside the result, in document order.
  std::vector<NodeId> instances;
  ReturnEntityEvidence evidence = ReturnEntityEvidence::kNone;

  bool found() const { return label != kInvalidLabel; }
};

/// \brief Identifies the return entity of the result rooted at
/// `result_root`.
///
/// Preference order: name match, then attribute-name match, then the
/// highest entity. Ties (several matching labels) are broken toward the
/// entity highest in the tree, then document order — the entity closest to
/// the result root is the most plausible search target.
///
/// Reads each label's entity column clipped to the result's id range; only
/// the children of entity instances are visited (for attribute-name
/// evidence), and each attribute label is tested against the keywords once
/// per call.
ReturnEntityInfo IdentifyReturnEntity(const IndexedDocument& doc,
                                      const NodeClassification& classification,
                                      const Query& query, NodeId result_root);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_RETURN_ENTITY_H_

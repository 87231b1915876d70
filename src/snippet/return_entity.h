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
ReturnEntityInfo IdentifyReturnEntity(const IndexedDocument& doc,
                                      const NodeClassification& classification,
                                      const Query& query, NodeId result_root);

/// \brief Partition-parallel variant: scans the result's node interval as
/// one ParallelFor reduction over `slices` (the result interval clipped
/// against the document's partition grid, IndexPartitions::Clip — computed
/// once by the caller and shared across scans), then merges the per-slice
/// label aggregates in slice order (instances concatenate back into
/// document order; depths take the min; evidence bits OR together).
///
/// Byte-identical to the sequential scan for every grid and thread count.
/// Falls back to it for a single slice or `num_threads == 1`.
ReturnEntityInfo IdentifyReturnEntity(const IndexedDocument& doc,
                                      const NodeClassification& classification,
                                      const Query& query, NodeId result_root,
                                      const std::vector<NodeRange>& slices,
                                      size_t num_threads);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_RETURN_ENTITY_H_

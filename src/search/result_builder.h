// Materialization of query results: turning result views (pre-order
// intervals of the IndexedDocument) back into DOM trees for display,
// serialization or feeding to external tools.

#ifndef EXTRACT_SEARCH_RESULT_BUILDER_H_
#define EXTRACT_SEARCH_RESULT_BUILDER_H_

#include <memory>

#include "search/search_engine.h"
#include "xml/dom.h"

namespace extract {

/// Materializes the full subtree of `db` rooted at `root` as a DOM tree.
std::unique_ptr<XmlNode> MaterializeSubtree(const IndexedDocument& doc,
                                            NodeId root);

/// Materializes a query result (its whole subtree).
std::unique_ptr<XmlNode> MaterializeResult(const XmlDatabase& db,
                                           const QueryResult& result);

/// \brief Materializes the *partial* subtree of `doc` induced by `nodes`:
/// the tree containing exactly the ids in `nodes` (which must be closed
/// under parents within the subtree of `root`, root included). This is how
/// snippets are turned into trees.
std::unique_ptr<XmlNode> MaterializeInducedTree(
    const IndexedDocument& doc, NodeId root, const std::vector<NodeId>& nodes);

}  // namespace extract

#endif  // EXTRACT_SEARCH_RESULT_BUILDER_H_

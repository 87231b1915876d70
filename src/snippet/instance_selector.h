// Instance Selector (paper §2.4): pack as many IList items as possible into
// a snippet tree of at most B edges by choosing, for each item, which of its
// instances (occurrences in the query result) to include.
//
// The snippet tree is a connected subtree of the query result containing the
// result root; adding an instance adds the edges of the path from it up to
// the nearest node already in the tree. Maximizing the number of covered
// items under the edge budget is NP-hard (the paper proves it by reduction;
// intuitively it embeds a group Steiner / maximum-coverage structure), so
// eXtract uses a greedy strategy; an exact branch-and-bound solver is
// provided for small inputs to measure the greedy's approximation quality
// (experiment E10).

#ifndef EXTRACT_SNIPPET_INSTANCE_SELECTOR_H_
#define EXTRACT_SNIPPET_INSTANCE_SELECTOR_H_

#include <cstddef>
#include <vector>

#include "index/indexed_document.h"
#include "snippet/ilist.h"

namespace extract {

/// The candidate instances of one IList item inside one query result: node
/// ids whose inclusion in the snippet covers the item. For value-bearing
/// items (keywords matched in text, keys, features) the instance is the
/// text node, so selecting it also shows the value; for tag matches and
/// entity names it is the element node itself.
struct ItemInstances {
  std::vector<NodeId> nodes;  ///< ascending document order
};

/// \brief Finds the instances of every IList item in the subtree rooted at
/// `result_root`. Output is parallel to `ilist.items()`. A keyword item
/// matches an element whose tag name, or a text node whose text, holds its
/// case-folded token (ContainsToken) — the matching the inverted index
/// uses; an empty token matches nothing.
///
/// No lookup walks the result: keyword items read the token's posting list,
/// entity names the label's entity column and keys and features the
/// attribute column (NodeClassification), each clipped to the result's id
/// range [result_root, subtree_end(result_root)) by binary search. A key or
/// feature item matches an attribute by value id (IListItem::value_id) and
/// entity label, with no string compare; an item without an id has no
/// instances.
std::vector<ItemInstances> FindItemInstances(const XmlDatabase& db,
                                             NodeId result_root,
                                             const IList& ilist);

/// The outcome of instance selection.
struct Selection {
  /// Selected node ids (closed under parents, includes the result root),
  /// ascending document order.
  std::vector<NodeId> nodes;
  /// covered[i] == IList item i is contained in the snippet.
  std::vector<bool> covered;

  /// Edges of the snippet tree.
  size_t edges() const { return nodes.empty() ? 0 : nodes.size() - 1; }
  /// Number of covered items.
  size_t covered_count() const;
};

/// \brief The paper's greedy algorithm.
///
/// Processes items in IList rank order; for each item picks the instance
/// with the smallest marginal cost (new edges needed to connect it to the
/// current tree, counting the instance's own path-to-tree; ties broken
/// toward document order) and accepts it if the tree then has at most
/// `size_bound` edges. An item that does not fit is skipped, and cheaper
/// lower-ranked items are still tried. O(Σ instances × depth).
Selection SelectInstancesGreedy(const IndexedDocument& doc, NodeId result_root,
                                const std::vector<ItemInstances>& instances,
                                size_t size_bound);

/// \brief Exact maximum coverage by branch-and-bound (small inputs only —
/// the problem is NP-hard; practical for ~12 items with a handful of
/// instances each). Maximizes covered count under at most `size_bound`
/// edges; ties prefer fewer edges, then covering higher-ranked items.
Selection SelectInstancesExact(const IndexedDocument& doc, NodeId result_root,
                               const std::vector<ItemInstances>& instances,
                               size_t size_bound);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_INSTANCE_SELECTOR_H_

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
//
// The greedy's work follows the edge budget rather than the result: the
// serving stage (SelectInstances) lists an item's instances only while the
// budget can still pay for one, walks each toward the tree only as far as
// it could still win and fit, and once the tree is full decides each
// remaining item by testing the tree's members against it.

#ifndef EXTRACT_SNIPPET_INSTANCE_SELECTOR_H_
#define EXTRACT_SNIPPET_INSTANCE_SELECTOR_H_

#include <cstddef>
#include <span>
#include <string>
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

/// \brief The instances of one IList item inside the result rooted at
/// `result_root`, read from the database's columns. It answers two
/// questions, the item's instances and whether a node is one of them, from
/// the same reads, so the two cannot disagree.
///
/// A keyword item matches an element whose tag name, or a text node whose
/// text, holds its case-folded token (ContainsToken) — the matching the
/// inverted index uses; an empty token matches nothing.
///
/// No lookup walks the result: keyword items read the token's posting list,
/// entity names the label's entity column and keys and features the
/// attribute column (NodeClassification), each clipped to the result's id
/// range [result_root, subtree_end(result_root)) by binary search. A key or
/// feature item matches an attribute by value id (IListItem::value_id) and
/// entity label, with no string compare; an item without an id has no
/// instances.
class ItemInstanceLookup {
 public:
  /// `db` and `item` must outlive the lookup.
  ItemInstanceLookup(const XmlDatabase& db, NodeId result_root,
                     const IListItem& item);

  /// The item's instances in ascending document order: a view of the
  /// entity column for an entity name, else of `scratch`, which it
  /// overwrites.
  std::span<const NodeId> Instances(std::vector<NodeId>& scratch) const;

  /// True iff `n`, a node of the result, is one of the item's instances.
  /// A keyword instance is an element whose posting has the kTagName bit,
  /// or a text node whose parent's posting has the kTextValue bit and whose
  /// text holds the token; an entity-name instance is an entity labelled
  /// the item's label; a key or feature instance is the text of an
  /// attribute entry (found by binary search) with the item's value id and
  /// entity label.
  bool IsInstance(NodeId n) const;

 private:
  const XmlDatabase& db_;
  const IListItem& item_;
  NodeId root_;
  /// kKeyword: the case-folded token and its postings inside the result.
  std::string token_;
  std::span<const NodeId> posting_nodes_;
  std::span<const PostingSource> posting_sources_;
  /// kEntityName: the entity column inside the result.
  std::span<const NodeId> entities_;
  /// kResultKey / kDominantFeature: the attribute column inside the result.
  std::span<const AttributeEntry> attributes_;
};

/// \brief The instances of every IList item in the subtree rooted at
/// `result_root`, one ItemInstanceLookup per item. Output is parallel to
/// `ilist.items()`.
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

/// \brief The paper's greedy algorithm over explicit instance lists.
///
/// Processes items in IList rank order; for each item picks the instance
/// with the smallest marginal cost (new edges needed to connect it to the
/// current tree, counting the instance's own path-to-tree; ties broken
/// toward document order) and accepts it if the tree then has at most
/// `size_bound` edges. An item that does not fit is skipped, and cheaper
/// lower-ranked items are still tried.
///
/// The budget bounds the work. An instance's walk toward the tree stops
/// once it can neither beat the item's best instance so far nor fit, so
/// each walk is at most `size_bound` - edges + 1 steps. Once the tree holds
/// `size_bound` edges it cannot change (only an instance already in it
/// still fits, and committing it adds nothing), so each remaining item is
/// covered iff one of its instances is a member. Cost: O(Σ instances ×
/// min(depth, size_bound)) while the budget is open, then O(instances) per
/// remaining item.
Selection SelectInstancesGreedy(const IndexedDocument& doc, NodeId result_root,
                                const std::vector<ItemInstances>& instances,
                                size_t size_bound);

/// \brief The same greedy over the database's columns — the
/// instance-selection stage. Lists an item's instances
/// (ItemInstanceLookup::Instances) only while the budget is open; once the
/// tree is full, tests its at most `size_bound` + 1 members against each
/// remaining item (ItemInstanceLookup::IsInstance) instead. Selects exactly
/// what SelectInstancesGreedy selects over FindItemInstances' lists.
Selection SelectInstances(const XmlDatabase& db, NodeId result_root,
                          const IList& ilist, size_t size_bound);

/// \brief Exact maximum coverage by branch-and-bound (small inputs only —
/// the problem is NP-hard; practical for ~12 items with a handful of
/// instances each). Maximizes covered count under at most `size_bound`
/// edges; ties prefer fewer edges, then covering higher-ranked items.
Selection SelectInstancesExact(const IndexedDocument& doc, NodeId result_root,
                               const std::vector<ItemInstances>& instances,
                               size_t size_bound);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_INSTANCE_SELECTOR_H_

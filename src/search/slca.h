// Smallest Lowest Common Ancestor (SLCA) computation — the query semantics
// of XKSearch ([7] in the paper), used as the substrate of our XSeek-lite
// search engine.
//
// Given one posting list per keyword (element ids in document order), the
// SLCA set is { lca(v1..vk) | vi ∈ Si } minus nodes that are ancestors of
// other members: the *smallest* subtrees containing every keyword.
//
// Two implementations:
//   * ComputeSlcaIndexedLookupEager — the XKSearch ILE algorithm, driven by
//     the shortest list with binary searches into the others;
//     O(|S1| · k · log|Smax| · depth).
//   * ComputeSlcaBySubtreeCounts — a scan baseline that counts keyword
//     containment per subtree over pre-order intervals; O(N·k + Σ|Si|).
//     Obviously correct; used as the test oracle and the bench baseline.

#ifndef EXTRACT_SEARCH_SLCA_H_
#define EXTRACT_SEARCH_SLCA_H_

#include <vector>

#include "index/indexed_document.h"
#include "index/inverted_index.h"

namespace extract {

/// XKSearch Indexed Lookup Eager. `lists` must be non-empty and each list
/// non-empty and sorted ascending; returns SLCAs in document order.
std::vector<NodeId> ComputeSlcaIndexedLookupEager(
    const IndexedDocument& doc, const std::vector<const PostingList*>& lists);

/// Index of the list ComputeSlcaIndexedLookupEager drives from: the
/// shortest, the first of equal length. Every SLCA is an ancestor-or-self
/// of one of its postings. `lists` must be non-empty, with no null entry.
size_t ShortestList(const std::vector<const PostingList*>& lists);

/// Scan/counting baseline (test oracle). Same contract as above.
std::vector<NodeId> ComputeSlcaBySubtreeCounts(
    const IndexedDocument& doc, const std::vector<const PostingList*>& lists);

/// \brief Removes members that are ancestors of other members.
///
/// `nodes` must be sorted in document order; returns the minimal (deepest)
/// antichain, preserving order.
std::vector<NodeId> RemoveAncestors(const IndexedDocument& doc,
                                    const std::vector<NodeId>& nodes);

}  // namespace extract

#endif  // EXTRACT_SEARCH_SLCA_H_

#include "search/slca.h"

#include <algorithm>
#include <cassert>

namespace extract {

namespace {

// The node in `list` closest to v from the left (<= v), or kInvalidNode.
NodeId LeftMatch(const PostingList& list, NodeId v) {
  auto it = std::upper_bound(list.nodes.begin(), list.nodes.end(), v);
  if (it == list.nodes.begin()) return kInvalidNode;
  return *(it - 1);
}

// The node in `list` closest to v from the right (>= v), or kInvalidNode.
NodeId RightMatch(const PostingList& list, NodeId v) {
  auto it = std::lower_bound(list.nodes.begin(), list.nodes.end(), v);
  if (it == list.nodes.end()) return kInvalidNode;
  return *it;
}

// The candidate SLCA for one driving posting v: incrementally tighten x =
// the deepest node that is an LCA of v with one match from every other list
// (XKSearch's closest-match argument: the SLCA containing v is reachable
// through left/right matches).
NodeId CandidateSlcaFor(const IndexedDocument& doc,
                        const std::vector<const PostingList*>& lists,
                        size_t shortest, NodeId v) {
  NodeId x = v;
  for (size_t i = 0; i < lists.size(); ++i) {
    if (i == shortest) continue;
    NodeId lm = LeftMatch(*lists[i], x);
    NodeId rm = RightMatch(*lists[i], x);
    NodeId left_lca =
        lm == kInvalidNode ? kInvalidNode : doc.LowestCommonAncestor(x, lm);
    NodeId right_lca =
        rm == kInvalidNode ? kInvalidNode : doc.LowestCommonAncestor(x, rm);
    NodeId next;
    if (left_lca == kInvalidNode) {
      next = right_lca;
    } else if (right_lca == kInvalidNode) {
      next = left_lca;
    } else {
      // Both are ancestors-or-self of x, hence comparable; keep the deeper.
      next = doc.depth(left_lca) >= doc.depth(right_lca) ? left_lca : right_lca;
    }
    assert(next != kInvalidNode);  // all lists non-empty
    x = next;
  }
  return x;
}

}  // namespace

size_t ShortestList(const std::vector<const PostingList*>& lists) {
  size_t shortest = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i]->size() < lists[shortest]->size()) shortest = i;
  }
  return shortest;
}

std::vector<NodeId> RemoveAncestors(const IndexedDocument& doc,
                                    const std::vector<NodeId>& nodes) {
  std::vector<NodeId> out;
  for (NodeId n : nodes) {
    if (!out.empty() && out.back() == n) continue;
    while (!out.empty() && doc.IsAncestor(out.back(), n)) out.pop_back();
    // n cannot be an ancestor of out.back(): document order puts ancestors
    // first, so once a descendant is emitted its ancestors never follow.
    out.push_back(n);
  }
  return out;
}

std::vector<NodeId> ComputeSlcaIndexedLookupEager(
    const IndexedDocument& doc, const std::vector<const PostingList*>& lists) {
  assert(!lists.empty());
  for (const PostingList* list : lists) {
    if (list == nullptr || list->empty()) return {};
  }
  // Drive from the shortest list.
  const size_t shortest = ShortestList(lists);
  std::vector<NodeId> candidates;
  candidates.reserve(lists[shortest]->size());
  for (NodeId v : lists[shortest]->nodes) {
    candidates.push_back(CandidateSlcaFor(doc, lists, shortest, v));
  }
  std::sort(candidates.begin(), candidates.end());
  return RemoveAncestors(doc, candidates);
}

std::vector<NodeId> ComputeSlcaBySubtreeCounts(
    const IndexedDocument& doc, const std::vector<const PostingList*>& lists) {
  assert(!lists.empty());
  for (const PostingList* list : lists) {
    if (list == nullptr || list->empty()) return {};
  }
  const size_t n = doc.num_nodes();
  const size_t k = lists.size();
  // contains[i*k + j] == node i's subtree contains keyword j. Computed by
  // marking posting nodes then propagating to ancestors (children first:
  // iterate ids descending, push to parent).
  std::vector<uint8_t> contains(n * k, 0);
  for (size_t j = 0; j < k; ++j) {
    for (NodeId v : lists[j]->nodes) {
      contains[static_cast<size_t>(v) * k + j] = 1;
    }
  }
  for (size_t i = n; i-- > 1;) {
    NodeId parent = doc.parent(static_cast<NodeId>(i));
    for (size_t j = 0; j < k; ++j) {
      if (contains[i * k + j]) {
        contains[static_cast<size_t>(parent) * k + j] = 1;
      }
    }
  }
  std::vector<NodeId> all;
  for (size_t i = 0; i < n; ++i) {
    bool has_all = true;
    for (size_t j = 0; j < k; ++j) {
      if (!contains[i * k + j]) {
        has_all = false;
        break;
      }
    }
    if (has_all) all.push_back(static_cast<NodeId>(i));
  }
  return RemoveAncestors(doc, all);
}

}  // namespace extract

// Incremental snippet tree membership for the instance selectors (§2.4):
// the set of selected node ids, closed under parents and seeded with the
// result root, supporting "cost to connect" and "connect" in O(path
// length).
//
// This is the measured hot path of greedy selection (BENCH_e7.json /
// BENCH_e10.json), so membership is not a hash set: node ids inside one
// result subtree form the dense pre-order interval [root, subtree_end), and
// the set is an epoch-stamped flat array indexed by (id - root). Every
// operation the selectors need is branch-light:
//
//   * Contains / ConnectCostWithin / Connect — one array load per node,
//     no hashing, and no path built; ConnectCostWithin stops walking once
//     the cost passes a limit, which is what bounds the selectors' walks
//     by the edge budget;
//   * Reset — O(1) amortized: bumping the epoch invalidates every stamp at
//     once, so a reused set (the greedy selector keeps one per thread)
//     never re-zeroes the array;
//   * Mark / RollbackTo — the insertion-ordered member list doubles as an
//     undo log, which is what lets the exact branch-and-bound solver
//     backtrack without copying the whole tree at every branch.

#ifndef EXTRACT_SNIPPET_SNIPPET_TREE_SET_H_
#define EXTRACT_SNIPPET_SNIPPET_TREE_SET_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "index/indexed_document.h"

namespace extract {

/// \brief Membership set of the snippet tree under construction. One
/// instance per selection run (not thread-safe); reusable via Reset.
class SnippetTreeSet {
 public:
  SnippetTreeSet() = default;
  SnippetTreeSet(const IndexedDocument& doc, NodeId root) { Reset(doc, root); }

  /// Re-seeds the set with `root` inside `doc`'s result subtree. Reuses the
  /// stamp buffer of earlier selections (growing it if this subtree spans
  /// further), so repeated selections cost O(1) setup, not O(subtree).
  void Reset(const IndexedDocument& doc, NodeId root) {
    doc_ = &doc;
    root_ = root;
    end_ = doc.subtree_end(root);
    const size_t span = static_cast<size_t>(end_ - root_);
    // Long-lived sets (the greedy selector keeps one per pool thread, and
    // pool threads live for the process) must not pin the largest span
    // ever seen: give the buffer back once the working span is far below
    // it. Fresh zeros are valid for any epoch >= 1, so epoch_ carries on.
    if (stamp_.size() > kShrinkThresholdEntries && span < stamp_.size() / 4) {
      std::vector<uint32_t>(span, 0).swap(stamp_);
    } else if (stamp_.size() < span) {
      stamp_.resize(span, 0);
    }
    if (++epoch_ == 0) {  // wrapped: every stale stamp could now collide
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    members_.clear();
    stamp_[0] = epoch_;
    members_.push_back(root_);
  }

  bool Contains(NodeId n) const {
    assert(doc_ != nullptr && n >= root_ && n < end_ &&
           "node outside the result subtree");
    return stamp_[static_cast<size_t>(n - root_)] == epoch_;
  }

  /// Number of new edges needed to include `n` (n and its not-yet-selected
  /// ancestors), walking at most `limit` + 1 nodes: the cost if it is at
  /// most `limit`, else `limit` + 1. Requires n to be in the result
  /// subtree.
  size_t ConnectCostWithin(NodeId n, size_t limit) const {
    size_t cost = 0;
    for (NodeId cur = n; !Contains(cur); cur = doc_->parent(cur)) {
      if (cost++ == limit) break;
    }
    return cost;
  }

  /// Adds `n` and its not-yet-selected ancestors (nothing if `n` is
  /// already a member).
  void Connect(NodeId n) {
    for (NodeId cur = n; !Contains(cur); cur = doc_->parent(cur)) {
      stamp_[static_cast<size_t>(cur - root_)] = epoch_;
      members_.push_back(cur);
    }
  }

  /// Checkpoint for RollbackTo. Only additions can happen in between.
  size_t Mark() const { return members_.size(); }

  /// Undoes every Connect since `mark` was taken (the member list is the
  /// undo log: Connect only appends).
  void RollbackTo(size_t mark) {
    assert(mark >= 1 && mark <= members_.size() && "invalid rollback mark");
    while (members_.size() > mark) {
      stamp_[static_cast<size_t>(members_.back() - root_)] = 0;
      members_.pop_back();
    }
  }

  /// Members in ascending document order.
  std::vector<NodeId> SortedMembers() const {
    std::vector<NodeId> out(members_.begin(), members_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Members in insertion order, the root first.
  std::span<const NodeId> members() const { return members_; }

  size_t size() const { return members_.size(); }
  size_t edges() const { return members_.size() - 1; }
  NodeId root() const { return root_; }

 private:
  /// 4 MiB of stamps: below this, buffer retention is noise; above it,
  /// Reset trades one allocation for not pinning peak-result memory on
  /// every pool thread forever.
  static constexpr size_t kShrinkThresholdEntries = 1u << 20;

  const IndexedDocument* doc_ = nullptr;
  NodeId root_ = kInvalidNode;
  NodeId end_ = kInvalidNode;
  /// stamp_[n - root_] == epoch_ <=> n is a member. Stale epochs are
  /// semantically "absent", so Reset never clears the array.
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  /// Insertion-ordered members; doubles as the undo log for RollbackTo.
  std::vector<NodeId> members_;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_TREE_SET_H_

// Pins SnippetTreeSet semantics across the hot-path rewrite: the
// epoch-stamped flat-array implementation must behave exactly like the
// original unordered_set-based tree set (kept here as the reference model)
// for every operation the selectors perform — ConnectCostWithin (the
// reference's ConnectCost, capped), Connect (its Commit of that path),
// Contains, SortedMembers and members() — plus the Mark/RollbackTo undo log
// that replaced whole-tree copies in the exact solver, and the epoch-based
// Reset that lets one set be reused across selections.

#include "snippet/snippet_tree_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "search/search_engine.h"

namespace extract {
namespace {

// The pre-rewrite implementation, verbatim: the reference model.
class ReferenceTreeSet {
 public:
  ReferenceTreeSet(const IndexedDocument& doc, NodeId root)
      : doc_(&doc), root_(root) {
    members_.insert(root);
  }

  size_t ConnectCost(NodeId n, std::vector<NodeId>* path) const {
    path->clear();
    NodeId cur = n;
    while (members_.find(cur) == members_.end()) {
      path->push_back(cur);
      cur = doc_->parent(cur);
    }
    return path->size();
  }

  void Commit(const std::vector<NodeId>& path) {
    members_.insert(path.begin(), path.end());
  }

  bool Contains(NodeId n) const { return members_.count(n) > 0; }

  std::vector<NodeId> SortedMembers() const {
    std::vector<NodeId> out(members_.begin(), members_.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  size_t edges() const { return members_.size() - 1; }

 private:
  const IndexedDocument* doc_;
  NodeId root_;
  std::unordered_set<NodeId> members_;
};

XmlDatabase RandomTree(uint64_t seed) {
  Rng rng(seed);
  std::string xml;
  std::function<void(int)> gen = [&](int depth) {
    std::string tag = "t" + std::to_string(rng.Uniform(4));
    xml += "<" + tag + ">";
    size_t kids = depth > 0 ? rng.Uniform(3) + (depth > 2 ? 1 : 0) : 0;
    for (size_t i = 0; i < kids; ++i) gen(depth - 1);
    if (kids == 0) xml += "v" + std::to_string(rng.Uniform(6));
    xml += "</" + tag + ">";
  };
  gen(5);
  auto db = XmlDatabase::Load(xml);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

void ExpectSameState(const ReferenceTreeSet& reference,
                     const SnippetTreeSet& actual, const std::string& label) {
  EXPECT_EQ(reference.edges(), actual.edges()) << label;
  EXPECT_EQ(reference.SortedMembers(), actual.SortedMembers()) << label;
}

TEST(SnippetTreeSetTest, MatchesReferenceOnRandomizedOperations) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    XmlDatabase db = RandomTree(seed);
    const IndexedDocument& doc = db.index();
    Rng rng(seed * 977);
    const NodeId root = 0;
    ReferenceTreeSet reference(doc, root);
    SnippetTreeSet actual(doc, root);

    std::vector<NodeId> path;
    std::vector<NodeId> inserted = {root};
    for (int op = 0; op < 200; ++op) {
      NodeId n = static_cast<NodeId>(rng.Uniform(doc.num_nodes()));
      EXPECT_EQ(reference.Contains(n), actual.Contains(n)) << "node " << n;
      // ConnectCostWithin is the reference cost capped at limit + 1.
      const size_t cost = reference.ConnectCost(n, &path);
      for (size_t limit = 0; limit <= cost + 1; ++limit) {
        EXPECT_EQ(actual.ConnectCostWithin(n, limit),
                  std::min(cost, limit + 1))
            << "node " << n << " limit " << limit;
      }
      if (rng.Uniform(2) == 0) {
        reference.Commit(path);
        actual.Connect(n);
        inserted.insert(inserted.end(), path.begin(), path.end());
      }
      if (op % 17 == 0) {
        ExpectSameState(reference, actual,
                        "seed " + std::to_string(seed) + " op " +
                            std::to_string(op));
      }
    }
    ExpectSameState(reference, actual, "seed " + std::to_string(seed));
    // Connect appends the reference's path, in walk order.
    EXPECT_EQ(
        std::vector<NodeId>(actual.members().begin(), actual.members().end()),
        inserted);
  }
}

TEST(SnippetTreeSetTest, RollbackRestoresTheMarkedState) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    XmlDatabase db = RandomTree(seed);
    const IndexedDocument& doc = db.index();
    Rng rng(seed * 31 + 7);
    SnippetTreeSet tree(doc, 0);

    // Grow a base tree.
    for (int i = 0; i < 5; ++i) {
      tree.Connect(static_cast<NodeId>(rng.Uniform(doc.num_nodes())));
    }
    const std::vector<NodeId> base_members = tree.SortedMembers();
    const size_t base_edges = tree.edges();

    // Branch-and-bound style: speculatively commit a few paths (nested
    // marks), then unwind, exactly as the exact solver backtracks.
    const size_t outer = tree.Mark();
    for (int branch = 0; branch < 8; ++branch) {
      const size_t mark = tree.Mark();
      for (int i = 0; i < 3; ++i) {
        tree.Connect(static_cast<NodeId>(rng.Uniform(doc.num_nodes())));
      }
      tree.RollbackTo(mark);
    }
    tree.RollbackTo(outer);  // no-op: nothing outstanding
    EXPECT_EQ(tree.SortedMembers(), base_members);
    EXPECT_EQ(tree.edges(), base_edges);

    // After rollback the set must still behave correctly (stamps cleared,
    // not just the member list truncated).
    ReferenceTreeSet reference(doc, 0);
    std::vector<NodeId> ref_path;
    for (NodeId n : base_members) {
      reference.ConnectCost(n, &ref_path);
      reference.Commit(ref_path);
    }
    for (NodeId n = 0; n < static_cast<NodeId>(doc.num_nodes()); ++n) {
      EXPECT_EQ(reference.Contains(n), tree.Contains(n)) << "node " << n;
    }
  }
}

TEST(SnippetTreeSetTest, ResetReusesTheSetAcrossDocumentsAndRoots) {
  // One long-lived set Reset across many (document, root) pairs — the
  // greedy selector's per-thread reuse pattern — must match a fresh
  // reference every time. This is what exercises the epoch stamping: stale
  // stamps from earlier selections must never leak into later ones.
  SnippetTreeSet reused;
  std::vector<NodeId> ref_path;
  for (uint64_t round = 1; round <= 30; ++round) {
    XmlDatabase db = RandomTree(round % 7 + 1);
    const IndexedDocument& doc = db.index();
    Rng rng(round * 131);
    NodeId root = static_cast<NodeId>(rng.Uniform(doc.num_nodes()));
    while (!doc.is_element(root)) {
      root = static_cast<NodeId>(rng.Uniform(doc.num_nodes()));
    }
    reused.Reset(doc, root);
    ReferenceTreeSet reference(doc, root);
    const NodeId end = doc.subtree_end(root);
    for (int op = 0; op < 40; ++op) {
      NodeId n = root + static_cast<NodeId>(rng.Uniform(
                            static_cast<size_t>(end - root)));
      const size_t cost = reference.ConnectCost(n, &ref_path);
      EXPECT_EQ(reused.ConnectCostWithin(n, cost), cost);
      if (rng.Uniform(3) != 0) {
        reference.Commit(ref_path);
        reused.Connect(n);
      }
    }
    EXPECT_EQ(reference.SortedMembers(), reused.SortedMembers())
        << "round " << round;
  }
}

TEST(SnippetTreeSetTest, ConnectingAMemberAddsNothing) {
  XmlDatabase db = RandomTree(3);
  const IndexedDocument& doc = db.index();
  SnippetTreeSet tree(doc, 0);
  const NodeId last = static_cast<NodeId>(doc.num_nodes() - 1);
  tree.Connect(last);
  const size_t edges = tree.edges();
  EXPECT_EQ(tree.ConnectCostWithin(last, 0), 0u);
  tree.Connect(last);  // connecting a member again must not double-count
  EXPECT_EQ(tree.edges(), edges);
}

}  // namespace
}  // namespace extract

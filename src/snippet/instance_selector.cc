#include "snippet/instance_selector.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "snippet/snippet_tree_set.h"

namespace extract {

size_t Selection::covered_count() const {
  return static_cast<size_t>(std::count(covered.begin(), covered.end(), true));
}

namespace {

/// The case-folded token of every keyword item, parallel to ilist.items()
/// ("" for the other kinds).
std::vector<std::string> KeywordTokens(const IList& ilist) {
  std::vector<std::string> tokens(ilist.size());
  for (size_t i = 0; i < ilist.size(); ++i) {
    if (ilist[i].kind == IListItemKind::kKeyword) {
      tokens[i] = ToLowerCopy(ilist[i].token);
    }
  }
  return tokens;
}

// One slice of the instance scan: matches node ids in [scan_begin,
// scan_end) against every IList item, appending to `out` (parallel to
// ilist.items()). Attribution walks (entity ancestors, text owners) may
// read outside the slice; each node is matched by exactly one slice of a
// disjoint cover, so concatenating slice outputs in slice order reproduces
// the whole-interval scan.
void ScanInstanceRange(const IndexedDocument& doc,
                       const NodeClassification& classification,
                       NodeId result_root, const IList& ilist,
                       const std::vector<std::string>& tokens,
                       NodeId scan_begin, NodeId scan_end,
                       std::vector<ItemInstances>& out) {
  // Nearest entity ancestor cache (within the result) for feature matching.
  // Computed lazily per attribute node encountered.
  auto nearest_entity_label = [&](NodeId n) -> LabelId {
    for (NodeId cur = doc.parent(n);
         cur != kInvalidNode && doc.IsAncestorOrSelf(result_root, cur);
         cur = doc.parent(cur)) {
      if (classification.IsEntity(cur)) return doc.label(cur);
    }
    return doc.label(result_root);
  };

  for (NodeId id = scan_begin; id < scan_end; ++id) {
    if (doc.is_element(id)) {
      for (size_t i = 0; i < ilist.size(); ++i) {
        const IListItem& item = ilist[i];
        switch (item.kind) {
          case IListItemKind::kKeyword:
            if (!tokens[i].empty() &&
                ContainsToken(doc.label_name(id), tokens[i])) {
              out[i].nodes.push_back(id);
            }
            break;
          case IListItemKind::kEntityName:
            if (classification.IsEntity(id) && doc.label(id) == item.entity_label) {
              out[i].nodes.push_back(id);
            }
            break;
          case IListItemKind::kResultKey:
          case IListItemKind::kDominantFeature:
            break;  // matched on text nodes below
        }
      }
    } else {
      // Text node: keyword value matches and feature/key value matches.
      NodeId owner = doc.parent(id);
      for (size_t i = 0; i < ilist.size(); ++i) {
        const IListItem& item = ilist[i];
        switch (item.kind) {
          case IListItemKind::kKeyword:
            if (!tokens[i].empty() && ContainsToken(doc.text(id), tokens[i])) {
              out[i].nodes.push_back(id);
            }
            break;
          case IListItemKind::kEntityName:
            break;
          case IListItemKind::kResultKey:
          case IListItemKind::kDominantFeature: {
            if (doc.text(id) != item.value) break;
            if (owner == kInvalidNode || !doc.is_element(owner)) break;
            if (doc.label(owner) != item.attribute_label) break;
            if (!classification.IsAttribute(owner)) break;
            if (nearest_entity_label(owner) != item.entity_label) break;
            out[i].nodes.push_back(id);
            break;
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<ItemInstances> FindItemInstances(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId result_root, const IList& ilist) {
  std::vector<ItemInstances> out(ilist.size());
  ScanInstanceRange(doc, classification, result_root, ilist,
                    KeywordTokens(ilist), result_root,
                    doc.subtree_end(result_root), out);
  return out;
}

std::vector<ItemInstances> FindItemInstancesPartitioned(
    const IndexedDocument& doc, const NodeClassification& classification,
    NodeId result_root, const IList& ilist,
    const std::vector<NodeRange>& slices, size_t num_threads) {
  if (slices.size() <= 1 || num_threads == 1) {
    return FindItemInstances(doc, classification, result_root, ilist);
  }
  const std::vector<std::string> tokens = KeywordTokens(ilist);
  std::vector<std::vector<ItemInstances>> partials(
      slices.size(), std::vector<ItemInstances>(ilist.size()));
  ParallelFor(slices.size(), num_threads, [&](size_t s) {
    ScanInstanceRange(doc, classification, result_root, ilist, tokens,
                      slices[s].begin, slices[s].end, partials[s]);
  });
  // Slice order is document order, so per-item concatenation keeps every
  // instance list ascending — identical to the sequential scan.
  std::vector<ItemInstances> out = std::move(partials[0]);
  for (size_t s = 1; s < partials.size(); ++s) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].nodes.insert(out[i].nodes.end(), partials[s][i].nodes.begin(),
                          partials[s][i].nodes.end());
    }
  }
  return out;
}

Selection SelectInstancesGreedy(const IndexedDocument& doc, NodeId result_root,
                                const std::vector<ItemInstances>& instances,
                                size_t size_bound) {
  // One tree set per thread, reused across selections: Reset is O(1) via
  // the epoch stamp, so a batch generating thousands of snippets allocates
  // the membership array once per worker instead of once per result.
  static thread_local SnippetTreeSet tree;
  tree.Reset(doc, result_root);

  Selection selection;
  selection.covered.assign(instances.size(), false);
  std::vector<NodeId> path;
  std::vector<NodeId> best_path;
  for (size_t i = 0; i < instances.size(); ++i) {
    size_t best_cost = SIZE_MAX;
    best_path.clear();
    for (NodeId inst : instances[i].nodes) {
      size_t cost = tree.ConnectCost(inst, &path);
      if (cost < best_cost) {  // ties: first in document order wins
        best_cost = cost;
        best_path = path;
        if (cost == 0) break;  // cannot do better
      }
    }
    if (best_cost == SIZE_MAX) continue;  // items without instances are skipped
    if (tree.edges() + best_cost <= size_bound) {
      tree.Commit(best_path);
      selection.covered[i] = true;
    }
  }
  selection.nodes = tree.SortedMembers();
  return selection;
}

namespace {

// Branch-and-bound state for the exact solver.
struct ExactSearch {
  const IndexedDocument& doc;
  NodeId root;
  const std::vector<ItemInstances>& instances;
  size_t bound;

  // Best solution so far.
  size_t best_count = 0;
  size_t best_edges = SIZE_MAX;
  std::vector<bool> best_covered;
  std::vector<NodeId> best_nodes;

  // Current partial solution.
  SnippetTreeSet tree;
  std::vector<bool> covered;

  ExactSearch(const IndexedDocument& d, NodeId r,
              const std::vector<ItemInstances>& inst, size_t b)
      : doc(d), root(r), instances(inst), bound(b), tree(d, r) {
    covered.assign(inst.size(), false);
  }

  // Lexicographic preference for tie-breaking on equal coverage count and
  // edges: covering higher-ranked items is better.
  bool CoveredBetterOnTie() const {
    for (size_t i = 0; i < covered.size(); ++i) {
      if (covered[i] != best_covered[i]) return covered[i];
    }
    return false;
  }

  void MaybeUpdateBest() {
    size_t count = static_cast<size_t>(
        std::count(covered.begin(), covered.end(), true));
    size_t edges = tree.edges();
    bool better = false;
    if (count > best_count) {
      better = true;
    } else if (count == best_count) {
      if (edges < best_edges) {
        better = true;
      } else if (edges == best_edges && !best_covered.empty() &&
                 CoveredBetterOnTie()) {
        better = true;
      }
    }
    if (better || best_covered.empty()) {
      best_count = count;
      best_edges = edges;
      best_covered = covered;
      best_nodes = tree.SortedMembers();
    }
  }

  void Recurse(size_t item) {
    if (item == instances.size()) {
      MaybeUpdateBest();
      return;
    }
    // Admissible bound: even covering every remaining item cannot beat best.
    size_t covered_so_far = static_cast<size_t>(
        std::count(covered.begin(), covered.end(), true));
    if (covered_so_far + (instances.size() - item) < best_count) return;
    if (covered_so_far + (instances.size() - item) == best_count &&
        tree.edges() >= best_edges) {
      // Can at most tie on count but never improve edges (adding instances
      // never removes edges) — still explore only if a tie-break win is
      // possible; conservatively continue (cheap for the small inputs the
      // exact solver is documented for).
    }

    // Branch 1..k: cover with each instance (deduplicate by path cost 0:
    // if some instance is already in the tree, covering is free and any
    // other choice is dominated).
    std::vector<NodeId> path;
    bool free_cover = false;
    for (NodeId inst : instances[item].nodes) {
      if (tree.Contains(inst)) {
        free_cover = true;
        break;
      }
    }
    if (free_cover) {
      covered[item] = true;
      Recurse(item + 1);
      covered[item] = false;
      return;  // skipping a freely-covered item is dominated
    }
    for (NodeId inst : instances[item].nodes) {
      size_t cost = tree.ConnectCost(inst, &path);
      if (tree.edges() + cost > bound) continue;
      const size_t mark = tree.Mark();  // undo log beats copying the tree
      tree.Commit(path);
      covered[item] = true;
      Recurse(item + 1);
      covered[item] = false;
      tree.RollbackTo(mark);
    }
    // Branch 0: skip this item.
    Recurse(item + 1);
  }
};

}  // namespace

Selection SelectInstancesExact(const IndexedDocument& doc, NodeId result_root,
                               const std::vector<ItemInstances>& instances,
                               size_t size_bound) {
  ExactSearch search(doc, result_root, instances, size_bound);
  search.Recurse(0);
  Selection selection;
  selection.covered = search.best_covered;
  selection.nodes = search.best_nodes;
  if (selection.nodes.empty()) selection.nodes.push_back(result_root);
  if (selection.covered.empty()) {
    selection.covered.assign(instances.size(), false);
  }
  return selection;
}

}  // namespace extract

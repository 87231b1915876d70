#include "snippet/instance_selector.h"

#include <algorithm>

#include "common/string_util.h"
#include "snippet/snippet_tree_set.h"

namespace extract {

size_t Selection::covered_count() const {
  return static_cast<size_t>(std::count(covered.begin(), covered.end(), true));
}

namespace {

// Keyword instances from the token's posting list: a posting's kTagName bit
// emits the element, its kTextValue bit each direct text child that holds
// the token. A mixed-content element's late text child follows the
// postings of elements nested before it, so the emitted ids are sorted
// only when that happened.
void KeywordInstances(const IndexedDocument& doc, const InvertedIndex& inverted,
                      const std::string& token, NodeId begin, NodeId end,
                      std::vector<NodeId>& out) {
  if (token.empty()) return;
  const PostingList* list = inverted.Find(token);
  if (list == nullptr) return;
  const size_t first = static_cast<size_t>(
      std::lower_bound(list->nodes.begin(), list->nodes.end(), begin) -
      list->nodes.begin());
  bool sorted = true;
  auto emit = [&](NodeId id) {
    if (!out.empty() && id < out.back()) sorted = false;
    out.push_back(id);
  };
  for (size_t p = first; p < list->nodes.size() && list->nodes[p] < end; ++p) {
    const NodeId element = list->nodes[p];
    const auto source = static_cast<uint8_t>(list->sources[p]);
    if (source & static_cast<uint8_t>(PostingSource::kTagName)) emit(element);
    if (source & static_cast<uint8_t>(PostingSource::kTextValue)) {
      for (NodeId child : doc.children(element)) {
        if (doc.is_text(child) && ContainsToken(doc.text(child), token)) {
          emit(child);
        }
      }
    }
  }
  if (!sorted) std::sort(out.begin(), out.end());
}

}  // namespace

std::vector<ItemInstances> FindItemInstances(const XmlDatabase& db,
                                             NodeId result_root,
                                             const IList& ilist) {
  const IndexedDocument& doc = db.index();
  const NodeClassification& classification = db.classification();
  const NodeId end = doc.subtree_end(result_root);
  std::vector<ItemInstances> out(ilist.size());
  for (size_t i = 0; i < ilist.size(); ++i) {
    const IListItem& item = ilist[i];
    std::vector<NodeId>& nodes = out[i].nodes;
    switch (item.kind) {
      case IListItemKind::kKeyword:
        KeywordInstances(doc, db.inverted(), ToLowerCopy(item.token),
                         result_root, end, nodes);
        break;
      case IListItemKind::kEntityName: {
        std::span<const NodeId> entities =
            classification.EntitiesIn(item.entity_label, result_root, end);
        nodes.assign(entities.begin(), entities.end());
        break;
      }
      case IListItemKind::kResultKey:
      case IListItemKind::kDominantFeature:
        // The instance is the value's text node.
        if (item.value_id == kNoValue) break;
        for (const AttributeEntry& attribute : classification.AttributesIn(
                 item.attribute_label, result_root, end)) {
          if (attribute.value == item.value_id &&
              FeatureEntityLabel(doc, attribute, result_root) ==
                  item.entity_label) {
            nodes.push_back(attribute.text);
          }
        }
        break;
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

#include "snippet/instance_selector.h"

#include <algorithm>

#include "common/string_util.h"
#include "snippet/snippet_tree_set.h"

namespace extract {

size_t Selection::covered_count() const {
  return static_cast<size_t>(std::count(covered.begin(), covered.end(), true));
}

ItemInstanceLookup::ItemInstanceLookup(const XmlDatabase& db,
                                       NodeId result_root,
                                       const IListItem& item)
    : db_(db), item_(item), root_(result_root) {
  const NodeId end = db.index().subtree_end(result_root);
  switch (item.kind) {
    case IListItemKind::kKeyword: {
      token_ = ToLowerCopy(item.token);
      if (token_.empty()) break;
      const PostingList* list = db.inverted().Find(token_);
      if (list == nullptr) break;
      const auto first =
          std::lower_bound(list->nodes.begin(), list->nodes.end(), result_root);
      posting_nodes_ = {first, std::lower_bound(first, list->nodes.end(), end)};
      posting_sources_ = std::span<const PostingSource>(list->sources)
                             .subspan(static_cast<size_t>(first -
                                                          list->nodes.begin()),
                                      posting_nodes_.size());
      break;
    }
    case IListItemKind::kEntityName:
      entities_ = db.classification().EntitiesIn(item.entity_label,
                                                 result_root, end);
      break;
    case IListItemKind::kResultKey:
    case IListItemKind::kDominantFeature:
      if (item.value_id == kNoValue) break;
      attributes_ = db.classification().AttributesIn(item.attribute_label,
                                                     result_root, end);
      break;
  }
}

std::span<const NodeId> ItemInstanceLookup::Instances(
    std::vector<NodeId>& scratch) const {
  if (item_.kind == IListItemKind::kEntityName) return entities_;
  const IndexedDocument& doc = db_.index();
  scratch.clear();
  if (item_.kind == IListItemKind::kKeyword) {
    // A posting's kTagName bit emits the element, its kTextValue bit each
    // direct text child that holds the token. A mixed-content element's
    // late text child follows the postings of elements nested before it,
    // so the emitted ids are sorted only when that happened.
    bool sorted = true;
    auto emit = [&](NodeId id) {
      if (!scratch.empty() && id < scratch.back()) sorted = false;
      scratch.push_back(id);
    };
    for (size_t p = 0; p < posting_nodes_.size(); ++p) {
      const NodeId element = posting_nodes_[p];
      const auto source = static_cast<uint8_t>(posting_sources_[p]);
      if (source & static_cast<uint8_t>(PostingSource::kTagName)) emit(element);
      if (source & static_cast<uint8_t>(PostingSource::kTextValue)) {
        for (NodeId child : doc.children(element)) {
          if (doc.is_text(child) && ContainsToken(doc.text(child), token_)) {
            emit(child);
          }
        }
      }
    }
    if (!sorted) std::sort(scratch.begin(), scratch.end());
    return scratch;
  }
  // A key or feature: the instance is the value's text node.
  for (const AttributeEntry& attribute : attributes_) {
    if (attribute.value == item_.value_id &&
        FeatureEntityLabel(doc, attribute, root_) == item_.entity_label) {
      scratch.push_back(attribute.text);
    }
  }
  return scratch;
}

bool ItemInstanceLookup::IsInstance(NodeId n) const {
  const IndexedDocument& doc = db_.index();
  switch (item_.kind) {
    case IListItemKind::kKeyword: {
      // An element is its own posting; a text node is found through its
      // parent's.
      const bool text = doc.is_text(n);
      const NodeId element = text ? doc.parent(n) : n;
      const auto it = std::lower_bound(posting_nodes_.begin(),
                                       posting_nodes_.end(), element);
      if (it == posting_nodes_.end() || *it != element) return false;
      const auto source = static_cast<uint8_t>(
          posting_sources_[static_cast<size_t>(it - posting_nodes_.begin())]);
      if (!text) {
        return (source & static_cast<uint8_t>(PostingSource::kTagName)) != 0;
      }
      return (source & static_cast<uint8_t>(PostingSource::kTextValue)) != 0 &&
             ContainsToken(doc.text(n), token_);
    }
    case IListItemKind::kEntityName:
      return doc.label(n) == item_.entity_label &&
             db_.classification().IsEntity(n);
    case IListItemKind::kResultKey:
    case IListItemKind::kDominantFeature: {
      const NodeId owner = doc.parent(n);
      const auto it = std::lower_bound(
          attributes_.begin(), attributes_.end(), owner,
          [](const AttributeEntry& entry, NodeId node) {
            return entry.node < node;
          });
      return it != attributes_.end() && it->node == owner && it->text == n &&
             it->value == item_.value_id &&
             FeatureEntityLabel(doc, *it, root_) == item_.entity_label;
    }
  }
  return false;
}

std::vector<ItemInstances> FindItemInstances(const XmlDatabase& db,
                                             NodeId result_root,
                                             const IList& ilist) {
  std::vector<ItemInstances> out(ilist.size());
  std::vector<NodeId> scratch;
  for (size_t i = 0; i < ilist.size(); ++i) {
    const std::span<const NodeId> found =
        ItemInstanceLookup(db, result_root, ilist[i]).Instances(scratch);
    out[i].nodes.assign(found.begin(), found.end());
  }
  return out;
}

namespace {

// One tree set per thread, reused across selections: Reset is O(1) via the
// epoch stamp, so a request generating many snippets allocates the
// membership array once per thread instead of once per result.
SnippetTreeSet& ThreadTreeSet() {
  static thread_local SnippetTreeSet tree;
  return tree;
}

// The paper's greedy, written once over an instance source:
// `instances(i)` lists item i's instances in ascending document order, and
// `frozen_covers(i, tree)` tells whether one of the full tree's members is
// one of them.
template <typename Instances, typename FrozenCovers>
Selection Greedy(const IndexedDocument& doc, NodeId result_root,
                 size_t num_items, size_t size_bound, Instances instances,
                 FrozenCovers frozen_covers) {
  SnippetTreeSet& tree = ThreadTreeSet();
  tree.Reset(doc, result_root);

  Selection selection;
  selection.covered.assign(num_items, false);
  for (size_t i = 0; i < num_items; ++i) {
    const size_t budget = size_bound - tree.edges();
    if (budget == 0) {
      // Only an instance already in the tree (cost 0) still fits, and
      // committing it adds no node: the tree is frozen.
      selection.covered[i] = frozen_covers(i, tree);
      continue;
    }
    // An instance wins only if it is cheaper than the best so far (ties go
    // to the first in document order) and fits; its walk stops past that.
    NodeId best = kInvalidNode;
    size_t best_cost = budget + 1;
    for (NodeId instance : instances(i)) {
      const size_t cost = tree.ConnectCostWithin(instance, best_cost - 1);
      if (cost < best_cost) {
        best = instance;
        best_cost = cost;
        if (cost == 0) break;  // cannot do better
      }
    }
    if (best == kInvalidNode) continue;  // no instance, or none fits
    tree.Connect(best);
    selection.covered[i] = true;
  }
  selection.nodes = tree.SortedMembers();
  return selection;
}

}  // namespace

Selection SelectInstancesGreedy(const IndexedDocument& doc, NodeId result_root,
                                const std::vector<ItemInstances>& instances,
                                size_t size_bound) {
  return Greedy(
      doc, result_root, instances.size(), size_bound,
      [&](size_t i) { return std::span<const NodeId>(instances[i].nodes); },
      [&](size_t i, const SnippetTreeSet& tree) {
        return std::any_of(instances[i].nodes.begin(), instances[i].nodes.end(),
                           [&](NodeId n) { return tree.Contains(n); });
      });
}

Selection SelectInstances(const XmlDatabase& db, NodeId result_root,
                          const IList& ilist, size_t size_bound) {
  std::vector<NodeId> scratch;
  return Greedy(
      db.index(), result_root, ilist.size(), size_bound,
      [&](size_t i) {
        return ItemInstanceLookup(db, result_root, ilist[i]).Instances(scratch);
      },
      [&](size_t i, const SnippetTreeSet& tree) {
        const ItemInstanceLookup lookup(db, result_root, ilist[i]);
        const std::span<const NodeId> members = tree.members();
        return std::any_of(members.begin(), members.end(), [&](NodeId n) {
          return lookup.IsInstance(n);
        });
      });
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

    // Branch 1..k: cover with each instance (deduplicate by path cost 0:
    // if some instance is already in the tree, covering is free and any
    // other choice is dominated).
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
    const size_t budget = bound - tree.edges();
    for (NodeId inst : instances[item].nodes) {
      if (tree.ConnectCostWithin(inst, budget) > budget) continue;
      const size_t mark = tree.Mark();  // undo log beats copying the tree
      tree.Connect(inst);
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

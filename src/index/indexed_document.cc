#include "index/indexed_document.h"

#include <cassert>

namespace extract {

namespace {

// Pre-order DFS over the DOM, producing the flattened arrays. XML attributes
// are expanded into leading child elements.
struct Builder {
  std::vector<NodeId>* parent;
  std::vector<LabelId>* label;
  std::vector<IndexedNodeKind>* kind;
  std::vector<uint32_t>* depth;
  std::vector<NodeId>* subtree_end;
  std::vector<std::string>* text;
  std::vector<std::vector<NodeId>>* children;  // temporary; CSR-ified after
  LabelTable* labels;
  size_t* num_elements;

  NodeId NewNode(NodeId parent_id, LabelId label_id, IndexedNodeKind k,
                 std::string content, uint32_t d) {
    NodeId id = static_cast<NodeId>(parent->size());
    parent->push_back(parent_id);
    label->push_back(label_id);
    kind->push_back(k);
    depth->push_back(d);
    subtree_end->push_back(kInvalidNode);
    text->push_back(std::move(content));
    children->emplace_back();
    if (parent_id != kInvalidNode) {
      (*children)[static_cast<size_t>(parent_id)].push_back(id);
    }
    if (k == IndexedNodeKind::kElement) ++*num_elements;
    return id;
  }

  // Emits `node` (an element) and its subtree; returns its id.
  NodeId EmitElement(const XmlNode& node, NodeId parent_id, uint32_t d) {
    NodeId id = NewNode(parent_id, labels->Intern(node.name()),
                        IndexedNodeKind::kElement, std::string(), d);
    for (const auto& attr : node.attributes()) {
      NodeId attr_id = NewNode(id, labels->Intern(attr.name),
                               IndexedNodeKind::kElement, std::string(), d + 1);
      NewNode(attr_id, kInvalidLabel, IndexedNodeKind::kText, attr.value,
              d + 2);
      (*subtree_end)[static_cast<size_t>(attr_id) + 1] =
          static_cast<NodeId>(parent->size());
      (*subtree_end)[static_cast<size_t>(attr_id)] =
          static_cast<NodeId>(parent->size());
    }
    for (const auto& child : node.children()) {
      switch (child->kind()) {
        case XmlNodeKind::kElement:
          EmitElement(*child, id, d + 1);
          break;
        case XmlNodeKind::kText:
        case XmlNodeKind::kCData: {
          NodeId text_id = NewNode(id, kInvalidLabel, IndexedNodeKind::kText,
                                   child->content(), d + 1);
          (*subtree_end)[static_cast<size_t>(text_id)] =
              static_cast<NodeId>(parent->size());
          break;
        }
        case XmlNodeKind::kDocument:
          break;  // never a child
      }
    }
    (*subtree_end)[static_cast<size_t>(id)] = static_cast<NodeId>(parent->size());
    return id;
  }
};

}  // namespace

Result<IndexedDocument> IndexedDocument::Build(const XmlDocument& doc) {
  const XmlNode* root = doc.root();
  if (root == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  IndexedDocument out;
  std::vector<std::vector<NodeId>> child_lists;
  Builder builder{&out.parent_,
                  &out.label_,
                  &out.kind_,
                  &out.depth_,
                  &out.subtree_end_,
                  &out.text_,
                  &child_lists,
                  &out.labels_,
                  &out.num_elements_};
  builder.EmitElement(*root, kInvalidNode, 0);

  // CSR-ify child lists.
  out.child_offset_.resize(out.parent_.size() + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < child_lists.size(); ++i) {
    out.child_offset_[i] = static_cast<uint32_t>(total);
    total += child_lists[i].size();
  }
  out.child_offset_[child_lists.size()] = static_cast<uint32_t>(total);
  out.child_ids_.reserve(total);
  for (const auto& list : child_lists) {
    out.child_ids_.insert(out.child_ids_.end(), list.begin(), list.end());
  }
  return out;
}

Result<IndexedDocument> IndexedDocument::FromFlatColumns(
    LabelTable labels, std::vector<NodeId> parent, std::vector<LabelId> label,
    std::vector<IndexedNodeKind> kind, std::vector<std::string> text) {
  const size_t n = parent.size();
  if (n == 0) return Status::InvalidArgument("snapshot has no nodes");
  if (label.size() != n || kind.size() != n || text.size() != n) {
    return Status::InvalidArgument("snapshot column sizes disagree");
  }
  if (parent[0] != kInvalidNode) {
    return Status::InvalidArgument("snapshot root has a parent");
  }
  for (size_t i = 1; i < n; ++i) {
    if (parent[i] < 0 || parent[i] >= static_cast<NodeId>(i)) {
      return Status::InvalidArgument(
          "snapshot parents are not in pre-order");
    }
    if (kind[static_cast<size_t>(parent[i])] != IndexedNodeKind::kElement) {
      return Status::InvalidArgument("snapshot text node has children");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    bool is_element = kind[i] == IndexedNodeKind::kElement;
    if (is_element && label[i] >= labels.size()) {
      return Status::InvalidArgument("snapshot label id out of range");
    }
    if (!is_element && label[i] != kInvalidLabel) {
      return Status::InvalidArgument("snapshot text node carries a label");
    }
  }

  IndexedDocument out;
  out.labels_ = std::move(labels);
  out.parent_ = std::move(parent);
  out.label_ = std::move(label);
  out.kind_ = std::move(kind);
  out.text_ = std::move(text);
  out.num_elements_ = 0;
  for (size_t i = 0; i < n; ++i) {
    if (out.kind_[i] == IndexedNodeKind::kElement) ++out.num_elements_;
  }

  // Derived columns. Depth via parents; children lists in pre-order are
  // grouped per parent in encounter order; subtree_end via the pre-order
  // property that node i's subtree ends where the next node with
  // depth <= depth(i) begins.
  out.depth_.resize(n);
  out.depth_[0] = 0;
  std::vector<std::vector<NodeId>> child_lists(n);
  for (size_t i = 1; i < n; ++i) {
    out.depth_[i] = out.depth_[static_cast<size_t>(out.parent_[i])] + 1;
    child_lists[static_cast<size_t>(out.parent_[i])].push_back(
        static_cast<NodeId>(i));
  }
  out.child_offset_.resize(n + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    out.child_offset_[i] = static_cast<uint32_t>(total);
    total += child_lists[i].size();
  }
  out.child_offset_[n] = static_cast<uint32_t>(total);
  out.child_ids_.reserve(total);
  for (const auto& list : child_lists) {
    out.child_ids_.insert(out.child_ids_.end(), list.begin(), list.end());
  }

  out.subtree_end_.assign(n, static_cast<NodeId>(n));
  {
    std::vector<size_t> stack;  // open nodes
    for (size_t i = 0; i < n; ++i) {
      while (!stack.empty() &&
             out.depth_[stack.back()] >= out.depth_[i]) {
        out.subtree_end_[stack.back()] = static_cast<NodeId>(i);
        stack.pop_back();
      }
      stack.push_back(i);
    }
    // Remaining open nodes end at n (already initialized).
  }
  return out;
}

std::span<const NodeId> IndexedDocument::children(NodeId n) const {
  size_t begin = child_offset_[static_cast<size_t>(n)];
  size_t end = child_offset_[static_cast<size_t>(n) + 1];
  return std::span<const NodeId>(child_ids_.data() + begin, end - begin);
}

std::vector<NodeId> IndexedDocument::child_elements(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c : children(n)) {
    if (is_element(c)) out.push_back(c);
  }
  return out;
}

NodeId IndexedDocument::sole_text_child(NodeId n) const {
  std::span<const NodeId> kids = children(n);
  if (kids.size() == 1 && is_text(kids[0])) return kids[0];
  return kInvalidNode;
}

NodeId IndexedDocument::LowestCommonAncestor(NodeId a, NodeId b) const {
  assert(a >= 0 && b >= 0);
  while (depth_[a] > depth_[b]) a = parent_[a];
  while (depth_[b] > depth_[a]) b = parent_[b];
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
  }
  return a;
}

}  // namespace extract

// IndexedDocument: the flattened, column-oriented runtime representation of
// an XML document (the output of the paper's Data Analyzer / Index Builder
// stages, Figure 4).
//
// Nodes are numbered in pre-order, so NodeId order IS document order and the
// descendants of n form the half-open interval [n+1, subtree_end(n)). This
// makes ancestor tests O(1), subtree iteration a linear scan, and LCA a
// short parent walk — the operations SLCA search and snippet construction
// are built from.

#ifndef EXTRACT_INDEX_INDEXED_DOCUMENT_H_
#define EXTRACT_INDEX_INDEXED_DOCUMENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/label_table.h"
#include "xml/dom.h"

namespace extract {

/// Dense pre-order node identifier within one IndexedDocument.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Kind of an indexed node. XML attributes are expanded into child elements
/// at build time (see Build), so only two kinds remain.
enum class IndexedNodeKind : uint8_t {
  kElement,
  kText,
};

/// \brief Immutable flattened document.
///
/// Built once from a DOM (Build), then queried concurrently without locks.
class IndexedDocument {
 public:
  /// Flattens `doc`. The DOM is not retained; text is copied in. Each XML
  /// attribute name="v" becomes a leading child element <name>v</name>: the
  /// paper's data model treats attributes and single-text-child elements
  /// uniformly, so both syntaxes flow through one code path.
  static Result<IndexedDocument> Build(const XmlDocument& doc);

  /// Total number of nodes (elements + texts). Node 0 is the root element.
  size_t num_nodes() const { return parent_.size(); }

  /// The root element id (always 0 for a well-formed document).
  NodeId root() const { return 0; }

  IndexedNodeKind kind(NodeId n) const { return kind_[n]; }
  bool is_element(NodeId n) const {
    return kind_[n] == IndexedNodeKind::kElement;
  }
  bool is_text(NodeId n) const { return kind_[n] == IndexedNodeKind::kText; }

  /// Parent id; kInvalidNode for the root.
  NodeId parent(NodeId n) const { return parent_[n]; }

  /// Interned tag name (elements); kInvalidLabel for text nodes.
  LabelId label(NodeId n) const { return label_[n]; }

  /// Tag name string (elements only).
  const std::string& label_name(NodeId n) const {
    return labels_.Name(label_[n]);
  }

  /// Text content (text nodes); empty string for elements.
  const std::string& text(NodeId n) const { return text_[n]; }

  /// 0-based depth (root = 0).
  uint32_t depth(NodeId n) const { return depth_[n]; }

  /// One past the last descendant: descendants of n = [n+1, subtree_end(n)).
  NodeId subtree_end(NodeId n) const { return subtree_end_[n]; }

  /// Number of edges of the subtree rooted at n.
  size_t subtree_edges(NodeId n) const {
    return static_cast<size_t>(subtree_end_[n] - n) - 1;
  }

  /// Children ids in document order.
  std::span<const NodeId> children(NodeId n) const;

  /// Child elements only (skips text children).
  std::vector<NodeId> child_elements(NodeId n) const;

  /// The single text child's id, or kInvalidNode if the element does not
  /// have exactly one child that is a text node.
  NodeId sole_text_child(NodeId n) const;

  /// True iff a is a strict ancestor of b. O(1) via pre-order intervals.
  bool IsAncestor(NodeId a, NodeId b) const {
    return a < b && b < subtree_end_[a];
  }
  bool IsAncestorOrSelf(NodeId a, NodeId b) const {
    return a <= b && b < subtree_end_[a];
  }

  /// Lowest common ancestor of a and b (ancestor-or-self semantics).
  NodeId LowestCommonAncestor(NodeId a, NodeId b) const;

  /// The label table (shared vocabulary of tag names).
  const LabelTable& labels() const { return labels_; }
  LabelTable& mutable_labels() { return labels_; }

  /// Total number of element nodes.
  size_t num_elements() const { return num_elements_; }

  /// \brief Rebuilds a document from its fundamental columns (used by the
  /// snapshot fault-in path, search/corpus_snapshot.h).
  ///
  /// `parent`, `label`, `kind` and `text` are parallel per-node arrays in
  /// pre-order; every other column (children, depth, subtree intervals) is
  /// derived here. Returns InvalidArgument if the columns are
  /// inconsistent (size mismatch, non-pre-order parents, root not first).
  static Result<IndexedDocument> FromFlatColumns(
      LabelTable labels, std::vector<NodeId> parent, std::vector<LabelId> label,
      std::vector<IndexedNodeKind> kind, std::vector<std::string> text);

 private:
  std::vector<NodeId> parent_;
  std::vector<LabelId> label_;
  std::vector<IndexedNodeKind> kind_;
  std::vector<uint32_t> depth_;
  std::vector<NodeId> subtree_end_;
  std::vector<std::string> text_;
  // CSR child lists.
  std::vector<uint32_t> child_offset_;  // size num_nodes()+1
  std::vector<NodeId> child_ids_;
  LabelTable labels_;
  size_t num_elements_ = 0;
};

}  // namespace extract

#endif  // EXTRACT_INDEX_INDEXED_DOCUMENT_H_

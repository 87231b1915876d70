#include "search/result_builder.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace extract {

std::unique_ptr<XmlNode> MaterializeSubtree(const IndexedDocument& doc,
                                            NodeId root) {
  if (doc.is_text(root)) return XmlNode::MakeText(doc.text(root));
  auto element = XmlNode::MakeElement(doc.label_name(root));
  XmlNode* raw = element.get();
  for (NodeId c : doc.children(root)) {
    raw->AppendChild(MaterializeSubtree(doc, c));
  }
  return element;
}

std::unique_ptr<XmlNode> MaterializeResult(const XmlDatabase& db,
                                           const QueryResult& result) {
  return MaterializeSubtree(db.index(), result.root);
}

std::unique_ptr<XmlNode> MaterializeInducedTree(
    const IndexedDocument& doc, NodeId root, const std::vector<NodeId>& nodes) {
  // Sort ids into document order; parents precede children in pre-order, so
  // a single pass can attach each node to its (already materialized) parent.
  std::vector<NodeId> sorted(nodes);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  assert(!sorted.empty() && sorted.front() == root);

  std::unordered_map<NodeId, XmlNode*> made;
  std::unique_ptr<XmlNode> out;
  for (NodeId id : sorted) {
    std::unique_ptr<XmlNode> node =
        doc.is_text(id) ? XmlNode::MakeText(doc.text(id))
                        : XmlNode::MakeElement(doc.label_name(id));
    if (id == root) {
      out = std::move(node);
      made[id] = out.get();
      continue;
    }
    NodeId parent = doc.parent(id);
    auto it = made.find(parent);
    assert(it != made.end() && "induced set must be closed under parents");
    made[id] = it->second->AppendChild(std::move(node));
  }
  return out;
}

}  // namespace extract

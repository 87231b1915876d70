#include "xml/serializer.h"

#include <functional>

#include "common/tree_printer.h"
#include "xml/escape.h"

namespace extract {

namespace {

void WriteNode(const XmlNode& node, std::string* out) {
  switch (node.kind()) {
    case XmlNodeKind::kDocument: {
      for (const auto& child : node.children()) WriteNode(*child, out);
      return;
    }
    case XmlNodeKind::kElement: {
      out->push_back('<');
      out->append(node.name());
      for (const auto& attr : node.attributes()) {
        out->push_back(' ');
        out->append(attr.name);
        out->append("=\"");
        out->append(EscapeXmlAttribute(attr.value));
        out->push_back('"');
      }
      if (node.children().empty()) {
        out->append("/>");
        return;
      }
      out->push_back('>');
      for (const auto& child : node.children()) WriteNode(*child, out);
      out->append("</");
      out->append(node.name());
      out->push_back('>');
      return;
    }
    case XmlNodeKind::kText: {
      out->append(EscapeXmlText(node.content()));
      return;
    }
    case XmlNodeKind::kCData: {
      out->append("<![CDATA[");
      out->append(node.content());
      out->append("]]>");
      return;
    }
  }
}

}  // namespace

std::string WriteXml(const XmlNode& node) {
  std::string out;
  WriteNode(node, &out);
  return out;
}

std::string RenderXmlTree(const XmlNode& node) {
  std::function<std::string(const XmlNode*)> label =
      [](const XmlNode* n) -> std::string {
    switch (n->kind()) {
      case XmlNodeKind::kElement: {
        // Inline a sole text child: `city "Houston"`.
        if (n->children().size() == 1 &&
            n->children()[0]->kind() == XmlNodeKind::kText) {
          return n->name() + " \"" + n->children()[0]->content() + "\"";
        }
        return n->name();
      }
      case XmlNodeKind::kText:
      case XmlNodeKind::kCData:
        return "\"" + n->content() + "\"";
      case XmlNodeKind::kDocument:
        return "(document)";
    }
    return "?";
  };
  std::function<std::vector<const XmlNode*>(const XmlNode*)> children =
      [](const XmlNode* n) -> std::vector<const XmlNode*> {
    std::vector<const XmlNode*> out;
    if (n->kind() == XmlNodeKind::kElement && n->children().size() == 1 &&
        n->children()[0]->kind() == XmlNodeKind::kText) {
      return out;  // inlined into the label
    }
    for (const auto& child : n->children()) out.push_back(child.get());
    return out;
  };
  return RenderTree<const XmlNode*>(&node, label, children);
}

}  // namespace extract

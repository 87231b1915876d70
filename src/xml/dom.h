// In-memory XML document object model.
//
// The DOM is the parse-time representation; query processing runs on the
// flattened, column-oriented IndexedDocument (index/indexed_document.h)
// built from it. Snippets are materialized back into DOM trees so they can
// be serialized or rendered.

#ifndef EXTRACT_XML_DOM_H_
#define EXTRACT_XML_DOM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "xml/dtd.h"

namespace extract {

/// Kind of a DOM node.
enum class XmlNodeKind {
  kDocument,   ///< the document root (holds the root element)
  kElement,
  kText,
  kCData,
};

/// One name="value" attribute of an element.
struct XmlAttribute {
  std::string name;
  std::string value;
};

/// \brief A node in an XML document tree.
///
/// Nodes own their children (unique_ptr); parent links are non-owning.
/// Construction goes through the Make* factories; trees are assembled with
/// AppendChild.
class XmlNode {
 public:
  static std::unique_ptr<XmlNode> MakeDocument();
  static std::unique_ptr<XmlNode> MakeElement(std::string name);
  static std::unique_ptr<XmlNode> MakeText(std::string content);
  static std::unique_ptr<XmlNode> MakeCData(std::string content);

  XmlNodeKind kind() const { return kind_; }
  /// Element tag name; empty for other kinds.
  const std::string& name() const { return name_; }
  /// Text/CDATA content; empty for elements.
  const std::string& content() const { return content_; }
  void set_content(std::string content) { content_ = std::move(content); }

  const std::vector<XmlAttribute>& attributes() const { return attributes_; }
  /// Adds (or appends) an attribute; does not deduplicate names.
  void AddAttribute(std::string name, std::string value);
  /// Returns the value of attribute `name`, or nullptr if absent.
  const std::string* FindAttribute(std::string_view name) const;

  XmlNode* parent() const { return parent_; }
  const std::vector<std::unique_ptr<XmlNode>>& children() const {
    return children_;
  }
  /// Appends `child` and returns a raw pointer to it for chaining.
  XmlNode* AppendChild(std::unique_ptr<XmlNode> child);

  /// Concatenated text content of this subtree (text and CDATA nodes).
  std::string InnerText() const;

  /// Number of nodes in this subtree, including this node.
  size_t CountNodes() const;
  /// Number of edges in this subtree (CountNodes() - 1).
  size_t CountEdges() const;

  /// Deep copy of this subtree (parent of the copy is null).
  std::unique_ptr<XmlNode> Clone() const;

  /// Structural equality: same kind, name, content, attributes and children.
  bool StructurallyEquals(const XmlNode& other) const;

 private:
  explicit XmlNode(XmlNodeKind kind) : kind_(kind) {}

  XmlNodeKind kind_;
  std::string name_;
  std::string content_;
  std::vector<XmlAttribute> attributes_;
  XmlNode* parent_ = nullptr;
  std::vector<std::unique_ptr<XmlNode>> children_;
};

/// \brief A parsed XML document: the node tree plus the DOCTYPE (if any).
class XmlDocument {
 public:
  XmlDocument() : document_(XmlNode::MakeDocument()) {}

  /// The document node (kind kDocument). Never null.
  XmlNode* document() const { return document_.get(); }

  /// The root element, or nullptr for an (invalid) empty document.
  XmlNode* root() const;

  /// Whether the document carried a <!DOCTYPE ...> with an internal subset.
  bool has_dtd() const { return has_dtd_; }
  const Dtd& dtd() const { return dtd_; }
  void set_dtd(Dtd dtd) {
    dtd_ = std::move(dtd);
    has_dtd_ = true;
  }

 private:
  std::unique_ptr<XmlNode> document_;
  Dtd dtd_;
  bool has_dtd_ = false;
};

}  // namespace extract

#endif  // EXTRACT_XML_DOM_H_

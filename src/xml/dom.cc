#include "xml/dom.h"

namespace extract {

std::unique_ptr<XmlNode> XmlNode::MakeDocument() {
  return std::unique_ptr<XmlNode>(new XmlNode(XmlNodeKind::kDocument));
}

std::unique_ptr<XmlNode> XmlNode::MakeElement(std::string name) {
  auto n = std::unique_ptr<XmlNode>(new XmlNode(XmlNodeKind::kElement));
  n->name_ = std::move(name);
  return n;
}

std::unique_ptr<XmlNode> XmlNode::MakeText(std::string content) {
  auto n = std::unique_ptr<XmlNode>(new XmlNode(XmlNodeKind::kText));
  n->content_ = std::move(content);
  return n;
}

std::unique_ptr<XmlNode> XmlNode::MakeCData(std::string content) {
  auto n = std::unique_ptr<XmlNode>(new XmlNode(XmlNodeKind::kCData));
  n->content_ = std::move(content);
  return n;
}

void XmlNode::AddAttribute(std::string name, std::string value) {
  attributes_.push_back(XmlAttribute{std::move(name), std::move(value)});
}

const std::string* XmlNode::FindAttribute(std::string_view name) const {
  for (const auto& attr : attributes_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

XmlNode* XmlNode::AppendChild(std::unique_ptr<XmlNode> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

XmlNode* XmlNode::FindChildElement(std::string_view name) const {
  for (const auto& child : children_) {
    if (child->kind_ == XmlNodeKind::kElement && child->name_ == name) {
      return child.get();
    }
  }
  return nullptr;
}

std::vector<XmlNode*> XmlNode::ChildElements() const {
  std::vector<XmlNode*> out;
  for (const auto& child : children_) {
    if (child->kind_ == XmlNodeKind::kElement) out.push_back(child.get());
  }
  return out;
}

std::string XmlNode::InnerText() const {
  if (kind_ == XmlNodeKind::kText || kind_ == XmlNodeKind::kCData) {
    return content_;
  }
  std::string out;
  for (const auto& child : children_) out += child->InnerText();
  return out;
}

size_t XmlNode::CountNodes() const {
  size_t n = 1;
  for (const auto& child : children_) n += child->CountNodes();
  return n;
}

size_t XmlNode::CountEdges() const { return CountNodes() - 1; }

std::unique_ptr<XmlNode> XmlNode::Clone() const {
  auto copy = std::unique_ptr<XmlNode>(new XmlNode(kind_));
  copy->name_ = name_;
  copy->content_ = content_;
  copy->attributes_ = attributes_;
  for (const auto& child : children_) {
    copy->AppendChild(child->Clone());
  }
  return copy;
}

bool XmlNode::StructurallyEquals(const XmlNode& other) const {
  if (kind_ != other.kind_ || name_ != other.name_ ||
      content_ != other.content_ ||
      attributes_.size() != other.attributes_.size() ||
      children_.size() != other.children_.size()) {
    return false;
  }
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name != other.attributes_[i].name ||
        attributes_[i].value != other.attributes_[i].value) {
      return false;
    }
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->StructurallyEquals(*other.children_[i])) return false;
  }
  return true;
}

XmlNode* XmlDocument::root() const {
  for (const auto& child : document_->children()) {
    if (child->kind() == XmlNodeKind::kElement) return child.get();
  }
  return nullptr;
}

}  // namespace extract

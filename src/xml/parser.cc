#include "xml/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "xml/tokenizer.h"

namespace extract {

namespace {

bool IsAllWhitespace(std::string_view s) {
  for (unsigned char c : s) {
    if (!std::isspace(c)) return false;
  }
  return true;
}

// Tag-soup-to-tree loop: appends parsed nodes under the document node
// until end-of-input. Enforces tag balance.
Status BuildTree(XmlTokenizer* tokenizer, XmlDocument* doc,
                 const ParseLimits& limits) {
  XmlNode* const document_node = doc->document();
  std::vector<XmlNode*> stack;  // open elements; document_node is implicit
  XmlNode* root_seen = nullptr;
  bool doctype_seen = false;
  size_t total_nodes = 0;
  // Every AppendChild below charges this first, so a node-count bomb is
  // rejected before the node over the cap is allocated.
  const auto charge_node = [&limits, &total_nodes,
                            tokenizer]() -> Status {
    if (limits.max_total_nodes != 0 && ++total_nodes > limits.max_total_nodes) {
      return Status::ResourceExhausted(
          "document exceeds max_total_nodes (" +
          std::to_string(limits.max_total_nodes) + ") at line " +
          std::to_string(tokenizer->line()));
    }
    return Status::OK();
  };

  for (;;) {
    EXTRACT_INJECT_FAULT("xml.parser.build");
    XmlToken token;
    EXTRACT_ASSIGN_OR_RETURN(token, tokenizer->Next());
    XmlNode* parent = stack.empty() ? document_node : stack.back();

    switch (token.type) {
      case XmlTokenType::kEndOfInput: {
        if (!stack.empty()) {
          return Status::ParseError("unexpected end of input: <" +
                                    stack.back()->name() + "> is not closed");
        }
        if (root_seen == nullptr) {
          return Status::ParseError("document has no root element");
        }
        return Status::OK();
      }
      case XmlTokenType::kStartElement: {
        if (stack.empty()) {
          if (root_seen != nullptr) {
            return Status::ParseError(
                "multiple root elements: second root <" + token.name +
                "> at line " + std::to_string(token.line));
          }
        }
        if (limits.max_depth != 0 && stack.size() >= limits.max_depth) {
          return Status::ResourceExhausted(
              "element nesting exceeds max_depth (" +
              std::to_string(limits.max_depth) + ") at line " +
              std::to_string(token.line));
        }
        EXTRACT_RETURN_IF_ERROR(charge_node());
        XmlNode* element = parent->AppendChild(XmlNode::MakeElement(token.name));
        for (auto& attr : token.attributes) {
          element->AddAttribute(std::move(attr.name), std::move(attr.value));
        }
        if (stack.empty()) root_seen = element;
        if (!token.self_closing) stack.push_back(element);
        break;
      }
      case XmlTokenType::kEndElement: {
        if (stack.empty()) {
          return Status::ParseError("unexpected closing tag </" + token.name +
                                    "> at line " + std::to_string(token.line));
        }
        if (stack.back()->name() != token.name) {
          return Status::ParseError(
              "mismatched closing tag </" + token.name + "> for <" +
              stack.back()->name() + "> at line " + std::to_string(token.line));
        }
        stack.pop_back();
        break;
      }
      case XmlTokenType::kText: {
        if (stack.empty()) {
          if (!IsAllWhitespace(token.content)) {
            return Status::ParseError("text outside the root element at line " +
                                      std::to_string(token.line));
          }
          break;
        }
        if (IsAllWhitespace(token.content)) break;
        // Merge adjacent text (e.g. split around an elided comment).
        if (!parent->children().empty() &&
            parent->children().back()->kind() == XmlNodeKind::kText) {
          XmlNode* last = parent->children().back().get();
          last->set_content(last->content() + token.content);
        } else {
          EXTRACT_RETURN_IF_ERROR(charge_node());
          parent->AppendChild(XmlNode::MakeText(std::move(token.content)));
        }
        break;
      }
      case XmlTokenType::kCData: {
        if (stack.empty()) {
          return Status::ParseError("CDATA outside the root element at line " +
                                    std::to_string(token.line));
        }
        EXTRACT_RETURN_IF_ERROR(charge_node());
        parent->AppendChild(XmlNode::MakeCData(std::move(token.content)));
        break;
      }
      case XmlTokenType::kComment:
      case XmlTokenType::kProcessingInstruction:
      case XmlTokenType::kXmlDeclaration: {
        // Dropped; an XML declaration is accepted anywhere before the root.
        break;
      }
      case XmlTokenType::kDoctype: {
        if (root_seen != nullptr) {
          return Status::ParseError("DOCTYPE after the root element at line " +
                                    std::to_string(token.line));
        }
        if (doctype_seen) {
          return Status::ParseError("multiple DOCTYPE declarations");
        }
        doctype_seen = true;
        if (!token.content.empty()) {
          Dtd dtd;
          EXTRACT_ASSIGN_OR_RETURN(dtd,
                                   ParseDtd(token.content, token.name));
          doc->set_dtd(std::move(dtd));
        }
        break;
      }
    }
  }
}

}  // namespace

Result<std::unique_ptr<XmlDocument>> ParseXml(std::string_view input,
                                              const ParseLimits& limits) {
  auto doc = std::make_unique<XmlDocument>();
  XmlTokenizer tokenizer(input, limits);
  EXTRACT_RETURN_IF_ERROR(BuildTree(&tokenizer, doc.get(), limits));
  return doc;
}

Result<std::unique_ptr<XmlDocument>> ParseXml(std::string_view input) {
  return ParseXml(input, ParseLimits{});
}

}  // namespace extract

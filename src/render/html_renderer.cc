#include "render/html_renderer.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace extract {

namespace {

// Wraps query-keyword tokens of `text` in <b>..</b>, HTML-escaping all of
// it. Tokens are compared case-insensitively against the folded keywords.
std::string HighlightText(std::string_view text, const Query& query) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    size_t start = i;
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
    }
    out += EscapeHtml(text.substr(start, i - start));
    start = i;
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    if (i == start) continue;
    std::string_view word = text.substr(start, i - start);
    const std::string folded = ToLowerCopy(word);
    const bool is_keyword =
        std::find(query.keywords.begin(), query.keywords.end(), folded) !=
        query.keywords.end();
    if (is_keyword) out += "<b>";
    out += EscapeHtml(word);
    if (is_keyword) out += "</b>";
  }
  return out;
}

void RenderNode(const XmlNode& node, const Query& query, std::string* out) {
  if (node.kind() == XmlNodeKind::kText || node.kind() == XmlNodeKind::kCData) {
    return;  // inlined by the parent element below
  }
  *out += "<li><span class=\"tag\">";
  *out += HighlightText(node.name(), query);
  *out += "</span>";
  // Inline a sole text child as `tag: value`, the demo's display style.
  if (node.children().size() == 1 &&
      (node.children()[0]->kind() == XmlNodeKind::kText ||
       node.children()[0]->kind() == XmlNodeKind::kCData)) {
    *out += ": <span class=\"value\">";
    *out += HighlightText(node.children()[0]->content(), query);
    *out += "</span></li>\n";
    return;
  }
  bool has_element_child = false;
  for (const auto& child : node.children()) {
    if (child->kind() == XmlNodeKind::kElement) {
      has_element_child = true;
      break;
    }
  }
  if (has_element_child) {
    *out += "\n<ul>\n";
    for (const auto& child : node.children()) {
      RenderNode(*child, query, out);
    }
    *out += "</ul>\n";
  }
  *out += "</li>\n";
}

}  // namespace

std::string EscapeHtml(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string RenderSnippetHtml(const Snippet& snippet, const Query& query) {
  if (snippet.tree == nullptr) return "<p class=\"empty\">(empty snippet)</p>";
  std::string out = "<ul class=\"snippet\">\n";
  RenderNode(*snippet.tree, query, &out);
  out += "</ul>\n";
  return out;
}

std::string RenderResultsPageHtml(const Query& query,
                                  const std::vector<Snippet>& snippets) {
  std::string out;
  out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
         "<title>eXtract results</title></head>\n<body>\n";
  out += "<h1>Results for “" + EscapeHtml(query.ToString()) +
         "”</h1>\n";
  out += "<p>" + std::to_string(snippets.size()) + " result(s)</p>\n";
  size_t rank = 1;
  for (const Snippet& snippet : snippets) {
    out += "<div class=\"result\" id=\"result-" + std::to_string(rank) +
           "\">\n";
    if (snippet.key.found()) {
      out += "<h2>" + EscapeHtml(snippet.key.value) + "</h2>\n";
    } else {
      out += "<h2>Result " + std::to_string(rank) + "</h2>\n";
    }
    out += RenderSnippetHtml(snippet, query);
    out += "<a href=\"#result-" + std::to_string(rank) +
           "\">view full result (" +
           std::to_string(snippet.edges()) + " edges shown)</a>\n</div>\n";
    ++rank;
  }
  out += "</body></html>\n";
  return out;
}

}  // namespace extract

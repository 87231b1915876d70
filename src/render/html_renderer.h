// HTML rendering of snippets and result pages — the output format of the
// demo's web UI (Figure 5): each result shows its snippet with highlighted
// keyword matches and a link to the complete query result.

#ifndef EXTRACT_RENDER_HTML_RENDERER_H_
#define EXTRACT_RENDER_HTML_RENDERER_H_

#include <string>
#include <string_view>
#include <vector>

#include "search/search_engine.h"
#include "snippet/snippet_tree.h"

namespace extract {

/// Escapes &, <, >, " for HTML text/attribute contexts.
std::string EscapeHtml(std::string_view s);

/// Renders one snippet as a nested <ul> tree, with the tokens that match a
/// query keyword wrapped in <b>...</b>.
std::string RenderSnippetHtml(const Snippet& snippet, const Query& query);

/// \brief Renders a whole results page: the query header and, per result,
/// a heading (the result key — the "title" role the key plays per §2.2 —
/// or "Result <rank>" without one), the snippet tree and a
/// "#result-<rank>" full-result link — the layout of the paper's Figure 5
/// screenshot.
std::string RenderResultsPageHtml(const Query& query,
                                  const std::vector<Snippet>& snippets);

}  // namespace extract

#endif  // EXTRACT_RENDER_HTML_RENDERER_H_

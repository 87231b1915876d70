// DOM parser: builds an XmlDocument from text using the pull tokenizer.

#ifndef EXTRACT_XML_PARSER_H_
#define EXTRACT_XML_PARSER_H_

#include <memory>
#include <string_view>

#include "common/result.h"
#include "xml/dom.h"
#include "xml/parse_limits.h"

namespace extract {

/// \brief Parses a complete XML document.
///
/// Enforces well-formedness: single root element, balanced and properly
/// nested tags, no text outside the root. Returns ParseError with
/// line/column context on malformed input.
///
/// The DOM keeps elements, attributes, text and CDATA. Comments,
/// processing instructions and whitespace-only text are dropped (search and
/// snippet generation never read them); a DOCTYPE internal subset is parsed
/// into the document's Dtd, which decides *-nodes at classification.
///
/// `limits` caps depth, token bytes, node count and entity expansions,
/// enforced tokenizer-through-DOM. Violations return kResourceExhausted
/// with position info; a zeroed field disables that cap.
Result<std::unique_ptr<XmlDocument>> ParseXml(std::string_view input,
                                              const ParseLimits& limits);

/// ParseXml with the default limits (xml/parse_limits.h).
Result<std::unique_ptr<XmlDocument>> ParseXml(std::string_view input);

}  // namespace extract

#endif  // EXTRACT_XML_PARSER_H_

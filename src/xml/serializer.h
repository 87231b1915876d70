// XML serialization: DOM tree back to compact text, and an ASCII-art
// rendering used by examples and golden tests.

#ifndef EXTRACT_XML_SERIALIZER_H_
#define EXTRACT_XML_SERIALIZER_H_

#include <string>

#include "xml/dom.h"

namespace extract {

/// Serializes the subtree rooted at `node` (element, text, ...) to compact
/// XML text.
std::string WriteXml(const XmlNode& node);

/// \brief Renders an element subtree as an ASCII tree, the format used in
/// the paper's figures: element names as labels, text children inlined as
/// `name "value"`.
std::string RenderXmlTree(const XmlNode& node);

}  // namespace extract

#endif  // EXTRACT_XML_SERIALIZER_H_

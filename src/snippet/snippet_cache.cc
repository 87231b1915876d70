#include "snippet/snippet_cache.h"

#include <utility>
#include <vector>

namespace extract {

namespace {

// Field and list separators of the canonical signature. Unit/record
// separators cannot appear in XML text or query tokens, so joined fields
// never collide ("ab"+"c" vs "a"+"bc").
constexpr char kFieldSep = '\x1F';
constexpr char kItemSep = '\x1E';
// Escape byte for reserved bytes inside caller-supplied document ids.
constexpr char kEsc = '\x10';

void AppendList(std::string& out, const std::vector<std::string>& items) {
  out.push_back(kFieldSep);
  for (const std::string& item : items) {
    out.append(item);
    out.push_back(kItemSep);
  }
}

// Document ids are caller-supplied arbitrary strings; escape the reserved
// bytes (kEsc followed by the byte + 0x40, a printable char) so the encoded
// id never contains a separator. Injective, so distinct ids can neither
// alias each other's signatures nor be clipped by prefix invalidation.
void AppendDocumentId(std::string& out, std::string_view document) {
  for (char c : document) {
    if (c == kFieldSep || c == kItemSep || c == kEsc) {
      out.push_back(kEsc);
      out.push_back(static_cast<char>(c + 0x40));
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

SnippetCacheKeyPrefix MakeSnippetCacheKeyPrefix(std::string_view document,
                                                const Query& query,
                                                const SnippetOptions& options) {
  std::string text;
  text.reserve(document.size() + 64);
  AppendDocumentId(text, document);
  // Both spellings matter: normalized keywords drive matching, raw keywords
  // appear verbatim in IList keyword displays.
  AppendList(text, query.keywords);
  AppendList(text, query.raw_keywords);
  text.push_back(kFieldSep);
  text.append(std::to_string(options.size_bound));
  text.push_back(kFieldSep);
  text.append(std::to_string(options.features.max_features));
  text.push_back(kFieldSep);
  text.push_back(options.features.normalize ? '1' : '0');
  text.push_back(kFieldSep);
  return SnippetCacheKeyPrefix{std::move(text)};
}

SnippetCacheKey MakeSnippetCacheKey(const SnippetCacheKeyPrefix& prefix,
                                    NodeId result_root) {
  return SnippetCacheKey{prefix.text + std::to_string(result_root)};
}

SnippetCacheKey MakeSnippetCacheKey(std::string_view document,
                                    const Query& query, NodeId result_root,
                                    const SnippetOptions& options) {
  return MakeSnippetCacheKey(
      MakeSnippetCacheKeyPrefix(document, query, options), result_root);
}

size_t SnippetCache::Invalidate(std::string_view document) {
  // Same encoding as MakeSnippetCacheKeyPrefix, so the prefix match is
  // exact for any document id.
  std::string prefix;
  AppendDocumentId(prefix, document);
  prefix.push_back(kFieldSep);
  return cache_.EraseIf([&prefix](const SnippetCacheKey& key) {
    return key.text.compare(0, prefix.size(), prefix) == 0;
  });
}

}  // namespace extract

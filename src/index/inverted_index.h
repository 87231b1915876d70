// Inverted keyword index over an IndexedDocument (the paper's Index Builder,
// Figure 4).
//
// A keyword occurrence is attributed to an element node: an element matches
// token t if its tag name tokenizes to t, or if one of its direct text
// children contains t. Posting lists are sorted by NodeId, which is document
// (pre-)order, as required by the SLCA algorithms.

#ifndef EXTRACT_INDEX_INVERTED_INDEX_H_
#define EXTRACT_INDEX_INVERTED_INDEX_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/analyzer.h"
#include "index/indexed_document.h"

namespace extract {

/// Where a token occurrence came from, kept per posting for snippet logic
/// (a tag-name match highlights the element; a value match highlights the
/// text).
enum class PostingSource : uint8_t {
  kTagName = 1,       ///< token appears in the element's tag name
  kTextValue = 2,     ///< token appears in a direct text child
  kBoth = 3,
};

/// One token's occurrences.
struct PostingList {
  /// Element ids in ascending (document) order, deduplicated.
  std::vector<NodeId> nodes;
  /// Parallel to `nodes`.
  std::vector<PostingSource> sources;

  size_t size() const { return nodes.size(); }
  bool empty() const { return nodes.empty(); }
};

/// \brief Token -> PostingList map for one document.
class InvertedIndex {
 public:
  /// Scans `doc` and builds the index. Tokenization is TokenizeWords()
  /// (case folding only).
  static InvertedIndex Build(const IndexedDocument& doc);

  /// Build with a configured analyzer (stemming / stopword removal); the
  /// query side must analyze keywords with the same analyzer.
  static InvertedIndex Build(const IndexedDocument& doc,
                             const TextAnalyzer& analyzer);

  /// \brief Restores an index from already-built posting lists (the corpus
  /// snapshot loader's path). The lists must satisfy the Build invariants
  /// (element nodes of the document, ascending, deduplicated, parallel
  /// sources) — the snapshot decoder verifies them; this only recomputes
  /// the posting total.
  static InvertedIndex Restore(
      std::unordered_map<std::string, PostingList> postings);

  /// The posting list for (already lower-cased) `token`, or nullptr.
  const PostingList* Find(std::string_view token) const;

  /// Number of distinct tokens.
  size_t vocabulary_size() const { return postings_.size(); }

  /// Total number of postings across all tokens.
  size_t total_postings() const { return total_postings_; }

  /// All indexed tokens (unsorted).
  std::vector<std::string> Tokens() const;

 private:
  std::unordered_map<std::string, PostingList> postings_;
  size_t total_postings_ = 0;
};

}  // namespace extract

#endif  // EXTRACT_INDEX_INVERTED_INDEX_H_

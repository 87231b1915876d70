#include "index/inverted_index.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace extract {

namespace {

// Raw (node, source) pairs are collected per token, then normalized into a
// sorted, deduplicated posting list. Collection order is not document order
// in general: a mixed-content element's late text child posts to the (early)
// parent element after deeper elements already posted.
using RawPostings =
    std::unordered_map<std::string, std::vector<std::pair<NodeId, PostingSource>>>;

void AddPosting(RawPostings* raw, const std::string& token, NodeId node,
                PostingSource source) {
  (*raw)[token].emplace_back(node, source);
}

}  // namespace

InvertedIndex InvertedIndex::Build(const IndexedDocument& doc) {
  InvertedIndex index;
  RawPostings raw;
  const NodeId n = static_cast<NodeId>(doc.num_nodes());
  for (NodeId id = 0; id < n; ++id) {
    if (doc.is_element(id)) {
      for (const std::string& token : TokenizeWords(doc.label_name(id))) {
        AddPosting(&raw, token, id, PostingSource::kTagName);
      }
    } else {
      NodeId owner = doc.parent(id);
      for (const std::string& token : TokenizeWords(doc.text(id))) {
        AddPosting(&raw, token, owner, PostingSource::kTextValue);
      }
    }
  }
  for (auto& [token, pairs] : raw) {
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    PostingList list;
    for (const auto& [node, source] : pairs) {
      if (!list.nodes.empty() && list.nodes.back() == node) {
        list.sources.back() = static_cast<PostingSource>(
            static_cast<uint8_t>(list.sources.back()) |
            static_cast<uint8_t>(source));
      } else {
        list.nodes.push_back(node);
        list.sources.push_back(source);
      }
    }
    index.total_postings_ += list.nodes.size();
    index.postings_.emplace(token, std::move(list));
  }
  return index;
}

const PostingList* InvertedIndex::Find(std::string_view token) const {
  auto it = postings_.find(std::string(token));
  return it == postings_.end() ? nullptr : &it->second;
}

InvertedIndex InvertedIndex::Restore(
    std::unordered_map<std::string, PostingList> postings) {
  InvertedIndex out;
  out.postings_ = std::move(postings);
  out.total_postings_ = 0;
  for (const auto& [token, list] : out.postings_) {
    out.total_postings_ += list.nodes.size();
  }
  return out;
}

std::vector<std::string> InvertedIndex::Tokens() const {
  std::vector<std::string> out;
  out.reserve(postings_.size());
  for (const auto& [token, list] : postings_) out.push_back(token);
  return out;
}

}  // namespace extract

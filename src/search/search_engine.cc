#include "search/search_engine.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/fault.h"
#include "common/string_util.h"
#include "search/ranking.h"
#include "search/slca.h"
#include "xml/parser.h"

namespace extract {

Result<XmlDatabase> XmlDatabase::Load(std::string_view xml) {
  EXTRACT_INJECT_FAULT("db.load");
  std::unique_ptr<XmlDocument> doc;
  EXTRACT_ASSIGN_OR_RETURN(doc, ParseXml(xml));
  return FromDocument(std::move(doc), LoadOptions{});
}

Result<XmlDatabase> XmlDatabase::FromDocument(
    std::unique_ptr<XmlDocument> doc, const LoadOptions& /*options*/) {
  EXTRACT_INJECT_FAULT("index.document.build");
  IndexedDocument index;
  EXTRACT_ASSIGN_OR_RETURN(index, IndexedDocument::Build(*doc));
  return FromIndexedDocument(std::move(index),
                             doc->has_dtd() ? &doc->dtd() : nullptr);
}

Result<XmlDatabase> XmlDatabase::FromIndexedDocument(IndexedDocument index,
                                                     const Dtd* dtd) {
  XmlDatabase db;
  db.index_ = std::make_unique<IndexedDocument>(std::move(index));
  db.classification_ = NodeClassification::Classify(*db.index_, dtd);
  db.keys_ = KeyIndex::Mine(*db.index_, db.classification_);
  db.inverted_ = InvertedIndex::Build(*db.index_);
  return db;
}

XmlDatabase XmlDatabase::FromParts(IndexedDocument index,
                                   NodeClassification classification,
                                   KeyIndex keys, InvertedIndex inverted) {
  XmlDatabase db;
  db.index_ = std::make_unique<IndexedDocument>(std::move(index));
  db.classification_ = std::move(classification);
  db.keys_ = std::move(keys);
  db.inverted_ = std::move(inverted);
  return db;
}

Query Query::Parse(std::string_view text) {
  Query q;
  // Tokenize twice: once preserving case for display, once folded for
  // matching. TokenizeWords folds, so extract raw tokens by position.
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i])) == 0) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           std::isalnum(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    if (i > start) {
      std::string raw(text.substr(start, i - start));
      q.keywords.push_back(ToLowerCopy(raw));
      q.raw_keywords.push_back(std::move(raw));
    }
  }
  return q;
}

std::string Query::ToString() const { return Join(keywords, " "); }

NodeId MasterEntityOf(const IndexedDocument& doc,
                      const NodeClassification& classification, NodeId n) {
  for (NodeId cur = n; cur != kInvalidNode; cur = doc.parent(cur)) {
    if (doc.is_element(cur) && classification.IsEntity(cur)) return cur;
  }
  return doc.root();
}

namespace {

uint64_t NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// The default OpenIncremental adapter: the first Pull runs the blocking
/// Search and ranks the best top_k_hint results per document — sound for
/// corpus top-k pages because the page never takes more than k hits total,
/// and the hits it takes from one document are always that document's
/// best under the page order.
class BlockingResultProducer : public ResultProducer {
 public:
  BlockingResultProducer(const SearchEngine* engine, const XmlDatabase* db,
                         const Query* query, const RankingOptions* ranking,
                         size_t top_k_hint)
      : engine_(engine),
        db_(db),
        query_(query),
        ranking_(ranking),
        top_k_(top_k_hint) {}

  Status Pull(std::vector<RankedResult>* out) override {
    if (!status_.ok()) return status_;
    if (done_) return Status::OK();
    done_ = true;
    const auto search_start = std::chrono::steady_clock::now();
    Result<std::vector<QueryResult>> searched = engine_->Search(*db_, *query_);
    enumerate_ns_ = NsSince(search_start);
    if (!searched.ok()) {
      status_ = searched.status();
      return status_;
    }
    candidates_ = searched->size();
    const auto rank_start = std::chrono::steady_clock::now();
    std::vector<RankedResult> ranked =
        RankResults(*db_, *searched, *ranking_, top_k_);
    score_ns_ = NsSince(rank_start);
    for (RankedResult& r : ranked) out->push_back(std::move(r));
    return Status::OK();
  }

  bool Exhausted() const override { return done_; }

  double ScoreUpperBound() const override {
    return done_ ? -std::numeric_limits<double>::infinity()
                 : std::numeric_limits<double>::infinity();
  }

  size_t candidates_total() const override { return candidates_; }
  size_t candidates_scored() const override { return candidates_; }
  uint64_t enumerate_ns() const override { return enumerate_ns_; }
  uint64_t score_ns() const override { return score_ns_; }

 private:
  const SearchEngine* engine_;
  const XmlDatabase* db_;
  const Query* query_;
  const RankingOptions* ranking_;
  size_t top_k_;
  bool done_ = false;
  Status status_ = Status::OK();
  size_t candidates_ = 0;
  uint64_t enumerate_ns_ = 0;
  uint64_t score_ns_ = 0;
};

/// The posting lists of a query's keywords, case-folded: one per keyword,
/// in keyword order. Empty when some keyword matches nothing — the result
/// set is then empty.
using KeywordLists = std::vector<const PostingList*>;

Result<KeywordLists> LookupKeywords(const XmlDatabase& db,
                                    const Query& query) {
  if (query.keywords.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  KeywordLists lists;
  lists.reserve(query.keywords.size());
  for (const std::string& keyword : query.keywords) {
    const PostingList* list = db.inverted().Find(ToLowerCopy(keyword));
    if (list == nullptr || list->empty()) return KeywordLists{};
    lists.push_back(list);
  }
  return lists;
}

/// Turns SLCAs (document order) into results: each is scoped to its master
/// entity and gets every keyword's postings inside its subtree. Two SLCAs
/// can share a master entity, and a later one's master entity can lie
/// inside an earlier kept root or enclose it, so a root is kept only when
/// it starts at or after the end of the last kept root's subtree: no kept
/// result contains another.
std::vector<QueryResult> AssembleResults(const XmlDatabase& db,
                                         const KeywordLists& keywords,
                                         const std::vector<NodeId>& slcas) {
  const IndexedDocument& doc = db.index();
  std::vector<QueryResult> results;
  NodeId kept_end = 0;
  for (NodeId slca : slcas) {
    const NodeId root = MasterEntityOf(doc, db.classification(), slca);
    if (root < kept_end) continue;
    kept_end = doc.subtree_end(root);
    QueryResult result;
    result.root = root;
    result.slca = slca;
    result.matches.resize(keywords.size());
    for (size_t k = 0; k < keywords.size(); ++k) {
      const std::vector<NodeId>& nodes = keywords[k]->nodes;
      auto lo = std::lower_bound(nodes.begin(), nodes.end(), root);
      auto hi = std::lower_bound(nodes.begin(), nodes.end(), kept_end);
      result.matches[k].assign(lo, hi);
    }
    results.push_back(std::move(result));
  }
  return results;
}

/// XSeek's producer: a bound before its one Pull, which runs the ILE over
/// the whole driving list and scores what AssembleResults keeps.
class XSeekResultProducer : public ResultProducer {
 public:
  XSeekResultProducer(const XmlDatabase* db, const RankingOptions* ranking,
                      KeywordLists keywords)
      : db_(db), ranking_(ranking), keywords_(std::move(keywords)) {
    // Every SLCA is an ancestor-or-self of a driving posting, so the
    // deepest driving posting caps its depth; a result can span the whole
    // document, so whole-list sizes cap its matches.
    const PostingList& driving = *keywords_[ShortestList(keywords_)];
    uint32_t max_depth = 0;
    for (NodeId v : driving.nodes) {
      max_depth = std::max(max_depth, db_->index().depth(v));
    }
    std::vector<size_t> max_matches;
    max_matches.reserve(keywords_.size());
    for (const PostingList* list : keywords_) {
      max_matches.push_back(list->size());
    }
    bound_ = extract::ScoreUpperBound(*ranking_, max_depth, max_matches);
    candidates_ = driving.size();
  }

  Status Pull(std::vector<RankedResult>* out) override {
    if (done_) return Status::OK();
    done_ = true;
    const auto enum_start = std::chrono::steady_clock::now();
    const std::vector<NodeId> slcas =
        ComputeSlcaIndexedLookupEager(db_->index(), keywords_);
    enumerate_ns_ = NsSince(enum_start);

    const auto score_start = std::chrono::steady_clock::now();
    for (QueryResult& result : AssembleResults(*db_, keywords_, slcas)) {
      const double score = ScoreResult(*db_, result, *ranking_);
      out->push_back(RankedResult{std::move(result), score});
    }
    score_ns_ = NsSince(score_start);
    return Status::OK();
  }

  bool Exhausted() const override { return done_; }

  double ScoreUpperBound() const override {
    return done_ ? -std::numeric_limits<double>::infinity() : bound_;
  }

  size_t candidates_total() const override { return candidates_; }
  size_t candidates_scored() const override {
    return done_ ? candidates_ : 0;
  }
  uint64_t enumerate_ns() const override { return enumerate_ns_; }
  uint64_t score_ns() const override { return score_ns_; }

 private:
  const XmlDatabase* db_;
  const RankingOptions* ranking_;
  KeywordLists keywords_;
  double bound_ = 0;
  size_t candidates_ = 0;
  bool done_ = false;
  uint64_t enumerate_ns_ = 0;
  uint64_t score_ns_ = 0;
};

/// A producer that is exhausted from the start (no-match queries): the
/// incremental image of Search returning an empty vector.
class EmptyResultProducer : public ResultProducer {
 public:
  Status Pull(std::vector<RankedResult>*) override { return Status::OK(); }
  bool Exhausted() const override { return true; }
  double ScoreUpperBound() const override {
    return -std::numeric_limits<double>::infinity();
  }
  size_t candidates_total() const override { return 0; }
  size_t candidates_scored() const override { return 0; }
};

}  // namespace

double SearchEngine::DocumentScoreBound(
    const RankingOptions& /*ranking*/,
    std::span<const TermDocStats> /*keyword_stats*/) const {
  return std::numeric_limits<double>::infinity();
}

double XSeekEngine::DocumentScoreBound(
    const RankingOptions& ranking,
    std::span<const TermDocStats> keyword_stats) const {
  uint32_t max_depth = std::numeric_limits<uint32_t>::max();
  size_t min_edges = 0;
  // Stack storage for typical queries: the bound runs once per candidate
  // document, so a heap allocation here would rival the bound's own cost.
  std::array<size_t, 16> inline_counts;
  std::vector<size_t> heap_counts;
  std::span<size_t> counts(inline_counts.data(), keyword_stats.size());
  if (keyword_stats.size() > inline_counts.size()) {
    heap_counts.resize(keyword_stats.size());
    counts = heap_counts;
  }
  for (size_t k = 0; k < keyword_stats.size(); ++k) {
    const TermDocStats& stats = keyword_stats[k];
    counts[k] = stats.postings;
    max_depth = std::min(max_depth, stats.max_depth);
    min_edges = std::max<size_t>(min_edges, stats.min_entity_edges);
  }
  return ScoreUpperBound(ranking, max_depth, counts, min_edges);
}

Result<std::unique_ptr<ResultProducer>> SearchEngine::OpenIncremental(
    const XmlDatabase& db, const Query& query, const RankingOptions& ranking,
    size_t top_k_hint) const {
  return std::unique_ptr<ResultProducer>(
      new BlockingResultProducer(this, &db, &query, &ranking, top_k_hint));
}

Result<std::unique_ptr<ResultProducer>> XSeekEngine::OpenIncremental(
    const XmlDatabase& db, const Query& query, const RankingOptions& ranking,
    size_t /*top_k_hint*/) const {
  KeywordLists keywords;
  EXTRACT_ASSIGN_OR_RETURN(keywords, LookupKeywords(db, query));
  if (keywords.empty()) {
    return std::unique_ptr<ResultProducer>(new EmptyResultProducer());
  }
  return std::unique_ptr<ResultProducer>(
      new XSeekResultProducer(&db, &ranking, std::move(keywords)));
}

Result<std::vector<QueryResult>> XSeekEngine::Search(const XmlDatabase& db,
                                                     const Query& query) const {
  EXTRACT_INJECT_FAULT("search.execute");
  KeywordLists keywords;
  EXTRACT_ASSIGN_OR_RETURN(keywords, LookupKeywords(db, query));
  if (keywords.empty()) return std::vector<QueryResult>{};

  return AssembleResults(
      db, keywords, ComputeSlcaIndexedLookupEager(db.index(), keywords));
}

}  // namespace extract

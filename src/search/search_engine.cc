#include "search/search_engine.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>

#include "common/fault.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "search/ranking.h"
#include "search/slca.h"
#include "xml/parser.h"

namespace extract {

Result<XmlDatabase> XmlDatabase::Load(std::string_view xml,
                                      const LoadOptions& options) {
  EXTRACT_INJECT_FAULT("db.load");
  std::unique_ptr<XmlDocument> doc;
  EXTRACT_ASSIGN_OR_RETURN(doc, ParseXml(xml));
  return FromDocument(std::move(doc), options);
}

Result<XmlDatabase> XmlDatabase::Load(std::string_view xml) {
  return Load(xml, LoadOptions{});
}

Result<XmlDatabase> XmlDatabase::FromDocument(std::unique_ptr<XmlDocument> doc,
                                              const LoadOptions& options) {
  EXTRACT_INJECT_FAULT("index.document.build");
  IndexedDocument index;
  EXTRACT_ASSIGN_OR_RETURN(index, IndexedDocument::Build(*doc));
  return FromIndexedDocument(std::move(index),
                             doc->has_dtd() ? &doc->dtd() : nullptr, options);
}

Result<XmlDatabase> XmlDatabase::FromIndexedDocument(IndexedDocument index,
                                                     const Dtd* dtd,
                                                     const LoadOptions& options) {
  EXTRACT_INJECT_FAULT("index.partitions.build");
  XmlDatabase db;
  db.index_ = std::make_unique<IndexedDocument>(std::move(index));
  db.partitions_ = IndexPartitions::Build(*db.index_, options.partitioning);
  db.classification_ = NodeClassification::Classify(*db.index_, dtd);
  db.keys_ = KeyIndex::Mine(*db.index_, db.classification_);
  db.inverted_ = InvertedIndex::Build(*db.index_);
  return db;
}

XmlDatabase XmlDatabase::FromParts(IndexedDocument index,
                                   IndexPartitions partitions,
                                   NodeClassification classification,
                                   KeyIndex keys, InvertedIndex inverted) {
  XmlDatabase db;
  db.index_ = std::make_unique<IndexedDocument>(std::move(index));
  db.partitions_ = std::move(partitions);
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

/// Drops the roots that repeat or overlap an earlier result: SLCAs arrive
/// in document order, two of them can share a master entity, and a later
/// one's master entity can lie inside an earlier kept root or enclose it.
/// A root is kept only when it starts at or after the end of the last kept
/// root's subtree, so no kept result contains another, in a single
/// one-element lookbehind — a stream of chunks keeps exactly what one pass
/// over all SLCAs does, and no kept root is ever taken back.
class RootDedup {
 public:
  bool Keep(const IndexedDocument& doc, NodeId root) {
    if (root < end_) return false;
    end_ = doc.subtree_end(root);
    return true;
  }

 private:
  NodeId end_ = 0;
};

/// Fills `result.matches` with each keyword's postings inside the result
/// subtree.
void AttachMatches(const IndexedDocument& doc, const KeywordLists& keywords,
                   QueryResult& result) {
  const NodeId begin = result.root;
  const NodeId end = doc.subtree_end(result.root);
  result.matches.resize(keywords.size());
  for (size_t k = 0; k < keywords.size(); ++k) {
    const std::vector<NodeId>& nodes = keywords[k]->nodes;
    auto lo = std::lower_bound(nodes.begin(), nodes.end(), begin);
    auto hi = std::lower_bound(nodes.begin(), nodes.end(), end);
    result.matches[k].assign(lo, hi);
  }
}

/// XSeek's incremental producer: one SlcaEnumerator chunk per Pull, each
/// SLCA scoped, deduplicated and given its matches by the same steps as
/// Search, then scored.
class XSeekResultProducer : public ResultProducer {
 public:
  XSeekResultProducer(const XmlDatabase* db, const RankingOptions* ranking,
                      KeywordLists keywords)
      : db_(db),
        ranking_(ranking),
        keywords_(std::move(keywords)),
        enumerator_(db->index(), keywords_, db->partitions()) {
    // Frequency envelope for the score bound: per-keyword whole-list sizes.
    // A future result can span up to the whole document, so a tighter
    // per-chunk envelope would be unsound; the depth cap (which the
    // enumerator does shrink as it scans) carries the tightening.
    max_matches_.reserve(keywords_.size());
    for (const PostingList* list : keywords_) {
      max_matches_.push_back(list->size());
    }
  }

  Status Pull(std::vector<RankedResult>* out) override {
    if (Exhausted()) return Status::OK();
    const auto enum_start = std::chrono::steady_clock::now();
    std::vector<NodeId> slcas;
    enumerator_.NextChunk(&slcas);
    enumerate_ns_ += NsSince(enum_start);

    const auto score_start = std::chrono::steady_clock::now();
    for (NodeId slca : slcas) {
      const NodeId root =
          MasterEntityOf(db_->index(), db_->classification(), slca);
      if (!dedup_.Keep(db_->index(), root)) continue;
      QueryResult result;
      result.root = root;
      result.slca = slca;
      AttachMatches(db_->index(), keywords_, result);
      const double score = ScoreResult(*db_, result, *ranking_);
      out->push_back(RankedResult{std::move(result), score});
    }
    score_ns_ += NsSince(score_start);
    return Status::OK();
  }

  bool Exhausted() const override { return enumerator_.exhausted(); }

  double ScoreUpperBound() const override {
    if (Exhausted()) return -std::numeric_limits<double>::infinity();
    return extract::ScoreUpperBound(*ranking_, enumerator_.DepthBound(),
                                    max_matches_);
  }

  size_t candidates_total() const override {
    return enumerator_.driving_size();
  }
  size_t candidates_scored() const override { return enumerator_.scanned(); }
  uint64_t enumerate_ns() const override { return enumerate_ns_; }
  uint64_t score_ns() const override { return score_ns_; }

 private:
  const XmlDatabase* db_;
  const RankingOptions* ranking_;
  KeywordLists keywords_;
  SlcaEnumerator enumerator_;
  std::vector<size_t> max_matches_;
  RootDedup dedup_;
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

  // Intra-document partition parallelism: on when the document was loaded
  // with more than one partition and the options allow it. Every parallel
  // region below is a pure fan-out into pre-sized slots merged in a fixed
  // order, so the partitioned path is byte-identical to the sequential one.
  const bool partitioned =
      db.partitions().count() > 1 && options_.partition_threads != 1;

  std::vector<NodeId> slcas =
      partitioned ? ComputeSlcaIndexedLookupEagerPartitioned(
                        db.index(), keywords, db.partitions(),
                        options_.partition_threads)
                  : ComputeSlcaIndexedLookupEager(db.index(), keywords);

  // Scope each SLCA to its master entity. The ancestor walks are
  // independent, so the partitioned path runs them in parallel; the dedup
  // scan stays sequential (it is order-dependent and linear).
  std::vector<NodeId> roots(slcas.size());
  auto scope_roots = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      roots[i] = MasterEntityOf(db.index(), db.classification(), slcas[i]);
    }
  };
  if (partitioned) {
    ParallelForChunked(slcas.size(), options_.partition_threads, scope_roots);
  } else {
    scope_roots(0, slcas.size());
  }
  std::vector<QueryResult> results;
  RootDedup dedup;
  for (size_t i = 0; i < slcas.size(); ++i) {
    if (!dedup.Keep(db.index(), roots[i])) continue;
    QueryResult result;
    result.root = roots[i];
    result.slca = slcas[i];
    results.push_back(std::move(result));
  }

  // Each result fills only its own slot, so the partitioned path copies
  // match ranges in parallel.
  auto attach_matches = [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      AttachMatches(db.index(), keywords, results[r]);
    }
  };
  if (partitioned) {
    ParallelForChunked(results.size(), options_.partition_threads,
                       attach_matches);
  } else {
    attach_matches(0, results.size());
  }
  return results;
}

}  // namespace extract

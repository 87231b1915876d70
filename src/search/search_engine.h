// The XML keyword search substrate: a loaded-and-analyzed database, keyword
// queries, query results, and pluggable search engines.
//
// eXtract itself is orthogonal to result generation (paper §3: "the query
// results can be generated by any XML keyword search engine") — the snippet
// pipeline consumes QueryResults whoever produced them. This module provides
// the XSeek-lite engine the paper's demo uses, built on SLCA.

#ifndef EXTRACT_SEARCH_SEARCH_ENGINE_H_
#define EXTRACT_SEARCH_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/indexed_document.h"
#include "index/inverted_index.h"
#include "schema/key_miner.h"
#include "schema/node_classifier.h"
#include "xml/dom.h"

namespace extract {

/// Database loading knobs: none. Loading always parses under the default
/// hostile-input caps (xml/parse_limits.h), parses the document's DTD
/// (which then decides *-nodes during classification; the database keeps
/// the classification, not the DTD), expands XML attributes into child
/// elements, and matches keywords as case-folded tokens (TokenizeWords) in
/// the index, the engine's keyword lookup and the snippet instance lookup
/// alike. The empty struct stays only as FromDocument's parameter.
struct LoadOptions {};

/// \brief An XML document loaded, flattened, classified and indexed — the
/// output of the paper's Data Analyzer and Index Builder (Figure 4) and the
/// shared context of search and snippet generation.
///
/// It holds only what queries read: the flattened document, the per-node
/// classification, the mined keys and the inverted index. Neither the DOM
/// nor its DTD is kept; the DTD's effect survives as the classification.
class XmlDatabase {
 public:
  /// Parses and analyzes an XML document from text.
  static Result<XmlDatabase> Load(std::string_view xml);

  /// Analyzes an already-parsed document (takes ownership). `options` is
  /// empty and unread.
  static Result<XmlDatabase> FromDocument(std::unique_ptr<XmlDocument> doc,
                                          const LoadOptions& options);

  /// Builds a database around an already-flattened document, building the
  /// derived structures (classification, keys, inverted index). `dtd` may
  /// be null; it is read only to classify nodes and is not retained.
  static Result<XmlDatabase> FromIndexedDocument(IndexedDocument index,
                                                 const Dtd* dtd);

  /// \brief Assembles a database from fully restored parts WITHOUT
  /// rebuilding any derived structure — the corpus snapshot fault-in path
  /// (search/corpus_snapshot.h), where classification, keys and the
  /// inverted index were persisted alongside the columns.
  ///
  /// The parts must be mutually consistent (built from the same
  /// document); callers get that from checksummed snapshot sections, not
  /// from validation here.
  static XmlDatabase FromParts(IndexedDocument index,
                               NodeClassification classification,
                               KeyIndex keys, InvertedIndex inverted);

  const IndexedDocument& index() const { return *index_; }
  const NodeClassification& classification() const { return classification_; }
  const KeyIndex& keys() const { return keys_; }
  const InvertedIndex& inverted() const { return inverted_; }

  XmlDatabase(XmlDatabase&&) = default;
  XmlDatabase& operator=(XmlDatabase&&) = default;

 private:
  XmlDatabase() = default;

  std::unique_ptr<IndexedDocument> index_;
  NodeClassification classification_;
  KeyIndex keys_;
  InvertedIndex inverted_;
};

/// \brief A keyword query.
struct Query {
  /// Lower-cased keyword tokens in user order (used for matching).
  std::vector<std::string> keywords;
  /// The tokens as the user typed them (used for display), parallel to
  /// `keywords`.
  std::vector<std::string> raw_keywords;

  /// Tokenizes free text ("Texas, apparel, retailer") into a query.
  static Query Parse(std::string_view text);

  std::string ToString() const;
};

/// \brief One query result: a subtree of the database document.
///
/// The result is a *view* — the root id plus the keyword match nodes inside
/// it; the subtree is the pre-order interval [root, subtree_end(root)).
struct QueryResult {
  NodeId root = kInvalidNode;
  /// The SLCA node this result was derived from (XSeek's root is its
  /// master entity, MasterEntityOf).
  NodeId slca = kInvalidNode;
  /// Element nodes matching each keyword, parallel to Query::keywords.
  std::vector<std::vector<NodeId>> matches;
};

// Defined in search/ranking.h, which layers on this header; the incremental
// API below only names them through pointers/references, so forward
// declarations avoid the cycle.
struct RankingOptions;
struct RankedResult;

/// \brief What a snapshot's term directory (search/corpus_snapshot.h)
/// records for one (token, document) pair: enough to bound the score of any
/// result over the document without opening it. The directory lists a
/// document under a token only when the token has postings there, so
/// `postings` is never zero.
struct TermDocStats {
  /// Length of the token's posting list in the document.
  uint32_t postings = 0;
  /// Depth of the token's deepest posting.
  uint32_t max_depth = 0;
  /// Fewest subtree edges of any posting's master entity (MasterEntityOf).
  uint32_t min_entity_edges = 0;
};

/// \brief A lazy scored-result producer over one document — the incremental
/// counterpart of SearchEngine::Search, opened via OpenIncremental.
///
/// A producer emits the document's results over one or more Pulls, scoring
/// each with ScoreResult under the ranking options it was opened with, and
/// maintains a sound upper bound on the score of anything it has not yet
/// emitted. The corpus-level threshold merge
/// (XmlCorpus::SearchTopK) pulls producers only while their bound can still
/// beat the page under construction — the early termination that makes
/// top-k serving touch a frontier instead of the whole corpus.
///
/// A producer borrows everything its open call received (database, query,
/// ranking options, the engine itself) — they must outlive it. Producers
/// are single-threaded objects: calls must be externally serialized,
/// though different producers may run concurrently.
class ResultProducer {
 public:
  virtual ~ResultProducer() = default;

  /// Advances one step, appending the newly-settled results (scored; the
  /// emission order within and across calls is unspecified — consumers
  /// treat the union as a set) to *out, possibly none. A call may be made
  /// after exhaustion (it is a no-op); an error is sticky and terminal.
  virtual Status Pull(std::vector<RankedResult>* out) = 0;

  /// True once no future Pull can append anything.
  virtual bool Exhausted() const = 0;

  /// Sound upper bound on the score of any result a future Pull may
  /// append; non-increasing across Pulls, -infinity once exhausted.
  virtual double ScoreUpperBound() const = 0;

  /// Enumeration-cost counters: candidates a full run would score vs.
  /// candidates actually scanned so far (early-termination visibility).
  virtual size_t candidates_total() const = 0;
  virtual size_t candidates_scored() const = 0;

  /// Nanoseconds spent enumerating candidates / scoring results so far,
  /// for the corpus's "search.enumerate" / "search.score" stage stats.
  virtual uint64_t enumerate_ns() const { return 0; }
  virtual uint64_t score_ns() const { return 0; }
};

/// \brief Interface of a pluggable XML keyword search engine.
class SearchEngine {
 public:
  virtual ~SearchEngine() = default;

  /// Evaluates `query` against `db`; results in document order.
  ///
  /// Must be safe to call concurrently (possibly for different databases).
  /// One corpus shares its engine across every request in flight, and each
  /// request searches on its own thread; within one request, the corpus
  /// drives one document's producer at a time. A const, stateless
  /// implementation — like XSeekEngine — qualifies automatically; engines
  /// with internal mutable state (memoization etc.) must synchronize it
  /// themselves, or callers must serialize requests.
  virtual Result<std::vector<QueryResult>> Search(const XmlDatabase& db,
                                                  const Query& query) const = 0;

  /// \brief True when Search/OpenIncremental over any database is
  /// guaranteed empty (a successful no-hit run, not an error) whenever some
  /// query keyword, case-folded, is absent from that database's inverted
  /// index — i.e. the engine requires every keyword to match (AND
  /// semantics).
  ///
  /// The snapshot-backed corpus uses this to take its candidate documents
  /// from the snapshot's term directory WITHOUT faulting them in: a document
  /// the directory does not list for every keyword contributes exactly what
  /// its empty search would have, so results are byte-identical and only
  /// the work changes. The conservative default (false) searches every
  /// document for engines with unknown semantics.
  virtual bool RequiresAllKeywords() const { return false; }

  /// \brief A sound upper bound on the score (ScoreResult under `ranking`)
  /// of every result Search would return over a document, computed from
  /// the term directory alone. `keyword_stats` is parallel to the query's
  /// keywords, one directory entry per keyword.
  ///
  /// Consulted only for engines that RequiresAllKeywords, only for a query
  /// with at least one keyword, and only for a document the directory lists
  /// under every keyword. SearchTopK opens and faults in a snapshot
  /// document only once its bound could still place a hit on the page.
  /// The default (+infinity: no bound) opens every candidate up front.
  virtual double DocumentScoreBound(
      const RankingOptions& ranking,
      std::span<const TermDocStats> keyword_stats) const;

  /// \brief Opens an incremental producer for `query` over `db`.
  ///
  /// The produced results, concatenated to exhaustion, must be exactly
  /// Search(db, query) scored with ScoreResult — the blocking and
  /// incremental paths are two schedules of the same answer. `top_k_hint`
  /// (0 = unbounded) tells the producer how many results the caller can
  /// ever use per document, enabling ranked truncation inside the producer.
  ///
  /// The default adapter wraps the blocking Search: its first Pull runs the
  /// whole search and ranks the best top_k_hint results, so any engine
  /// participates in top-k serving, just without early termination.
  /// `db`, `query`, `ranking` and the engine are borrowed until the
  /// producer is destroyed.
  virtual Result<std::unique_ptr<ResultProducer>> OpenIncremental(
      const XmlDatabase& db, const Query& query, const RankingOptions& ranking,
      size_t top_k_hint) const;
};

/// \brief SLCA + master-entity search engine (XSeek-lite).
///
/// Each result is the subtree rooted at the lowest entity ancestor-or-self
/// of an SLCA (its "master entity"): self-contained results, like XSeek's
/// output for the paper's examples. An SLCA whose root overlaps the last
/// kept root (the same root, one inside it, or one enclosing it) yields no
/// further result, so no result contains another.
class XSeekEngine : public SearchEngine {
 public:
  Result<std::vector<QueryResult>> Search(const XmlDatabase& db,
                                          const Query& query) const override;

  /// SLCA intersects all keyword posting lists: any missing keyword means
  /// an empty (successful) result, so snapshot pruning is sound.
  bool RequiresAllKeywords() const override { return true; }

  /// ScoreUpperBound over the directory envelope: an SLCA lies at or above
  /// a posting of every keyword (depth <= the smallest per-keyword maximum),
  /// a result holds at most every posting, and its root is an
  /// ancestor-or-self of some posting's master entity of every keyword
  /// (edges >= the largest per-keyword minimum).
  double DocumentScoreBound(
      const RankingOptions& ranking,
      std::span<const TermDocStats> keyword_stats) const override;

  /// \brief A producer whose bound is known before it searches: its one
  /// Pull runs Search's SLCA computation and result assembly and scores
  /// the results. Until then it advertises ScoreUpperBound over the depth
  /// of the driving (shortest) posting list's deepest posting and the
  /// whole-list sizes, so the corpus merge can leave a document whose
  /// bound cannot reach the page unsearched.
  Result<std::unique_ptr<ResultProducer>> OpenIncremental(
      const XmlDatabase& db, const Query& query, const RankingOptions& ranking,
      size_t top_k_hint) const override;
};

/// The lowest entity node that is an ancestor-or-self of `n` (the result's
/// "master entity"); falls back to the document root if none exists.
NodeId MasterEntityOf(const IndexedDocument& doc,
                      const NodeClassification& classification, NodeId n);

}  // namespace extract

#endif  // EXTRACT_SEARCH_SEARCH_ENGINE_H_

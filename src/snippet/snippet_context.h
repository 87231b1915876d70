// Per-query shared state of snippet generation.
//
// All results of one query are summarized against the same database with
// the same keywords, so everything that depends only on (query,
// result_root) can be computed once and shared: the per-result feature
// statistics, the return entity and the result key. Each is a lookup over
// the database's per-label entity and attribute columns
// (NodeClassification), clipped to the result's id range, so its cost
// follows the entities and attributes in the result rather than its node
// count. Attribute values are counted and matched by their id in the
// database's value dictionary, never by string compare. SnippetContext
// memoizes all three behind a mutex, so one context may be shared across
// threads. Serving builds one context per page and uses it on the
// request's thread; repeated calls for the same query reuse it, e.g. the
// shell regenerating snippets at a new size bound.
//
// The IList and the instance selection are not memoized: both depend on
// the snippet options, and serving sees each root once per context, so a
// memo would only add a key and a map insert per snippet. The selection
// looks up an item's instances only while the edge budget is open
// (snippet/instance_selector.h), which costs less than the lookup a memo
// would save.
//
// Memoized values are deterministic functions of their keys, so sharing a
// context never changes output, only cost.

#ifndef EXTRACT_SNIPPET_SNIPPET_CONTEXT_H_
#define EXTRACT_SNIPPET_SNIPPET_CONTEXT_H_

#include <cstddef>
#include <map>
#include <mutex>

#include "search/search_engine.h"
#include "snippet/feature_statistics.h"
#include "snippet/result_key.h"
#include "snippet/return_entity.h"

namespace extract {

/// \brief Shared, thread-safe cache for generating the snippets of one
/// query's results. Not copyable or movable (callers hold references).
///
/// Every lookup runs on the calling thread. The key scan stops at the
/// first return-entity instance that carries the key.
class SnippetContext {
 public:
  /// `db` must outlive the context.
  SnippetContext(const XmlDatabase* db, Query query);

  SnippetContext(const SnippetContext&) = delete;
  SnippetContext& operator=(const SnippetContext&) = delete;

  const XmlDatabase& db() const { return *db_; }
  const Query& query() const { return query_; }

  /// Feature statistics of the result rooted at `result_root` (§2.3),
  /// computed on first use. The reference stays valid for the context's
  /// lifetime.
  const FeatureStatistics& StatisticsFor(NodeId result_root);

  /// Return entity of the result (§2.2), memoized per root.
  const ReturnEntityInfo& ReturnEntityFor(NodeId result_root);

  /// Result key of the result (§2.2), memoized per root. Uses
  /// ReturnEntityFor internally.
  const ResultKeyInfo& ResultKeyFor(NodeId result_root);

  /// Cache effectiveness counters (for tests and the benchmarks).
  struct CacheStats {
    size_t hits = 0;
    size_t misses = 0;
  };
  CacheStats statistics_cache() const;

 private:
  const XmlDatabase* db_;
  Query query_;

  mutable std::mutex mu_;
  // Node-based maps: references to values stay valid across inserts.
  std::map<NodeId, FeatureStatistics> statistics_;
  std::map<NodeId, ReturnEntityInfo> return_entities_;
  std::map<NodeId, ResultKeyInfo> result_keys_;
  CacheStats statistics_stats_;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_CONTEXT_H_

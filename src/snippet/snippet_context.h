// Per-query shared state of snippet generation.
//
// All results of one query are summarized against the same database with
// the same keywords, so everything that depends only on (query,
// result_root) can be computed once and shared: the per-result feature
// statistics, the return entity and result key, and the item instances.
// Each is a lookup over the database's per-label entity and attribute
// columns (NodeClassification) and its posting lists, clipped to the
// result's id range, so its cost follows the entities, attributes and
// keyword matches in the result rather than its node count. Attribute
// values are counted and matched by their id in the database's value
// dictionary, never by string compare. SnippetContext
// memoizes all of them behind a mutex, so one context can be shared by
// every worker of a parallel batch (snippet/snippet_service.h) — and by
// repeated calls for the same query, e.g. the shell regenerating snippets
// at a new size bound.
//
// Memoized values are deterministic functions of their keys, so sharing a
// context never changes output, only cost.

#ifndef EXTRACT_SNIPPET_SNIPPET_CONTEXT_H_
#define EXTRACT_SNIPPET_SNIPPET_CONTEXT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "search/search_engine.h"
#include "snippet/feature_statistics.h"
#include "snippet/ilist.h"
#include "snippet/instance_selector.h"
#include "snippet/result_key.h"
#include "snippet/return_entity.h"

namespace extract {

/// \brief Shared, thread-safe cache for generating the snippets of one
/// query's results. Not copyable or movable (workers hold references).
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

  /// Item instances of `ilist` inside the result (§2.4), memoized per
  /// (root, IList content) — re-generating at a different size bound reuses
  /// the lookup, a different feature ordering does not collide.
  const std::vector<ItemInstances>& InstancesFor(NodeId result_root,
                                                 const IList& ilist);

  /// Cache effectiveness counters (for tests and the benchmarks).
  struct CacheStats {
    size_t hits = 0;
    size_t misses = 0;
  };
  CacheStats statistics_cache() const;
  CacheStats instances_cache() const;

 private:
  const XmlDatabase* db_;
  Query query_;

  mutable std::mutex mu_;
  // Node-based maps: references to values stay valid across inserts.
  std::map<NodeId, FeatureStatistics> statistics_;
  std::map<NodeId, ReturnEntityInfo> return_entities_;
  std::map<NodeId, ResultKeyInfo> result_keys_;
  std::map<std::pair<NodeId, uint64_t>, std::vector<ItemInstances>>
      instances_;
  CacheStats statistics_stats_;
  CacheStats instances_stats_;
};

/// Order-sensitive content fingerprint of an IList: FNV-1a over every item
/// field the instance lookup reads (kind, token bytes, entity label,
/// attribute label and value id; not the value's bytes, which the id names
/// within the context's document). Collisions are astronomically unlikely
/// and would only merge two lookups of the same result root.
uint64_t FingerprintIList(const IList& ilist);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_CONTEXT_H_

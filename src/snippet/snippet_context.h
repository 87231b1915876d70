// Per-query shared state of snippet generation.
//
// All results of one query are summarized against the same database with
// the same keywords, so everything that depends only on (query,
// result_root) can be computed once and shared: the per-result feature
// statistics scan (the dominant cost of the paper's Figure 4 pipeline), the
// return entity and result key, and the item-instance scans. SnippetContext
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
#include "snippet/stage_stats.h"

namespace extract {

/// \brief Shared, thread-safe cache for generating the snippets of one
/// query's results. Not copyable or movable (workers hold references).
///
/// The memoized statistics, entity and instance scans of a result that
/// spans more than one of the database's index partitions run as
/// partition-parallel reductions on the shared pool's configured width;
/// scans issued from inside a thread-pool task (e.g. a parallel snippet
/// batch) run inline, so the batch and partition axes never oversubscribe
/// the pool. Never affects scan results, only latency. The key scan stops
/// at the first return-entity instance that carries the key, so it always
/// runs sequentially.
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
  /// the scan, a different feature ordering does not collide.
  const std::vector<ItemInstances>& InstancesFor(NodeId result_root,
                                                 const IList& ilist);

  /// Cache effectiveness counters (for tests and the benchmarks).
  struct CacheStats {
    size_t hits = 0;
    size_t misses = 0;
  };
  CacheStats statistics_cache() const;
  CacheStats instances_cache() const;

  /// \brief Wall clock of the context's partition-parallel scans, as
  /// pseudo-stages "scan.statistics", "scan.entity" and "scan.instances"
  /// (one call per scan). Merged into the corpus-level stage stats by
  /// XmlCorpus::GenerateSnippets. Empty until a partition-parallel scan has
  /// run.
  std::vector<StageStat> ScanStatsSnapshot() const {
    return scan_stats_.Snapshot();
  }

 private:
  /// The result interval clipped against the database's partition grid —
  /// computed once per scan and shared by the fan-out decision and the
  /// scan itself. Empty means "scan sequentially" (single partition or
  /// single-slice result).
  std::vector<NodeRange> PartitionSlicesFor(NodeId result_root) const;

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
  /// Observability only: internally synchronized, never affects results.
  StageStatsRegistry scan_stats_;
};

/// Order-sensitive content fingerprint of an IList (FNV-1a over every item
/// field the instance scan reads). Collisions are astronomically unlikely
/// and would only merge two scans of the same result root.
uint64_t FingerprintIList(const IList& ilist);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_CONTEXT_H_

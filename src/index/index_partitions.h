// Index partitions: the intra-document shard axis.
//
// Corpus search walks its documents one by one (search/corpus.h); one
// giant document would serialize its SLCA posting traversal. An
// IndexPartitions splits the pre-order node range [0, num_nodes) of one
// IndexedDocument into contiguous partitions at load time, so XSeek's SLCA
// search can fan each partition out as one ParallelFor index and merge at
// partition boundaries. The snippet stages do not fan out: their lookups
// read per-label columns and posting lists clipped to the result, so their
// cost does not grow with the result's node count.
//
// Partitions are pure intervals over NodeIds. They deliberately do NOT
// align to subtree boundaries: an SLCA witness may straddle a partition,
// and the partitioned SLCA merges candidates at partition boundaries so
// its output is byte-identical to the sequential search for every
// partition count.

#ifndef EXTRACT_INDEX_INDEX_PARTITIONS_H_
#define EXTRACT_INDEX_INDEX_PARTITIONS_H_

#include <cstddef>
#include <vector>

#include "index/indexed_document.h"

namespace extract {

/// Build-time partitioning knobs (LoadOptions carries one of these).
struct IndexPartitionOptions {
  /// Aim for this many nodes per partition. Small documents end up with a
  /// single partition, which is exactly the sequential reference path; the
  /// default keeps per-partition work far above task-dispatch cost.
  size_t target_nodes_per_partition = 16384;

  /// Hard cap on the partition count (0 = no cap beyond what the target
  /// implies). Bounds per-query merge state on pathologically huge inputs.
  size_t max_partitions = 64;
};

/// One contiguous node range [begin, end) of the grid.
struct NodeRange {
  NodeId begin = 0;
  NodeId end = 0;

  size_t size() const { return static_cast<size_t>(end - begin); }
  bool empty() const { return begin >= end; }
};

/// \brief The partition grid of one document: contiguous NodeId ranges
/// covering [0, num_nodes) exactly. Immutable after Build, so it is shared
/// freely across query threads, like the IndexedDocument it partitions.
class IndexPartitions {
 public:
  /// A single all-covering partition (the sequential layout). Used as the
  /// default so an un-partitioned database behaves exactly as before.
  IndexPartitions() : bounds_{0, 0} {}

  /// Partitions `doc` per `options`. Always produces at least one
  /// partition; every partition is non-empty (except for an empty doc).
  static IndexPartitions Build(const IndexedDocument& doc,
                               const IndexPartitionOptions& options);

  /// \brief Restores a grid from its stored bound array (the corpus
  /// snapshot loader's path — the grid is persisted instead of re-derived
  /// so snapshot-backed serving shards exactly like the original load).
  /// Requires bounds[0] == 0 and strictly ascending interior bounds;
  /// returns InvalidArgument otherwise.
  static Result<IndexPartitions> FromBounds(std::vector<NodeId> bounds);

  /// Partition bound array (size count() + 1, bounds()[0] == 0) — the
  /// persisted form consumed by FromBounds.
  const std::vector<NodeId>& bounds() const { return bounds_; }

  /// Number of partitions (>= 1).
  size_t count() const { return bounds_.size() - 1; }

  /// Partition p's node range.
  NodeRange partition(size_t p) const {
    return NodeRange{bounds_[p], bounds_[p + 1]};
  }

  /// One past the last node of the grid (== num_nodes at Build time).
  NodeId total_end() const { return bounds_.back(); }

 private:
  /// bounds_[p] .. bounds_[p+1] delimit partition p; bounds_.front() == 0.
  std::vector<NodeId> bounds_;
};

}  // namespace extract

#endif  // EXTRACT_INDEX_INDEX_PARTITIONS_H_

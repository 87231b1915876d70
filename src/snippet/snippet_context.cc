#include "snippet/snippet_context.h"

#include <chrono>
#include <utility>

#include "common/thread_pool.h"

namespace extract {

namespace {

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ull;
  return h;
}

inline uint64_t FnvMixString(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = FnvMix(h, c);
  return FnvMix(h, 0xffull);  // terminator so "ab","c" != "a","bc"
}

}  // namespace

uint64_t FingerprintIList(const IList& ilist) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const IListItem& item : ilist.items()) {
    h = FnvMix(h, static_cast<uint64_t>(item.kind));
    h = FnvMixString(h, item.token);
    h = FnvMix(h, static_cast<uint64_t>(item.entity_label));
    h = FnvMix(h, static_cast<uint64_t>(item.attribute_label));
    h = FnvMixString(h, item.value);
  }
  return h;
}

SnippetContext::SnippetContext(const XmlDatabase* db, Query query)
    : db_(db), query_(std::move(query)) {}

std::vector<NodeRange> SnippetContext::PartitionSlicesFor(
    NodeId result_root) const {
  if (db_->partitions().count() <= 1) return {};
  // Worth fanning out only when the result actually spans partitions: a
  // result inside one partition is a sequential scan either way.
  std::vector<NodeRange> slices = db_->partitions().Clip(
      result_root, db_->index().subtree_end(result_root));
  if (slices.size() <= 1) return {};
  return slices;
}

const FeatureStatistics& SnippetContext::StatisticsFor(NodeId result_root) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = statistics_.find(result_root);
    if (it != statistics_.end()) {
      ++statistics_stats_.hits;
      return it->second;
    }
  }
  // Compute outside the lock; concurrent first-callers may duplicate work
  // for the same root, but the result is deterministic and the first insert
  // wins.
  FeatureStatistics stats;
  const std::vector<NodeRange> slices = PartitionSlicesFor(result_root);
  if (!slices.empty()) {
    const auto scan_start = std::chrono::steady_clock::now();
    std::vector<FeatureStatistics> partials(slices.size());
    ParallelFor(slices.size(), /*num_threads=*/0, [&](size_t s) {
      partials[s] = FeatureStatistics::ComputeRange(
          db_->index(), db_->classification(), result_root, slices[s].begin,
          slices[s].end);
    });
    stats = std::move(partials[0]);
    for (size_t s = 1; s < partials.size(); ++s) stats.MergeFrom(partials[s]);
    scan_stats_.Record("scan.statistics", ElapsedNsSince(scan_start));
  } else {
    stats = FeatureStatistics::Compute(db_->index(), db_->classification(),
                                       result_root);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = statistics_.emplace(result_root, std::move(stats));
  if (inserted) ++statistics_stats_.misses;
  return it->second;
}

const ReturnEntityInfo& SnippetContext::ReturnEntityFor(NodeId result_root) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = return_entities_.find(result_root);
    if (it != return_entities_.end()) return it->second;
  }
  ReturnEntityInfo info;
  const std::vector<NodeRange> slices = PartitionSlicesFor(result_root);
  if (!slices.empty()) {
    const auto scan_start = std::chrono::steady_clock::now();
    info = IdentifyReturnEntity(db_->index(), db_->classification(), query_,
                                result_root, slices, /*num_threads=*/0);
    scan_stats_.Record("scan.entity", ElapsedNsSince(scan_start));
  } else {
    info = IdentifyReturnEntity(db_->index(), db_->classification(), query_,
                                result_root);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return return_entities_.emplace(result_root, std::move(info)).first->second;
}

const ResultKeyInfo& SnippetContext::ResultKeyFor(NodeId result_root) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = result_keys_.find(result_root);
    if (it != result_keys_.end()) return it->second;
  }
  const ReturnEntityInfo& entity = ReturnEntityFor(result_root);
  ResultKeyInfo key = IdentifyResultKey(
      db_->index(), db_->classification(), db_->keys(), entity, result_root);
  std::lock_guard<std::mutex> lock(mu_);
  return result_keys_.emplace(result_root, std::move(key)).first->second;
}

const std::vector<ItemInstances>& SnippetContext::InstancesFor(
    NodeId result_root, const IList& ilist) {
  const std::pair<NodeId, uint64_t> cache_key(result_root,
                                              FingerprintIList(ilist));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instances_.find(cache_key);
    if (it != instances_.end()) {
      ++instances_stats_.hits;
      return it->second;
    }
  }
  std::vector<ItemInstances> found;
  const std::vector<NodeRange> slices = PartitionSlicesFor(result_root);
  if (!slices.empty()) {
    const auto scan_start = std::chrono::steady_clock::now();
    found = FindItemInstancesPartitioned(db_->index(), db_->classification(),
                                         result_root, ilist, slices,
                                         /*num_threads=*/0);
    scan_stats_.Record("scan.instances", ElapsedNsSince(scan_start));
  } else {
    found = FindItemInstances(db_->index(), db_->classification(), result_root,
                              ilist);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = instances_.emplace(cache_key, std::move(found));
  if (inserted) ++instances_stats_.misses;
  return it->second;
}

SnippetContext::CacheStats SnippetContext::statistics_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  return statistics_stats_;
}

SnippetContext::CacheStats SnippetContext::instances_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instances_stats_;
}

}  // namespace extract

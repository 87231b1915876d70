#include "snippet/snippet_context.h"

#include <utility>

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
    h = FnvMix(h, static_cast<uint64_t>(item.value_id));
  }
  return h;
}

SnippetContext::SnippetContext(const XmlDatabase* db, Query query)
    : db_(db), query_(std::move(query)) {}

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
  FeatureStatistics stats = FeatureStatistics::Compute(
      db_->index(), db_->classification(), result_root);
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
  ReturnEntityInfo info = IdentifyReturnEntity(
      db_->index(), db_->classification(), query_, result_root);
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
  std::vector<ItemInstances> found = FindItemInstances(*db_, result_root, ilist);
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

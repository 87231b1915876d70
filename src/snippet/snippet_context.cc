#include "snippet/snippet_context.h"

#include <utility>

namespace extract {

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

SnippetContext::CacheStats SnippetContext::statistics_cache() const {
  std::lock_guard<std::mutex> lock(mu_);
  return statistics_stats_;
}

}  // namespace extract

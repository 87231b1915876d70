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
    : db_(db), query_(std::move(query)) {
  analyzed_keywords_.reserve(query_.keywords.size());
  for (const std::string& keyword : query_.keywords) {
    analyzed_keywords_.push_back(db_->analyzer().AnalyzeToken(keyword));
    analyzed_by_token_.emplace(keyword, analyzed_keywords_.back());
  }
}

void SnippetContext::RecordScan(const char* kind, uint64_t total_ns,
                                const std::vector<uint64_t>& slice_ns) {
  // Recorded after the parallel region joins, so the registry mutex and
  // the name concatenations never sit inside the timed (and contended)
  // scan itself.
  scan_stats_.Record(kind, total_ns);
  for (size_t s = 0; s < slice_ns.size(); ++s) {
    scan_stats_.Record(std::string(kind) + ".p" + std::to_string(s),
                       slice_ns[s]);
  }
}

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
    std::vector<uint64_t> slice_ns(slices.size());
    ParallelFor(slices.size(), /*num_threads=*/0, [&](size_t s) {
      const auto slice_start = std::chrono::steady_clock::now();
      partials[s] = FeatureStatistics::ComputeRange(
          db_->index(), db_->classification(), result_root, slices[s].begin,
          slices[s].end);
      slice_ns[s] = ElapsedNsSince(slice_start);
    });
    stats = std::move(partials[0]);
    for (size_t s = 1; s < partials.size(); ++s) stats.MergeFrom(partials[s]);
    RecordScan("scan.statistics", ElapsedNsSince(scan_start), slice_ns);
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
    std::vector<uint64_t> slice_ns;
    info = IdentifyReturnEntity(db_->index(), db_->classification(), query_,
                                result_root, slices, /*num_threads=*/0,
                                &slice_ns);
    RecordScan("scan.entity", ElapsedNsSince(scan_start), slice_ns);
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
  ResultKeyInfo key;
  // Cheap gate (no Clip): the key scan walks entity instances, not the node
  // interval, and IdentifyResultKeyParallel has its own small-input
  // fallback to the sequential early-exit scan.
  if (db_->partitions().count() > 1) {
    const auto scan_start = std::chrono::steady_clock::now();
    key = IdentifyResultKeyParallel(db_->index(), db_->classification(),
                                    db_->keys(), entity, result_root,
                                    /*num_threads=*/0);
    scan_stats_.Record("scan.key", ElapsedNsSince(scan_start));
  } else {
    key = IdentifyResultKey(db_->index(), db_->classification(), db_->keys(),
                            entity, result_root);
  }
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
  // Feed the constructor's keyword analysis into the scan: IList keyword
  // items carry the query's tokens, so nothing is re-analyzed per result.
  std::vector<std::string> analyzed_tokens(ilist.size());
  for (size_t i = 0; i < ilist.size(); ++i) {
    if (ilist[i].kind != IListItemKind::kKeyword) continue;
    auto it = analyzed_by_token_.find(ilist[i].token);
    analyzed_tokens[i] = it != analyzed_by_token_.end()
                             ? it->second
                             : db_->analyzer().AnalyzeToken(ilist[i].token);
  }
  std::vector<ItemInstances> found;
  const std::vector<NodeRange> slices = PartitionSlicesFor(result_root);
  if (!slices.empty()) {
    const auto scan_start = std::chrono::steady_clock::now();
    std::vector<uint64_t> slice_ns;
    found = FindItemInstancesPartitioned(
        db_->index(), db_->classification(), result_root, ilist,
        db_->analyzer(), analyzed_tokens, slices, /*num_threads=*/0,
        &slice_ns);
    RecordScan("scan.instances", ElapsedNsSince(scan_start), slice_ns);
  } else {
    found = FindItemInstances(db_->index(), db_->classification(), result_root,
                              ilist, db_->analyzer(), analyzed_tokens);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = instances_.emplace(cache_key, std::move(found));
  if (inserted) ++instances_stats_.misses;
  return it->second;
}

SnippetContext::SelectorMemo& SnippetContext::SelectorMemoFor(
    NodeId result_root, const IList& ilist) {
  const std::pair<NodeId, uint64_t> cache_key(result_root,
                                              FingerprintIList(ilist));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = selector_memos_.find(cache_key);
  if (it == selector_memos_.end()) {
    it = selector_memos_.emplace(cache_key, std::make_unique<SelectorMemo>())
             .first;
  }
  return *it->second;
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

// Cross-query snippet cache (ROADMAP: "repeated/hot queries skip generation
// entirely").
//
// The pipeline is a deterministic function of (document, query, result
// root, options): the default Figure 4 stages read only QueryResult::root
// plus the query's keywords, and every memoized lookup is a pure function of
// those. So a snippet generated once can be served for every later request
// with the same signature — across queries, requests and threads — not just
// within one SnippetContext.
//
// Layers:
//   * SnippetCacheKey / MakeSnippetCacheKey — the canonical signature. It
//     covers everything the pipeline output depends on: the document id,
//     the normalized AND raw query keywords (raw spellings appear verbatim
//     in IList displays), the result root and every SnippetOptions field.
//   * SnippetCache — a sharded LRU (common/lru_cache.h) from signature to
//     immutable Snippet, with per-document invalidation, Clear(), and a
//     CacheStats snapshot for observability.
//
// XmlCorpus is the cache's one serving integration (EnableSnippetCache):
// it serves the default Figure 4 stage sequence, so signatures carry no
// stage component. A page known when its stream opens emits every hit
// right then, before any miss computes; page-gated slots probe when they
// compute. Either way misses fill the cache and failures keep the
// MakeBatchResultError shape with the page index.
//
// Cached snippets are stored once (shared_ptr) and handed out as deep
// copies (Snippet::Clone), so hits are byte-identical to fresh generation
// and callers never observe eviction.
//
// The diversifier path (GenerateWithFeatures) intentionally bypasses the
// cache: its output depends on the whole result page, not the signature.

#ifndef EXTRACT_SNIPPET_SNIPPET_CACHE_H_
#define EXTRACT_SNIPPET_SNIPPET_CACHE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/fault.h"
#include "common/lru_cache.h"
#include "search/search_engine.h"
#include "snippet/snippet_options.h"
#include "snippet/snippet_tree.h"

namespace extract {

/// Canonical signature of one cacheable generation request. `text` is the
/// full key; the leading "<document>\x1F" prefix supports per-document
/// invalidation.
struct SnippetCacheKey {
  std::string text;

  bool operator==(const SnippetCacheKey& other) const {
    return text == other.text;
  }
};

struct SnippetCacheKeyHash {
  size_t operator()(const SnippetCacheKey& key) const {
    return std::hash<std::string>{}(key.text);
  }
};

/// The invariant part of a page's signatures — everything but the result
/// root. One page shares document, query and options across all its
/// results, so the probe loop builds this once per document and appends
/// each root.
struct SnippetCacheKeyPrefix {
  std::string text;
};

SnippetCacheKeyPrefix MakeSnippetCacheKeyPrefix(std::string_view document,
                                                const Query& query,
                                                const SnippetOptions& options);

/// Completes a prefix with the per-result root.
SnippetCacheKey MakeSnippetCacheKey(const SnippetCacheKeyPrefix& prefix,
                                    NodeId result_root);

/// Builds the signature of (document, query, result root, options).
/// `document` is the caller's stable id of the loaded document — the
/// instance-scoped "name@instance" in XmlCorpus, anything
/// unique-per-database elsewhere. Any string is safe: reserved separator
/// bytes are escaped in the encoding, so distinct ids can never alias.
SnippetCacheKey MakeSnippetCacheKey(std::string_view document,
                                    const Query& query, NodeId result_root,
                                    const SnippetOptions& options);

/// Observability snapshot of a SnippetCache (see also LruCacheStats).
using SnippetCacheStats = LruCacheStats;

/// \brief Sharded LRU over generated snippets, shared across queries and
/// threads. Thread-safe.
class SnippetCache {
 public:
  struct Options {
    /// Total cached snippets (split across shards, floor 1 per shard).
    size_t capacity = 4096;
    /// Lock shards; more shards = less contention, slightly more memory.
    size_t num_shards = 8;
  };

  explicit SnippetCache(const Options& options)
      : cache_(options.capacity, options.num_shards) {}
  SnippetCache() : SnippetCache(Options{}) {}

  /// The cached snippet for `key`, or nullptr on miss. The pointee is
  /// immutable and stays alive while the caller holds the pointer, even
  /// across eviction; copy it out with Snippet::Clone().
  std::shared_ptr<const Snippet> Get(const SnippetCacheKey& key) {
    // A fired fault is a forced miss: the caller regenerates, which must
    // produce a byte-identical snippet (the cache is purely memoization).
    if (EXTRACT_FAULT_FIRED("cache.get")) return nullptr;
    auto hit = cache_.Get(key);
    return hit ? std::move(*hit) : nullptr;
  }

  void Put(const SnippetCacheKey& key, std::shared_ptr<const Snippet> value) {
    // A fired fault drops the insert — a cache that lost the write. Only
    // hit rates change, never results.
    if (EXTRACT_FAULT_FIRED("cache.put")) return;
    cache_.Put(key, std::move(value));
  }

  /// Drops every entry generated against `document` (the key's document
  /// id). Call when a document is removed or replaced; entries of other
  /// ids are untouched. Returns the number of entries dropped.
  ///
  /// Ordering caveat (applies to Clear() too): invalidation only covers
  /// entries already stored. A generation in flight against the old
  /// content completes and Puts *after* the invalidation, resurrecting
  /// the entry. Callers choose between two sound disciplines: quiesce
  /// serving around the content swap, or — XmlCorpus's approach — scope
  /// the document id to one immutable registration ("name@instance"), so
  /// a late Put only resurrects an entry no future lookup can alias
  /// (harmless residue the LRU ages out).
  size_t Invalidate(std::string_view document);

  /// Drops everything.
  void Clear() { cache_.Clear(); }

  /// Hits/misses/evictions/residency snapshot.
  SnippetCacheStats Stats() const { return cache_.Stats(); }

  size_t capacity() const { return cache_.capacity(); }

 private:
  ShardedLruCache<SnippetCacheKey, std::shared_ptr<const Snippet>,
                  SnippetCacheKeyHash>
      cache_;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_CACHE_H_

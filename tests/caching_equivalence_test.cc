// Byte-equivalence harness for the cross-query snippet cache: whatever mix
// of hot and cold traffic, thread count, eviction pressure or document
// churn XmlCorpus's cached serving sees, served snippets must be
// byte-identical to the uncached SnippetService path.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus.h"
#include "snippet/snippet_service.h"
#include "xml/serializer.h"

namespace extract {
namespace {

/// One document's hits for `query`, as a corpus page.
std::vector<CorpusResult> DocumentPage(const XmlCorpus& corpus,
                                       const std::string& document,
                                       const Query& query) {
  XSeekEngine engine;
  auto results = engine.Search(*corpus.Find(document), query);
  EXPECT_TRUE(results.ok()) << results.status();
  std::vector<CorpusResult> page;
  if (!results.ok()) return page;
  for (QueryResult& result : *results) {
    page.push_back(CorpusResult{document, std::move(result), 0.0});
  }
  return page;
}

/// Byte-level fingerprint of a snippet: every observable field.
std::string Fingerprint(const Snippet& s) {
  std::string out;
  out += std::to_string(s.result_root);
  out += '|';
  for (NodeId n : s.nodes) {
    out += std::to_string(n);
    out += ',';
  }
  out += '|';
  for (bool c : s.covered) out += c ? '1' : '0';
  out += '|';
  out += s.key.value;
  out += '|';
  out += std::to_string(s.return_entity.label);
  out += '/';
  out += std::to_string(static_cast<int>(s.return_entity.evidence));
  out += '/';
  for (NodeId n : s.return_entity.instances) {
    out += std::to_string(n);
    out += ',';
  }
  out += '|';
  out += s.ilist.ToString();
  out += '|';
  out += s.tree ? WriteXml(*s.tree) : "(no tree)";
  return out;
}

std::vector<std::string> Fingerprints(const std::vector<Snippet>& snippets) {
  std::vector<std::string> out;
  out.reserve(snippets.size());
  for (const Snippet& s : snippets) out.push_back(Fingerprint(s));
  return out;
}

/// Uncached sequential reference fingerprints of `page`.
std::vector<std::string> Expected(const XmlCorpus& corpus, const Query& query,
                                  const std::vector<CorpusResult>& page,
                                  const SnippetOptions& options) {
  SnippetService service(corpus.Find(page.front().document));
  std::vector<QueryResult> results;
  for (const CorpusResult& hit : page) results.push_back(hit.result);
  auto snippets = service.GenerateBatch(query, results, options);
  EXPECT_TRUE(snippets.ok()) << snippets.status();
  return snippets.ok() ? Fingerprints(*snippets) : std::vector<std::string>{};
}

// A mixed hot/cold workload hammered from many threads through one shared
// cache: every page any thread observes must equal the uncached reference.
TEST(CachingEquivalenceTest, ConcurrentHotColdWorkloadMatchesUncached) {
  XmlCorpus corpus;
  corpus.EnableSnippetCache();  // shared by both documents
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  const Query stores_query = Query::Parse("store texas");
  const Query retailer_query = Query::Parse("Texas apparel retailer");
  const std::vector<CorpusResult> stores =
      DocumentPage(corpus, "stores", stores_query);
  const std::vector<CorpusResult> retailer =
      DocumentPage(corpus, "retailer", retailer_query);
  ASSERT_FALSE(stores.empty());
  ASSERT_FALSE(retailer.empty());

  // Uncached references, one per (document, bound) the workload serves.
  // Varying bounds makes some requests hot (repeated bound) and some cold
  // (first sighting of a bound) in every thread.
  const std::vector<size_t> bounds = {6, 10, 14};
  std::vector<std::vector<std::string>> stores_expected;
  std::vector<std::vector<std::string>> retailer_expected;
  for (size_t bound : bounds) {
    SnippetOptions options;
    options.size_bound = bound;
    stores_expected.push_back(Expected(corpus, stores_query, stores, options));
    retailer_expected.push_back(
        Expected(corpus, retailer_query, retailer, options));
  }

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 12;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const size_t which = (t + round) % bounds.size();
        SnippetOptions options;
        options.size_bound = bounds[which];
        const bool use_stores = (t + round) % 2 == 0;
        auto got = use_stores ? corpus.GenerateSnippets(stores_query, stores,
                                                        options)
                              : corpus.GenerateSnippets(
                                    retailer_query, retailer, options);
        if (!got.ok()) {
          failures[t] = got.status().ToString();
          return;
        }
        const auto& expected =
            use_stores ? stores_expected[which] : retailer_expected[which];
        if (Fingerprints(*got) != expected) {
          failures[t] = "divergent output at round " + std::to_string(round);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }

  SnippetCacheStats stats = corpus.snippet_cache()->Stats();
  EXPECT_GT(stats.hits, 0u) << "hot traffic must hit";
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u) << "default capacity must not thrash here";
}

// An undersized cache evicting on every round must still serve exact
// bytes — eviction may cost performance, never correctness.
TEST(CachingEquivalenceTest, EvictionUnderLoadStaysByteIdentical) {
  XmlCorpus corpus;
  SnippetCache::Options tiny;
  tiny.capacity = 1;
  tiny.num_shards = 1;
  corpus.EnableSnippetCache(tiny);
  ASSERT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  const Query query = Query::Parse("store texas");
  const std::vector<CorpusResult> page = DocumentPage(corpus, "stores", query);
  ASSERT_GE(page.size(), 2u);

  const std::vector<size_t> bounds = {4, 7, 10, 13};
  std::vector<std::vector<std::string>> expected;
  for (size_t bound : bounds) {
    SnippetOptions options;
    options.size_bound = bound;
    expected.push_back(Expected(corpus, query, page, options));
  }

  std::vector<std::thread> threads;
  std::vector<std::string> failures(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        const size_t which = (t + round) % bounds.size();
        SnippetOptions options;
        options.size_bound = bounds[which];
        auto got = corpus.GenerateSnippets(query, page, options);
        if (!got.ok()) {
          failures[t] = got.status().ToString();
          return;
        }
        if (Fingerprints(*got) != expected[which]) {
          failures[t] = "divergent output under eviction";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  SnippetCache& cache = *corpus.snippet_cache();
  EXPECT_GT(cache.Stats().evictions, 0u)
      << "the workload must actually thrash the tiny cache";
  EXPECT_LE(cache.Stats().entries, cache.capacity());
}

// Corpus-level serving with the cache enabled is byte-identical to serving
// without it, on the tier-1 example corpora.
TEST(CachingEquivalenceTest, CorpusCachedServingMatchesUncached) {
  XmlCorpus uncached;
  ASSERT_TRUE(uncached.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(uncached.AddDocument("retailer", GenerateRetailerXml()).ok());
  XmlCorpus cached;
  ASSERT_TRUE(cached.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(cached.AddDocument("retailer", GenerateRetailerXml()).ok());
  cached.EnableSnippetCache();

  Query query = Query::Parse("texas clothes");
  XSeekEngine engine;
  auto hits = uncached.SearchAll(query, engine);
  ASSERT_TRUE(hits.ok());
  ASSERT_GT(hits->size(), 1u);

  SnippetOptions options;
  options.size_bound = 9;
  auto expected = uncached.GenerateSnippets(query, *hits, options);
  ASSERT_TRUE(expected.ok()) << expected.status();

  // Cold, then warm twice.
  for (int round = 0; round < 3; ++round) {
    auto got = cached.GenerateSnippets(query, *hits, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Fingerprints(*got), Fingerprints(*expected));
  }
  SnippetCacheStats stats = cached.snippet_cache()->Stats();
  EXPECT_EQ(stats.misses, hits->size());
  EXPECT_EQ(stats.hits, 2 * hits->size());
}

// Removing a document and registering different content under the same
// name must invalidate its cached snippets: serving after the swap matches
// fresh generation against the new content, never the stale bytes.
TEST(CachingEquivalenceTest, InvalidationAfterDocumentSwap) {
  XmlCorpus corpus;
  corpus.EnableSnippetCache();
  ASSERT_TRUE(corpus.AddDocument("data", GenerateStoresXml()).ok());

  Query query = Query::Parse("texas");
  XSeekEngine engine;
  auto old_hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(old_hits.ok());
  ASSERT_FALSE(old_hits->empty());
  SnippetOptions options;
  options.size_bound = 10;
  auto old_snippets = corpus.GenerateSnippets(query, *old_hits, options);
  ASSERT_TRUE(old_snippets.ok());
  ASSERT_GT(corpus.snippet_cache()->Stats().entries, 0u);

  // Swap: same name, different content (the retailer data set also matches
  // "texas", with different results and snippets).
  ASSERT_TRUE(corpus.RemoveDocument("data").ok());
  EXPECT_EQ(corpus.snippet_cache()->Stats().entries, 0u)
      << "removal must drop the document's cached snippets";
  ASSERT_TRUE(corpus.AddDocument("data", GenerateRetailerXml()).ok());

  auto new_hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(new_hits.ok());
  ASSERT_FALSE(new_hits->empty());
  auto new_snippets = corpus.GenerateSnippets(query, *new_hits, options);
  ASSERT_TRUE(new_snippets.ok()) << new_snippets.status();

  // Reference: the same content served by a never-cached corpus.
  XmlCorpus reference;
  ASSERT_TRUE(reference.AddDocument("data", GenerateRetailerXml()).ok());
  auto expected = reference.GenerateSnippets(query, *new_hits, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Fingerprints(*new_snippets), Fingerprints(*expected));
  EXPECT_NE(Fingerprints(*new_snippets), Fingerprints(*old_snippets))
      << "swap test needs content whose snippets actually differ";

  // RemoveDocument on an unknown name reports NotFound.
  EXPECT_EQ(corpus.RemoveDocument("nope").code(), StatusCode::kNotFound);
}

// Invalidation racing an open stream: a lazily-producing stream pinned to
// the old epoch is still draining (and Put-ting its snippets into the
// cache) while the document is removed and re-added with new content.
// Cache keys are scoped to the registration instance, so the old stream's
// late Puts must never leak stale bytes into the new epoch's queries —
// while the pinned old stream itself still serves the old content.
TEST(CachingEquivalenceTest, InvalidationDuringOpenStream) {
  XmlCorpus corpus;
  corpus.EnableSnippetCache();
  ASSERT_TRUE(corpus.AddDocument("data", GenerateStoresXml()).ok());

  Query query = Query::Parse("texas");
  XSeekEngine engine;
  SnippetOptions options;
  options.size_bound = 10;

  // Open the stream BEFORE the swap: the search runs at open against the
  // old content; snippet generation (and its cache Puts) waits for pulls.
  auto old_stream =
      corpus.ServeQuery(query, engine, RankingOptions{},
                        CorpusServingOptions{}, options, StreamOptions{});
  ASSERT_TRUE(old_stream.ok()) << old_stream.status();
  ASSERT_FALSE(old_stream->page().empty());

  // Swap: same name, different content, while the old stream is open.
  ASSERT_TRUE(corpus.RemoveDocument("data").ok());
  ASSERT_TRUE(corpus.AddDocument("data", GenerateRetailerXml()).ok());

  // A new-epoch query must serve fresh bytes (never the old content's).
  XmlCorpus reference;
  ASSERT_TRUE(reference.AddDocument("data", GenerateRetailerXml()).ok());
  auto new_hits = corpus.SearchAll(query, engine);
  ASSERT_TRUE(new_hits.ok());
  ASSERT_FALSE(new_hits->empty());
  auto new_snippets = corpus.GenerateSnippets(query, *new_hits, options);
  ASSERT_TRUE(new_snippets.ok()) << new_snippets.status();
  auto expected_new = reference.GenerateSnippets(query, *new_hits, options);
  ASSERT_TRUE(expected_new.ok());
  EXPECT_EQ(Fingerprints(*new_snippets), Fingerprints(*expected_new));

  // Drain the old stream now: its pinned epoch still serves the OLD
  // content, byte-identically — and every snippet it Puts lands under the
  // retired instance's keys.
  XmlCorpus old_reference;
  ASSERT_TRUE(old_reference.AddDocument("data", GenerateStoresXml()).ok());
  auto expected_old = old_reference.GenerateSnippets(
      query, old_stream->page(), options);
  ASSERT_TRUE(expected_old.ok()) << expected_old.status();
  size_t drained = 0;
  while (auto event = old_stream->stream().Next()) {
    ASSERT_TRUE(event->snippet.ok()) << event->snippet.status();
    EXPECT_EQ(Fingerprint(*event->snippet),
              Fingerprint((*expected_old)[event->slot]));
    ++drained;
  }
  EXPECT_EQ(drained, old_stream->page().size());

  // The old stream's late Puts are in the cache now (residue under the
  // retired instance) — the new epoch must STILL serve fresh bytes.
  auto again = corpus.GenerateSnippets(query, *new_hits, options);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(Fingerprints(*again), Fingerprints(*expected_new));
}

}  // namespace
}  // namespace extract

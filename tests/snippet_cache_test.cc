#include "snippet/snippet_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/stores_dataset.h"
#include "search/corpus.h"
#include "snippet/snippet_service.h"
#include "xml/serializer.h"

namespace extract {
namespace {

void ExpectSnippetsIdentical(const Snippet& a, const Snippet& b) {
  EXPECT_EQ(a.result_root, b.result_root);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.covered, b.covered);
  EXPECT_EQ(a.key.value, b.key.value);
  EXPECT_EQ(a.return_entity.label, b.return_entity.label);
  EXPECT_EQ(a.return_entity.evidence, b.return_entity.evidence);
  EXPECT_EQ(a.return_entity.instances, b.return_entity.instances);
  EXPECT_EQ(a.ilist.ToString(), b.ilist.ToString());
  ASSERT_NE(a.tree, nullptr);
  ASSERT_NE(b.tree, nullptr);
  EXPECT_EQ(WriteXml(*a.tree), WriteXml(*b.tree));
}

TEST(SnippetCacheKeyTest, IdenticalRequestsShareOneKey) {
  Query q = Query::Parse("store texas");
  SnippetOptions options;
  EXPECT_EQ(MakeSnippetCacheKey("doc", q, 5, options),
            MakeSnippetCacheKey("doc", q, 5, options));
}

TEST(SnippetCacheKeyTest, EveryKeyedFieldChangesTheSignature) {
  Query q = Query::Parse("store texas");
  SnippetOptions options;
  const SnippetCacheKey base = MakeSnippetCacheKey("doc", q, 5, options);

  EXPECT_FALSE(MakeSnippetCacheKey("doc2", q, 5, options) == base);
  EXPECT_FALSE(MakeSnippetCacheKey("doc", q, 6, options) == base);
  EXPECT_FALSE(MakeSnippetCacheKey("doc", Query::Parse("store dallas"), 5,
                                   options) == base);

  // Same normalized keywords, different raw spelling: the IList displays
  // raw keywords, so the signatures must differ.
  Query shouty = Query::Parse("STORE TEXAS");
  ASSERT_EQ(shouty.keywords, q.keywords);
  EXPECT_FALSE(MakeSnippetCacheKey("doc", shouty, 5, options) == base);

  SnippetOptions other = options;
  other.size_bound += 1;
  EXPECT_FALSE(MakeSnippetCacheKey("doc", q, 5, other) == base);
  other = options;
  other.features.normalize = !other.features.normalize;
  EXPECT_FALSE(MakeSnippetCacheKey("doc", q, 5, other) == base);
  other = options;
  other.features.max_features = 3;
  EXPECT_FALSE(MakeSnippetCacheKey("doc", q, 5, other) == base);
}

TEST(SnippetCacheKeyTest, JoinedKeywordListsCannotCollide) {
  Query ab;
  ab.keywords = {"ab", "c"};
  ab.raw_keywords = {"ab", "c"};
  Query a_bc;
  a_bc.keywords = {"a", "bc"};
  a_bc.raw_keywords = {"a", "bc"};
  EXPECT_FALSE(MakeSnippetCacheKey("doc", ab, 1, SnippetOptions{}) ==
               MakeSnippetCacheKey("doc", a_bc, 1, SnippetOptions{}));
}

TEST(SnippetCacheTest, PutGetInvalidateClear) {
  SnippetCache::Options opts;
  opts.capacity = 16;
  SnippetCache cache(opts);
  Query q = Query::Parse("texas");
  SnippetCacheKey a = MakeSnippetCacheKey("stores", q, 1, SnippetOptions{});
  SnippetCacheKey b = MakeSnippetCacheKey("retailer", q, 1, SnippetOptions{});

  EXPECT_EQ(cache.Get(a), nullptr);
  auto snippet = std::make_shared<const Snippet>();
  cache.Put(a, snippet);
  cache.Put(b, snippet);
  EXPECT_NE(cache.Get(a), nullptr);

  // Per-document invalidation drops only that document's entries.
  EXPECT_EQ(cache.Invalidate("stores"), 1u);
  EXPECT_EQ(cache.Get(a), nullptr);
  EXPECT_NE(cache.Get(b), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.Get(b), nullptr);

  SnippetCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(SnippetCacheTest, DocumentNamesSharingAPrefixDoNotCollide) {
  SnippetCache cache;
  Query q = Query::Parse("texas");
  SnippetCacheKey longer =
      MakeSnippetCacheKey("stores2", q, 1, SnippetOptions{});
  cache.Put(longer, std::make_shared<const Snippet>());
  // Invalidating "stores" must not clip "stores2".
  EXPECT_EQ(cache.Invalidate("stores"), 0u);
  EXPECT_NE(cache.Get(longer), nullptr);
}

TEST(SnippetCacheTest, SeparatorBytesInDocumentIdsAreEscaped) {
  // Reserved bytes in a caller-supplied id are escaped in the encoding, so
  // crafted ids can neither alias another document's signatures nor be
  // clipped (or over-matched) by prefix invalidation.
  SnippetCache cache;
  Query q = Query::Parse("texas");
  const std::string tricky = std::string("a\x1F") + "b";
  SnippetCacheKey tricky_key =
      MakeSnippetCacheKey(tricky, q, 1, SnippetOptions{});
  SnippetCacheKey plain_key = MakeSnippetCacheKey("a", q, 1, SnippetOptions{});
  EXPECT_FALSE(tricky_key == plain_key);

  cache.Put(tricky_key, std::make_shared<const Snippet>());
  cache.Put(plain_key, std::make_shared<const Snippet>());
  EXPECT_EQ(cache.Invalidate("a"), 1u) << "must not clip 'a\\x1Fb'";
  EXPECT_NE(cache.Get(tricky_key), nullptr);
  EXPECT_EQ(cache.Invalidate(tricky), 1u);
  EXPECT_EQ(cache.Get(tricky_key), nullptr);
}

// The cache's serving integration is XmlCorpus::EnableSnippetCache: the
// suites below drive it through the corpus's streamed page path.

XmlCorpus MakeCachedStoresCorpus(const SnippetCache::Options& options) {
  XmlCorpus corpus;
  corpus.EnableSnippetCache(options);
  EXPECT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  return corpus;
}

std::vector<CorpusResult> StoresPage(const XmlCorpus& corpus) {
  XSeekEngine engine;
  auto hits = corpus.SearchAll(Query::Parse("store texas"), engine);
  EXPECT_TRUE(hits.ok()) << hits.status();
  return hits.ok() ? *hits : std::vector<CorpusResult>{};
}

/// Uncached reference snippets of `page`, one fresh generation per hit.
std::vector<Snippet> Reference(const XmlCorpus& corpus, const Query& query,
                               const std::vector<CorpusResult>& page,
                               const SnippetOptions& options) {
  std::vector<Snippet> out;
  for (const CorpusResult& hit : page) {
    SnippetService service(corpus.Find(hit.document));
    auto snippet = service.Generate(query, hit.result, options);
    EXPECT_TRUE(snippet.ok()) << snippet.status();
    if (snippet.ok()) out.push_back(std::move(*snippet));
  }
  return out;
}

TEST(CorpusSnippetCacheTest, HitIsByteIdenticalToGeneration) {
  XmlCorpus corpus = MakeCachedStoresCorpus(SnippetCache::Options{});
  std::vector<CorpusResult> page = StoresPage(corpus);
  ASSERT_FALSE(page.empty());
  page.resize(1);
  const Query query = Query::Parse("store texas");
  SnippetOptions options;
  options.size_bound = 10;
  const std::vector<Snippet> uncached =
      Reference(corpus, query, page, options);
  ASSERT_EQ(uncached.size(), 1u);

  auto cold = corpus.GenerateSnippets(query, page, options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = corpus.GenerateSnippets(query, page, options);
  ASSERT_TRUE(warm.ok()) << warm.status();

  ExpectSnippetsIdentical((*cold)[0], uncached[0]);
  ExpectSnippetsIdentical((*warm)[0], uncached[0]);

  SnippetCacheStats stats = corpus.snippet_cache()->Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CorpusSnippetCacheTest, HitsOutliveEvictionAndCacheOwner) {
  SnippetOptions options;
  options.size_bound = 10;
  const Query query = Query::Parse("store texas");

  std::vector<Snippet> warm;
  {
    XmlCorpus corpus = MakeCachedStoresCorpus(SnippetCache::Options{});
    const std::vector<CorpusResult> page = StoresPage(corpus);
    ASSERT_FALSE(page.empty());
    ASSERT_TRUE(corpus.GenerateSnippets(query, page, options).ok());
    auto served = corpus.GenerateSnippets(query, page, options);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(corpus.snippet_cache()->Stats().hits, page.size());
    warm = std::move(*served);
    corpus.snippet_cache()->Clear();
  }
  // Served hits are deep copies: usable after Clear() and after the corpus
  // (and with it the cache) is gone.
  ASSERT_FALSE(warm.empty());
  ASSERT_NE(warm[0].tree, nullptr);
  EXPECT_FALSE(WriteXml(*warm[0].tree).empty());
}

TEST(CorpusSnippetCacheTest, PageServesHitsAndGeneratesMisses) {
  XmlCorpus corpus = MakeCachedStoresCorpus(SnippetCache::Options{});
  const std::vector<CorpusResult> page = StoresPage(corpus);
  ASSERT_EQ(page.size(), 2u);
  const Query query = Query::Parse("store texas");
  SnippetOptions options;
  options.size_bound = 10;

  // Pre-warm only the second hit, then serve the whole page: one hit, one
  // generated miss, byte-identical to uncached generation.
  ASSERT_TRUE(corpus.GenerateSnippets(query, {page[1]}, options).ok());
  const std::vector<Snippet> expected =
      Reference(corpus, query, page, options);
  auto got = corpus.GenerateSnippets(query, page, options);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < got->size(); ++i) {
    ExpectSnippetsIdentical((*got)[i], expected[i]);
  }

  SnippetCacheStats stats = corpus.snippet_cache()->Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);  // pre-warm miss + the cold page slot
  EXPECT_EQ(stats.entries, 2u);

  // A fully warm page does no generation at all.
  ASSERT_TRUE(corpus.GenerateSnippets(query, page, options).ok());
  EXPECT_EQ(corpus.snippet_cache()->Stats().hits, 3u);
  EXPECT_EQ(corpus.snippet_cache()->Stats().misses, 2u);
}

TEST(CorpusSnippetCacheTest, DifferentBoundsAreDistinctEntries) {
  XmlCorpus corpus = MakeCachedStoresCorpus(SnippetCache::Options{});
  std::vector<CorpusResult> page = StoresPage(corpus);
  ASSERT_FALSE(page.empty());
  page.resize(1);
  const Query query = Query::Parse("store texas");

  for (size_t bound : {4u, 8u, 16u}) {
    SnippetOptions options;
    options.size_bound = bound;
    auto cached = corpus.GenerateSnippets(query, page, options);
    ASSERT_TRUE(cached.ok());
    const std::vector<Snippet> fresh = Reference(corpus, query, page, options);
    ASSERT_EQ(fresh.size(), 1u);
    ExpectSnippetsIdentical((*cached)[0], fresh[0]);
  }
  SnippetCacheStats stats = corpus.snippet_cache()->Stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 3u);
}

}  // namespace
}  // namespace extract

// Golden-snippet regression tests: the snippets of the example corpora and
// queries are serialized to checked-in golden files and must stay
// byte-identical — a cache bug or a selector change can't silently alter
// what users see.
//
// Each golden is asserted for the plain SnippetService path, for cold and
// warm XmlCorpus pages with the snippet cache enabled, and for
// slot-order-collected streams over both (uncached and cached) — so the
// batch collectors and the streaming core they sit on are all pinned to
// the same bytes.
//
// Regenerate after an intentional output change:
//   EXTRACT_UPDATE_GOLDEN=1 ./build/tests/golden_snippets_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus.h"
#include "snippet/snippet_service.h"
#include "snippet/snippet_tree.h"
#include "xml/serializer.h"

#ifndef EXTRACT_SOURCE_DIR
#error "EXTRACT_SOURCE_DIR must be defined by the build"
#endif

namespace extract {
namespace {

struct GoldenCase {
  /// Golden file stem and corpus document name.
  std::string name;
  std::string xml;
  std::string query_text;
  size_t size_bound;
};

std::vector<GoldenCase> GoldenCases() {
  return {
      // The paper's running example (Figures 1-3).
      {"retailer_texas_apparel_retailer", GenerateRetailerXml(),
       "Texas apparel retailer", 10},
      {"retailer_texas_apparel_retailer_bound14", GenerateRetailerXml(),
       "Texas apparel retailer", 14},
      {"stores_store_texas", GenerateStoresXml(), "store texas", 10},
      {"movies_drama_stone", GenerateMoviesXml(), "drama stone", 10},
  };
}

std::string GoldenPath(const std::string& name) {
  return std::string(EXTRACT_SOURCE_DIR) + "/tests/golden/" + name +
         ".golden";
}

/// Full byte-level serialization of one result page: everything a user (or
/// renderer) can observe about each snippet.
std::string SerializeSnippets(const Query& query,
                              const std::vector<Snippet>& snippets) {
  std::ostringstream out;
  out << "query: " << query.ToString() << "\n";
  out << "snippets: " << snippets.size() << "\n";
  for (size_t i = 0; i < snippets.size(); ++i) {
    const Snippet& s = snippets[i];
    out << "=== snippet " << i << "\n";
    out << "root: " << s.result_root << "\n";
    out << "nodes:";
    for (NodeId node : s.nodes) out << ' ' << node;
    out << "\n";
    out << "key: " << (s.key.found() ? s.key.value : "(none)") << "\n";
    out << "return_entity: label=" << s.return_entity.label
        << " evidence=" << static_cast<int>(s.return_entity.evidence)
        << " instances=";
    for (NodeId node : s.return_entity.instances) out << node << ',';
    out << "\n";
    out << "ilist: " << s.ilist.ToString() << "\n";
    out << "coverage: " << RenderCoverage(s) << "\n";
    out << "tree:\n" << RenderSnippet(s);
    out << "xml: " << (s.tree ? WriteXml(*s.tree) : "(no tree)") << "\n";
  }
  return out.str();
}

Result<std::vector<Snippet>> GenerateUncached(const XmlDatabase& db,
                                              const Query& query,
                                              const std::vector<QueryResult>& results,
                                              const SnippetOptions& options) {
  SnippetService service(&db);
  BatchOptions sequential;
  sequential.num_threads = 1;
  return service.GenerateBatch(query, results, options, sequential);
}

TEST(GoldenSnippetsTest, ExampleCorporaMatchGoldenFiles) {
  const bool update = std::getenv("EXTRACT_UPDATE_GOLDEN") != nullptr;
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.name);
    auto db = XmlDatabase::Load(c.xml);
    ASSERT_TRUE(db.ok()) << db.status();
    Query query = Query::Parse(c.query_text);
    XSeekEngine engine;
    auto results = engine.Search(*db, query);
    ASSERT_TRUE(results.ok()) << results.status();
    ASSERT_FALSE(results->empty()) << "golden case must have results";

    SnippetOptions options;
    options.size_bound = c.size_bound;
    auto snippets = GenerateUncached(*db, query, *results, options);
    ASSERT_TRUE(snippets.ok()) << snippets.status();
    const std::string serialized = SerializeSnippets(query, *snippets);

    const std::string path = GoldenPath(c.name);
    if (update) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << serialized;
      continue;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with EXTRACT_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(serialized, golden.str())
        << "snippet output changed; if intentional, regenerate goldens with "
           "EXTRACT_UPDATE_GOLDEN=1";

    // The cached corpus path (cold fill, then warm hits) must serialize to
    // the same bytes as the golden file, probing each slot exactly once
    // per pass: N misses, then N hits.
    XmlCorpus corpus;
    corpus.EnableSnippetCache();
    ASSERT_TRUE(corpus.AddDocument(c.name, c.xml).ok());
    std::vector<CorpusResult> page;
    for (const QueryResult& result : *results) {
      page.push_back(CorpusResult{c.name, result, 0.0});
    }
    for (int pass = 0; pass < 2; ++pass) {
      auto cached = corpus.GenerateSnippets(query, page, options);
      ASSERT_TRUE(cached.ok()) << cached.status();
      EXPECT_EQ(SerializeSnippets(query, *cached), golden.str())
          << (pass == 0 ? "cold" : "warm") << " cached pass diverged";
    }
    EXPECT_EQ(corpus.snippet_cache()->Stats().hits, results->size());
    EXPECT_EQ(corpus.snippet_cache()->Stats().misses, results->size());

    // A slot-order-collected stream — uncached, and cached over the warm
    // cache (every slot a pre-emitted hit) — must also serialize to the
    // golden bytes.
    StreamOptions slot_order;
    slot_order.order = StreamOrder::kSlot;
    {
      SnippetService service(&*db);
      SnippetContext ctx(&*db, query);
      ServingSession session =
          service.StreamBatch(ctx, *results, options, slot_order);
      auto streamed = session.stream().Collect();
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      EXPECT_EQ(SerializeSnippets(query, *streamed), golden.str())
          << "uncached stream collection diverged";
    }
    {
      auto session = corpus.StreamSnippets(query, page, options, slot_order);
      ASSERT_TRUE(session.ok()) << session.status();
      EXPECT_EQ(session->Stats().emitted, results->size())
          << "warm stream must emit every hit at open";
      auto streamed = session->stream().Collect();
      ASSERT_TRUE(streamed.ok()) << streamed.status();
      EXPECT_EQ(SerializeSnippets(query, *streamed), golden.str())
          << "cached stream collection diverged";
    }
  }
}

}  // namespace
}  // namespace extract

// Incremental top-k search must be indistinguishable from blocking search
// truncated to k: identical pages (documents, roots, bitwise-equal scores)
// for every k and across repeated runs, over
// in-memory and snapshot-backed corpora, identical error reporting when
// producers fail mid-enumeration, and sound monotone shard bounds and
// document bounds — while actually terminating early on skewed corpora and
// leaving snapshot documents whose bound cannot reach the page unopened.
// Blocking SearchTopK and page-gated ServeQuery run one pull schedule, so
// they do identical work, and the search stage counts fault-in time. Also
// covers the RankResults top-k fast path and page-gated ServeQuery
// streaming. Run under ThreadSanitizer and ASan/UBSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "datagen/movies_dataset.h"
#include "datagen/random_xml.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "search/corpus.h"
#include "search/corpus_snapshot.h"
#include "search/ranking.h"
#include "snippet/snippet_tree.h"

namespace extract {
namespace {

// Demo data sets plus synthetic documents.
XmlCorpus MakeWideCorpus() {
  XmlCorpus corpus;
  EXPECT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  EXPECT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  EXPECT_TRUE(corpus.AddDocument("movies", GenerateMoviesXml()).ok());
  for (int d = 0; d < 5; ++d) {
    RandomXmlOptions options;
    options.levels = 2;
    options.entities_per_parent = 6;
    options.seed = 1000 + d;
    EXPECT_TRUE(corpus
                    .AddDocument("random" + std::to_string(d),
                                 GenerateRandomXml(options).xml)
                    .ok());
  }
  return corpus;
}

void ExpectSamePage(const std::vector<CorpusResult>& expected,
                    const std::vector<CorpusResult>& actual,
                    const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].document, actual[i].document)
        << label << " hit " << i;
    EXPECT_EQ(expected[i].result.root, actual[i].result.root)
        << label << " hit " << i;
    // Bitwise double equality: both paths run the identical per-document
    // scoring computation, so even the last ulp must match.
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " hit " << i;
  }
}

void ExpectSameSnippets(const std::vector<Snippet>& expected,
                        const std::vector<Snippet>& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].result_root, actual[i].result_root)
        << label << " slot " << i;
    EXPECT_EQ(expected[i].nodes, actual[i].nodes) << label << " slot " << i;
    EXPECT_EQ(expected[i].covered, actual[i].covered)
        << label << " slot " << i;
    EXPECT_EQ(RenderSnippet(expected[i]), RenderSnippet(actual[i]))
        << label << " slot " << i;
  }
}

std::vector<CorpusResult> Prefix(const std::vector<CorpusResult>& page,
                                 size_t k) {
  std::vector<CorpusResult> out(page.begin(),
                                page.begin() + std::min(k, page.size()));
  return out;
}

TEST(TopKSearchTest, MatchesBlockingPrefixAcrossConfigurations) {
  XmlCorpus corpus = MakeWideCorpus();
  XSeekEngine engine;
  const char* queries[] = {"texas", "texas store", "drama", "v1_0 v1_1"};

  for (const char* text : queries) {
    Query query = Query::Parse(text);
    auto full = corpus.SearchAll(query, engine);
    ASSERT_TRUE(full.ok()) << full.status();
    for (size_t k : {size_t{1}, size_t{3}, size_t{5}, size_t{10},
                     size_t{1000}}) {
      for (int run = 0; run < 3; ++run) {  // repeated runs: no schedule dep
        TopKSearchStats stats;
        auto page = corpus.SearchTopK(query, engine, RankingOptions{},
                                      CorpusServingOptions{}, k, &stats);
        ASSERT_TRUE(page.ok()) << page.status();
        ExpectSamePage(Prefix(*full, k), *page,
                       std::string(text) + " k=" + std::to_string(k) +
                           " run=" + std::to_string(run));
        EXPECT_TRUE(stats.finished);
        EXPECT_EQ(stats.results_released, std::min(k, full->size()));
        EXPECT_LE(stats.candidates_scored, stats.candidates_total);
      }
    }
  }
}

// k = SIZE_MAX drains the whole corpus: the page is all of SearchAll's,
// and nothing may be sized by k up front.
TEST(TopKSearchTest, UnboundedKEqualsSearchAll) {
  XmlCorpus corpus = MakeWideCorpus();
  XSeekEngine engine;
  const size_t unbounded = std::numeric_limits<size_t>::max();
  for (const char* text : {"texas", "texas store", "drama", "v1_0 v1_1"}) {
    Query query = Query::Parse(text);
    auto full = corpus.SearchAll(query, engine);
    ASSERT_TRUE(full.ok()) << full.status();
    for (int run = 0; run < 2; ++run) {
      TopKSearchStats stats;
      auto page = corpus.SearchTopK(query, engine, RankingOptions{},
                                    CorpusServingOptions{}, unbounded, &stats);
      ASSERT_TRUE(page.ok()) << page.status();
      ExpectSamePage(*full, *page,
                     std::string(text) + " run=" + std::to_string(run));
      EXPECT_TRUE(stats.finished);
      EXPECT_FALSE(stats.early_terminated);
      EXPECT_EQ(stats.results_released, full->size());
    }
  }
}

TEST(TopKSearchTest, ZeroKAndEmptyCorpus) {
  XmlCorpus corpus = MakeWideCorpus();
  XSeekEngine engine;
  auto page = corpus.SearchTopK(Query::Parse("texas"), engine,
                                RankingOptions{}, CorpusServingOptions{}, 0);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->empty());

  XmlCorpus empty;
  auto empty_page = empty.SearchTopK(Query::Parse("texas"), engine,
                                     RankingOptions{}, CorpusServingOptions{},
                                     5);
  ASSERT_TRUE(empty_page.ok());
  EXPECT_TRUE(empty_page->empty());
}

// ------------------------------------------------------------ skew / bounds

// A corpus where a few deep "hot" documents dominate the ranking and many
// shallow "cold" documents each contain the keywords exactly once: every
// cold document's score upper bound (~ depth + 1 + 2) sits far below the
// hot hits' scores (~ 9+), so the threshold merge must settle the page
// without ever pulling a cold producer.
std::string HotDocumentXml(int products) {
  std::string xml = "<site><a><b><c><d><e><f>";
  for (int i = 0; i < products; ++i) {
    xml +=
        "<product><name>alpha alpha alpha</name>"
        "<desc>beta beta beta</desc></product>";
  }
  xml += "</f></e></d></c></b></a></site>";
  return xml;
}

std::string ColdDocumentXml() {
  return "<site><x>alpha</x><y>beta</y></site>";
}

TEST(TopKSearchTest, EarlyTerminationOnSkewedCorpus) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("hot_a", HotDocumentXml(4)).ok());
  ASSERT_TRUE(corpus.AddDocument("hot_b", HotDocumentXml(4)).ok());
  for (int d = 0; d < 12; ++d) {
    ASSERT_TRUE(
        corpus.AddDocument("cold" + std::to_string(d), ColdDocumentXml())
            .ok());
  }
  XSeekEngine engine;
  Query query = Query::Parse("alpha beta");

  auto full = corpus.SearchAll(query, engine);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_GE(full->size(), 8u);

  const size_t k = 5;
  TopKSearchStats stats;
  auto page = corpus.SearchTopK(query, engine, RankingOptions{},
                                CorpusServingOptions{}, k, &stats);
  ASSERT_TRUE(page.ok()) << page.status();
  ExpectSamePage(Prefix(*full, k), *page, "skewed corpus");

  EXPECT_TRUE(stats.finished);
  EXPECT_TRUE(stats.early_terminated);
  EXPECT_EQ(stats.results_released, k);
  EXPECT_EQ(stats.producers, corpus.size());
  // The oracle: early termination did real work-skipping — the cold
  // documents' candidates were never scanned.
  EXPECT_LT(stats.candidates_scored, stats.candidates_total);
  EXPECT_GT(stats.first_result_ns, 0u);

  // The search-phase breakdown landed in the corpus stage stats.
  bool saw_enumerate = false;
  bool saw_merge = false;
  for (const StageStat& stat : corpus.StageStatsSnapshot()) {
    if (stat.name == "search.enumerate") saw_enumerate = true;
    if (stat.name == "search.merge") saw_merge = true;
  }
  EXPECT_TRUE(saw_enumerate);
  EXPECT_TRUE(saw_merge);
}

TEST(TopKSearchTest, ProducerBoundIsMonotoneAndSound) {
  auto db = XmlDatabase::Load(GenerateStoresXml());
  ASSERT_TRUE(db.ok()) << db.status();
  XSeekEngine engine;

  // Under depth-only ranking a one-keyword result scores its SLCA's depth
  // and the SLCA is a driving posting, so the bound must reach the
  // deepest one exactly: a depth cap that misses it fails soundness here.
  RankingOptions depth_only;
  depth_only.frequency_weight = 0.0;
  depth_only.compactness_weight = 0.0;
  const std::pair<const char*, RankingOptions> cases[] = {
      {"texas store", RankingOptions{}}, {"texas", depth_only}};
  for (const auto& [text, ranking] : cases) {
    SCOPED_TRACE(text);
    Query query = Query::Parse(text);
    auto opened = engine.OpenIncremental(*db, query, ranking, 0);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ResultProducer& producer = **opened;

    EXPECT_EQ(producer.candidates_scored(), 0u);
    std::vector<RankedResult> all;
    double prev_bound = std::numeric_limits<double>::infinity();
    size_t pulls = 0;
    while (!producer.Exhausted()) {
      const double bound = producer.ScoreUpperBound();
      EXPECT_LE(bound, prev_bound) << "bound increased at pull " << pulls;
      std::vector<RankedResult> chunk;
      ASSERT_TRUE(producer.Pull(&chunk).ok());
      for (const RankedResult& r : chunk) {
        // Soundness: nothing a pull emits may beat the bound advertised
        // immediately before it.
        EXPECT_LE(r.score, bound) << "root " << r.result.root;
        all.push_back(r);
      }
      prev_bound = bound;
      ++pulls;
    }
    EXPECT_EQ(pulls, 1u) << "one pull runs the whole search";
    EXPECT_EQ(producer.ScoreUpperBound(),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(producer.candidates_scored(), producer.candidates_total());

    // The union of all pulls is exactly the blocking search, scored.
    auto searched = engine.Search(*db, query);
    ASSERT_TRUE(searched.ok());
    std::vector<RankedResult> expected = RankResults(*db, *searched, ranking);
    ASSERT_EQ(expected.size(), all.size());
    auto by_root = [](const RankedResult& a, const RankedResult& b) {
      return a.result.root < b.result.root;
    };
    std::sort(expected.begin(), expected.end(), by_root);
    std::sort(all.begin(), all.end(), by_root);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].result.root, all[i].result.root);
      EXPECT_EQ(expected[i].result.slca, all[i].result.slca);
      EXPECT_EQ(expected[i].result.matches, all[i].result.matches);
      EXPECT_EQ(expected[i].score, all[i].score);
    }
  }
}

// ----------------------------------------------------- snapshot-backed

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Saves `memory` to `path` and attaches the image to `backed`.
void AttachSaved(const XmlCorpus& memory, const std::string& path,
                 XmlCorpus* backed) {
  ASSERT_TRUE(memory.SaveSnapshot(path).ok());
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(backed->AttachSnapshot(*snapshot).ok());
}

// The directory bound must dominate every result of its document, for every
// ranking (negative weights included) and keyword shape (duplicates, a word
// every document holds, words no document holds) — and the directory must
// list every document that has a result at all, and only documents that
// hold every keyword.
TEST(TopKSearchTest, DirectoryBoundIsSoundProperty) {
  const RankingOptions rankings[] = {
      RankingOptions{},
      RankingOptions{-1.0, 0.5, 2.0},
      RankingOptions{1.0, -0.5, 2.0},
      RankingOptions{1.0, 0.5, -2.0},
      RankingOptions{0.3, 1.7, 5.0},
  };
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    XmlCorpus memory;
    // "e0" tags every random document's top entities; "nomatch" is in none.
    std::vector<std::string> keywords = {"e0", "nomatch"};
    for (size_t d = 0; d < 6; ++d) {
      RandomXmlOptions options;
      options.levels = 1 + (seed + d) % 3;
      options.entities_per_parent = 2 + d % 3;
      options.attributes_per_entity = 2;
      options.domain_size = 6;
      options.seed = seed * 100 + d;
      RandomXmlData data = GenerateRandomXml(options);
      for (const std::string& k : data.keyword_pool) keywords.push_back(k);
      for (const auto& [label, value] : data.planted_values) {
        keywords.push_back(label);
        keywords.push_back(value);
      }
      ASSERT_TRUE(memory.AddDocument("doc" + std::to_string(d), data.xml).ok());
    }
    const std::string path = TempPath("topk_bound_property.xcsn");
    ASSERT_TRUE(memory.SaveSnapshot(path).ok());
    auto snapshot = CorpusSnapshot::Open(path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    const CorpusSnapshot& snap = **snapshot;

    std::vector<std::string> queries;
    uint64_t rng = seed * 0x9E3779B97F4A7C15ULL;
    auto pick = [&] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return keywords[rng % keywords.size()];
    };
    for (int q = 0; q < 24; ++q) {
      const std::string a = pick();
      const std::string b = pick();
      queries.push_back(a);
      queries.push_back(a + " " + b);
      queries.push_back(a + " " + a);  // duplicate keyword
      queries.push_back("e0 " + a);    // with a word every document holds
    }
    queries.push_back("nomatch xyzzy");  // no document holds either word

    XSeekEngine engine;
    for (const std::string& text : queries) {
      const Query query = Query::Parse(text);
      std::set<size_t> candidates;
      for (const RankingOptions& ranking : rankings) {
        ASSERT_TRUE(
            snap.ForEachCandidate(
                    query,
                    [&](size_t i, std::span<const TermDocStats> stats) {
                      candidates.insert(i);
                      ASSERT_EQ(stats.size(), query.keywords.size());
                      for (const TermDocStats& s : stats) {
                        EXPECT_GT(s.postings, 0u) << "'" << text << "'";
                      }
                      const double bound =
                          engine.DocumentScoreBound(ranking, stats);
                      auto doc = snap.Fault(i);
                      ASSERT_TRUE(doc.ok()) << doc.status();
                      const XmlDatabase& db = *(*doc)->db;
                      auto results = engine.Search(db, query);
                      ASSERT_TRUE(results.ok()) << results.status();
                      for (const QueryResult& r : *results) {
                        EXPECT_LE(ScoreResult(db, r, ranking), bound)
                            << "'" << text << "' doc " << snap.name(i);
                        ++checked;
                      }
                    })
                .ok());
      }
      // Completeness: a document with results is always a candidate.
      for (size_t i = 0; i < snap.doc_count(); ++i) {
        if (candidates.count(i) != 0) continue;
        auto doc = snap.Fault(i);
        ASSERT_TRUE(doc.ok());
        auto results = engine.Search(*(*doc)->db, query);
        ASSERT_TRUE(results.ok());
        EXPECT_TRUE(results->empty())
            << "'" << text << "' doc " << snap.name(i) << " missed";
      }
    }
    std::remove(path.c_str());
  }
  EXPECT_GT(checked, 1000u);
}

// A snapshot-backed corpus serves the same pages as its in-memory twin,
// through SearchAll, SearchTopK (bound-ordered lazy opening) and page-gated
// ServeQuery alike — across hidden snapshot names and overlay documents
// shadowing them.
TEST(TopKSearchTest, SnapshotBackedTopKMatchesSearchAll) {
  XmlCorpus memory;
  ASSERT_TRUE(memory.AddDocument("retailer", GenerateRetailerXml()).ok());
  ASSERT_TRUE(memory.AddDocument("stores", GenerateStoresXml()).ok());
  ASSERT_TRUE(memory.AddDocument("movies", GenerateMoviesXml()).ok());
  std::vector<std::string> queries = {"texas", "texas store", "stores",
                                      "drama", "name texas", "texas texas",
                                      "zzznomatch", "nomatch xyzzy"};
  for (int d = 0; d < 6; ++d) {
    RandomXmlOptions options;
    options.levels = 2;
    options.entities_per_parent = 4;
    options.seed = 2000 + d;
    RandomXmlData data = GenerateRandomXml(options);
    if (d < 2) {
      for (const std::string& k : data.keyword_pool) queries.push_back(k);
    }
    ASSERT_TRUE(
        memory.AddDocument("random" + std::to_string(d), data.xml).ok());
  }
  const std::string path = TempPath("topk_snapshot_equiv.xcsn");
  XmlCorpus backed;
  AttachSaved(memory, path, &backed);
  // Hide two snapshot documents, shadow one with an overlay copy and add
  // an overlay document that sorts before everything — in both corpora.
  for (XmlCorpus* corpus : {&memory, &backed}) {
    ASSERT_TRUE(corpus->RemoveDocument("random1").ok());
    ASSERT_TRUE(corpus->RemoveDocument("stores").ok());
    ASSERT_TRUE(corpus
                    ->AddDocument("stores",
                                  "<shops><store><name>texas boots</name>"
                                  "<state>texas</state></store></shops>")
                    .ok());
    ASSERT_TRUE(
        corpus->AddDocument("aaa", "<a><b><c>texas drama</c></b></a>").ok());
  }

  XSeekEngine engine;
  const size_t unbounded = std::numeric_limits<size_t>::max();
  for (const std::string& text : queries) {
    const Query query = Query::Parse(text);
    auto expected = memory.SearchAll(query, engine);
    auto full = backed.SearchAll(query, engine);
    ASSERT_EQ(expected.ok(), full.ok()) << text;
    if (!expected.ok()) continue;
    ExpectSamePage(*expected, *full, "SearchAll '" + text + "'");
    for (size_t k : {size_t{1}, size_t{10}, unbounded}) {
      for (int run = 0; run < 2; ++run) {
        TopKSearchStats stats;
        auto page = backed.SearchTopK(query, engine, RankingOptions{},
                                      CorpusServingOptions{}, k, &stats);
        ASSERT_TRUE(page.ok()) << page.status();
        ExpectSamePage(Prefix(*expected, k), *page,
                       "'" + text + "' k=" + std::to_string(k) +
                           " run=" + std::to_string(run));
        EXPECT_TRUE(stats.finished);
        if (k == unbounded) {
          EXPECT_FALSE(stats.early_terminated) << text;
        }
      }
    }
    if (expected->empty()) continue;
    // Page-gated serving over the snapshot: same page, same snippets.
    auto blocking =
        memory.ServeQuery(query, engine, RankingOptions{},
                          CorpusServingOptions{}, SnippetOptions{},
                          StreamOptions{});
    ASSERT_TRUE(blocking.ok()) << blocking.status();
    auto blocking_snippets = blocking->stream().Collect();
    ASSERT_TRUE(blocking_snippets.ok()) << blocking_snippets.status();
    const size_t k = std::min<size_t>(3, expected->size());
    CorpusServingOptions serving;
    serving.page_size = k;
    StreamOptions stream;
    stream.order = StreamOrder::kSlot;
    auto gated = backed.ServeQuery(query, engine, RankingOptions{}, serving,
                                   SnippetOptions{}, stream);
    ASSERT_TRUE(gated.ok()) << gated.status();
    auto snippets = gated->stream().Collect();
    ASSERT_TRUE(snippets.ok()) << snippets.status();
    ExpectSamePage(Prefix(*expected, k), gated->page(), "gated '" + text + "'");
    std::vector<Snippet> want;
    for (size_t i = 0; i < k; ++i) want.push_back((*blocking_snippets)[i].Clone());
    ExpectSameSnippets(want, *snippets, "gated snippets '" + text + "'");
  }
  std::remove(path.c_str());
}

// The error contract of bound-ordered opening: a snapshot document whose
// bound never reaches the page is never faulted in, so its corrupt payload
// cannot fail SearchTopK or page-gated serving — while SearchAll, which
// searches every candidate, still reports it, and a page deep enough to
// need the document reports exactly SearchAll's error.
TEST(TopKSearchTest, UnopenedSnapshotDocumentCannotFailTopK) {
  XmlCorpus memory;
  ASSERT_TRUE(memory.AddDocument("a_cold", ColdDocumentXml()).ok());
  ASSERT_TRUE(memory.AddDocument("b_hot", HotDocumentXml(4)).ok());
  const std::string path = TempPath("topk_unopened.xcsn");
  ASSERT_TRUE(memory.SaveSnapshot(path).ok());
  {
    // a_cold is written first: its payload starts right after the 96-byte
    // header. Corrupt it past its section TOC.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[96 + 128] ^= 0x5A;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto snapshot = CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  XmlCorpus backed;
  ASSERT_TRUE(backed.AttachSnapshot(*snapshot).ok());

  XSeekEngine engine;
  const Query query = Query::Parse("alpha beta");
  auto expected = memory.SearchAll(query, engine);
  ASSERT_TRUE(expected.ok());
  auto all = backed.SearchAll(query, engine);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kParseError);
  EXPECT_NE(all.status().message().find("a_cold"), std::string::npos)
      << all.status();

  for (size_t k : {size_t{1}, size_t{4}}) {  // b_hot holds four hits
    TopKSearchStats stats;
    auto page = backed.SearchTopK(query, engine, RankingOptions{},
                                  CorpusServingOptions{}, k, &stats);
    ASSERT_TRUE(page.ok()) << page.status();
    ExpectSamePage(Prefix(*expected, k), *page, "k=" + std::to_string(k));
    EXPECT_EQ(stats.producers, 1u);
    EXPECT_TRUE(stats.early_terminated);
  }
  CorpusServingOptions serving;
  serving.page_size = 4;
  auto gated = backed.ServeQuery(query, engine, RankingOptions{}, serving,
                                 SnippetOptions{}, StreamOptions{});
  ASSERT_TRUE(gated.ok()) << gated.status();
  ASSERT_TRUE(gated->stream().Collect().ok());
  EXPECT_EQ(backed.SnapshotStatsSnapshot()->resident, 1u);

  auto deep = backed.SearchTopK(query, engine, RankingOptions{},
                                CorpusServingOptions{}, 5);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), all.status().code());
  EXPECT_EQ(deep.status().message(), all.status().message());
  std::remove(path.c_str());
}

// --------------------------------------------------------------- failures

// Fails the blocking Search for chosen documents; its default-adapter
// incremental producer (+infinity bound until the first pull) surfaces the
// same error mid-merge, so the coordinator's parity drain is exercised.
class FailingEngine : public SearchEngine {
 public:
  FailingEngine(const XmlCorpus& corpus, std::vector<std::string> fail_docs) {
    for (const std::string& name : fail_docs) {
      fail_dbs_.push_back(corpus.Find(name));
    }
  }

  Result<std::vector<QueryResult>> Search(const XmlDatabase& db,
                                          const Query& query) const override {
    for (const XmlDatabase* fail : fail_dbs_) {
      if (fail == &db) {
        return Status::Internal("engine exploded on this shard");
      }
    }
    return inner_.Search(db, query);
  }

 private:
  XSeekEngine inner_;
  std::vector<const XmlDatabase*> fail_dbs_;
};

// Delegates a few pulls to the real incremental producer, then fails with
// the same error its blocking Search reports — a mid-enumeration failure
// after genuine results were already buffered.
class MidStreamFailProducer : public ResultProducer {
 public:
  MidStreamFailProducer(std::unique_ptr<ResultProducer> inner,
                        size_t pulls_before_fail, Status failure)
      : inner_(std::move(inner)),
        pulls_before_fail_(pulls_before_fail),
        failure_(std::move(failure)) {}

  Status Pull(std::vector<RankedResult>* out) override {
    if (pulls_ < pulls_before_fail_) {
      ++pulls_;
      return inner_->Pull(out);
    }
    return failure_;
  }
  bool Exhausted() const override { return false; }
  double ScoreUpperBound() const override {
    return std::numeric_limits<double>::infinity();
  }
  size_t candidates_total() const override {
    return inner_->candidates_total();
  }
  size_t candidates_scored() const override {
    return inner_->candidates_scored();
  }

 private:
  std::unique_ptr<ResultProducer> inner_;
  size_t pulls_ = 0;
  size_t pulls_before_fail_;
  Status failure_;
};

// Fails chosen documents mid-enumeration (incremental) and up front
// (blocking) with the same status — the shapes the parity contract equates.
class MidStreamFailEngine : public SearchEngine {
 public:
  MidStreamFailEngine(const XmlCorpus& corpus,
                      std::vector<std::string> fail_docs, bool fail_at_open)
      : fail_at_open_(fail_at_open) {
    for (const std::string& name : fail_docs) {
      fail_dbs_.push_back(corpus.Find(name));
    }
  }

  Result<std::vector<QueryResult>> Search(const XmlDatabase& db,
                                          const Query& query) const override {
    if (Fails(db)) return Failure();
    return inner_.Search(db, query);
  }

  Result<std::unique_ptr<ResultProducer>> OpenIncremental(
      const XmlDatabase& db, const Query& query, const RankingOptions& ranking,
      size_t top_k_hint) const override {
    auto opened = inner_.OpenIncremental(db, query, ranking, top_k_hint);
    if (!opened.ok()) return opened;
    if (!Fails(db)) return opened;
    if (fail_at_open_) return Failure();
    return Result<std::unique_ptr<ResultProducer>>(
        std::make_unique<MidStreamFailProducer>(std::move(*opened), 1,
                                                Failure()));
  }

 private:
  bool Fails(const XmlDatabase& db) const {
    for (const XmlDatabase* fail : fail_dbs_) {
      if (fail == &db) return true;
    }
    return false;
  }
  static Status Failure() {
    return Status::Internal("engine exploded mid-enumeration");
  }

  XSeekEngine inner_;
  std::vector<const XmlDatabase*> fail_dbs_;
  bool fail_at_open_;
};

void ExpectSameError(const Status& expected, const Status& actual,
                     const std::string& label) {
  ASSERT_FALSE(actual.ok()) << label;
  EXPECT_EQ(expected.code(), actual.code()) << label;
  EXPECT_EQ(expected.message(), actual.message()) << label;
}

TEST(TopKSearchTest, FailureReportsSequentialError) {
  XmlCorpus corpus = MakeWideCorpus();
  Query query = Query::Parse("texas");

  const std::vector<std::vector<std::string>> failure_sets = {
      {"random2"},
      {"movies"},
      {"stores", "random0", "retailer"},
  };
  for (const auto& fail_docs : failure_sets) {
    // Three failure shapes: the default blocking adapter, a producer that
    // fails after buffering real results, and OpenIncremental failing
    // outright — all must report what the sequential loop reports.
    FailingEngine adapter_engine(corpus, fail_docs);
    MidStreamFailEngine mid_engine(corpus, fail_docs, /*fail_at_open=*/false);
    MidStreamFailEngine open_engine(corpus, fail_docs, /*fail_at_open=*/true);
    const SearchEngine* engines[] = {&adapter_engine, &mid_engine,
                                     &open_engine};
    const char* labels[] = {"adapter", "mid-stream", "open"};
    for (size_t e = 0; e < 3; ++e) {
      auto expected = corpus.SearchAll(query, *engines[e]);
      ASSERT_FALSE(expected.ok()) << labels[e];
      for (int run = 0; run < 2; ++run) {
        auto page = corpus.SearchTopK(query, *engines[e], RankingOptions{},
                                      CorpusServingOptions{}, 5);
        ExpectSameError(expected.status(), page.status(),
                        std::string(labels[e]) + " run=" +
                            std::to_string(run));
      }
    }
  }
}

TEST(TopKSearchTest, EmptyQueryErrorMatchesSequential) {
  XmlCorpus corpus = MakeWideCorpus();
  XSeekEngine engine;
  auto expected = corpus.SearchAll(Query{}, engine);
  ASSERT_FALSE(expected.ok());
  auto page = corpus.SearchTopK(Query{}, engine, RankingOptions{},
                                CorpusServingOptions{}, 5);
  ExpectSameError(expected.status(), page.status(), "empty query");
}

// ------------------------------------------------------ rank-top-k / warm

TEST(TopKSearchTest, RankResultsTopKMatchesFullSort) {
  auto db = XmlDatabase::Load(HotDocumentXml(8));
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  auto searched = engine.Search(*db, Query::Parse("alpha beta"));
  ASSERT_TRUE(searched.ok());
  ASSERT_GT(searched->size(), 3u);
  RankingOptions ranking;
  std::vector<RankedResult> full = RankResults(*db, *searched, ranking);
  for (size_t k = 0; k <= searched->size() + 2; ++k) {
    std::vector<RankedResult> fast = RankResults(*db, *searched, ranking, k);
    const size_t expect_n =
        (k == 0 || k >= full.size()) ? full.size() : k;
    ASSERT_EQ(fast.size(), expect_n) << "k=" << k;
    for (size_t i = 0; i < expect_n; ++i) {
      EXPECT_EQ(full[i].result.root, fast[i].result.root) << "k=" << k;
      EXPECT_EQ(full[i].score, fast[i].score) << "k=" << k;
    }
  }
}

// ------------------------------------------------------- page-gated serving

TEST(TopKSearchTest, PageGatedServeQueryMatchesBlocking) {
  XmlCorpus corpus = MakeWideCorpus();
  XSeekEngine engine;
  Query query = Query::Parse("texas store");
  SnippetOptions options;

  auto blocking_stream =
      corpus.ServeQuery(query, engine, RankingOptions{},
                        CorpusServingOptions{}, options, StreamOptions{});
  ASSERT_TRUE(blocking_stream.ok()) << blocking_stream.status();
  const size_t k = std::min<size_t>(4, blocking_stream->page().size());
  ASSERT_GT(k, 0u);
  auto blocking_snippets = blocking_stream->stream().Collect();
  ASSERT_TRUE(blocking_snippets.ok()) << blocking_snippets.status();

  CorpusServingOptions serving;
  serving.page_size = k;
  StreamOptions stream;
  stream.order = StreamOrder::kSlot;
  auto gated = corpus.ServeQuery(query, engine, RankingOptions{}, serving,
                                 options, stream);
  ASSERT_TRUE(gated.ok()) << gated.status();
  auto snippets = gated->stream().Collect();
  ASSERT_TRUE(snippets.ok()) << snippets.status();
  // Page identity after drain (the page grows while streaming).
  ExpectSamePage(Prefix(blocking_stream->page(), k), gated->page(),
                 "gated page");
  std::vector<Snippet> expected;
  for (size_t i = 0; i < k; ++i) {
    expected.push_back((*blocking_snippets)[i].Clone());
  }
  ExpectSameSnippets(expected, *snippets, "gated snippets");
  TopKSearchStats stats = gated->SearchStats();
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.results_released, k);
}

TEST(TopKSearchTest, PageGatedServeQueryWithCacheIsIdentical) {
  XmlCorpus corpus = MakeWideCorpus();
  corpus.EnableSnippetCache();
  XSeekEngine engine;
  Query query = Query::Parse("texas store");
  SnippetOptions options;
  CorpusServingOptions serving;
  serving.page_size = 4;
  StreamOptions stream;
  stream.order = StreamOrder::kSlot;

  auto first = corpus.ServeQuery(query, engine, RankingOptions{}, serving,
                                 options, stream);
  ASSERT_TRUE(first.ok()) << first.status();
  auto first_snippets = first->stream().Collect();
  ASSERT_TRUE(first_snippets.ok()) << first_snippets.status();

  // Second serve: every slot is a cache hit, output byte-identical.
  auto second = corpus.ServeQuery(query, engine, RankingOptions{}, serving,
                                  options, stream);
  ASSERT_TRUE(second.ok()) << second.status();
  auto second_snippets = second->stream().Collect();
  ASSERT_TRUE(second_snippets.ok()) << second_snippets.status();
  ExpectSameSnippets(*first_snippets, *second_snippets, "cached serve");
  ASSERT_NE(corpus.snippet_cache(), nullptr);
  EXPECT_GT(corpus.snippet_cache()->Stats().hits, 0u);
}

TEST(TopKSearchTest, PageGatedServeQueryCancellation) {
  XmlCorpus corpus = MakeWideCorpus();
  XSeekEngine engine;
  Query query = Query::Parse("texas store");
  CorpusServingOptions serving;
  serving.page_size = 4;
  auto gated = corpus.ServeQuery(query, engine, RankingOptions{}, serving,
                                 SnippetOptions{}, StreamOptions{});
  ASSERT_TRUE(gated.ok()) << gated.status();
  gated->Cancel();
  size_t events = 0;
  while (auto event = gated->stream().Next()) ++events;
  // Every slot resolves (computed, cancelled, or trimmed by upstream
  // completion) — no hang, no double emission.
  EXPECT_LE(events, serving.page_size);
  EXPECT_EQ(events, gated->Stats().emitted);
}

TEST(TopKSearchTest, PageGatedServeQueryEmptyQueryError) {
  XmlCorpus corpus = MakeWideCorpus();
  XSeekEngine engine;
  auto expected = corpus.ServeQuery(Query{}, engine, RankingOptions{},
                                    CorpusServingOptions{}, SnippetOptions{},
                                    StreamOptions{});
  ASSERT_FALSE(expected.ok());
  CorpusServingOptions serving;
  serving.page_size = 4;
  auto gated = corpus.ServeQuery(Query{}, engine, RankingOptions{}, serving,
                                 SnippetOptions{}, StreamOptions{});
  ExpectSameError(expected.status(), gated.status(), "empty query serve");
}

TEST(TopKSearchTest, PageGatedServeQueryMidSearchFailure) {
  XmlCorpus corpus = MakeWideCorpus();
  MidStreamFailEngine engine(corpus, {"movies"}, /*fail_at_open=*/false);
  Query query = Query::Parse("texas");
  CorpusServingOptions serving;
  serving.page_size = 50;  // larger than the total hit count, so the
                           // failing producer must be reached
  auto gated = corpus.ServeQuery(query, engine, RankingOptions{}, serving,
                                 SnippetOptions{}, StreamOptions{});
  ASSERT_TRUE(gated.ok()) << gated.status();
  auto collected = gated->stream().Collect();
  ASSERT_FALSE(collected.ok());
  EXPECT_EQ(collected.status().code(), StatusCode::kInternal);
  EXPECT_NE(collected.status().message().find("engine exploded"),
            std::string::npos)
      << collected.status().message();
}

// ----------------------------------------------------------- one schedule

// Blocking SearchTopK and a drained page-gated ServeQuery of the same page
// run one pull schedule: they open the same producers, pull the same rounds
// and scan the same postings — over an in-memory corpus and a
// snapshot-backed one alike.
TEST(TopKSearchTest, BlockingAndPageGatedSearchRunOneSchedule) {
  XmlCorpus memory = MakeWideCorpus();
  const std::string path = TempPath("topk_one_schedule.xcsn");
  XmlCorpus backed;
  AttachSaved(memory, path, &backed);
  XSeekEngine engine;
  // Several documents match the random-document queries, so several
  // producers are open with nothing buffered yet.
  const char* queries[] = {"texas", "texas store", "drama",
                           "e1",    "v12r0",       "e0 v10r3"};
  for (const XmlCorpus* corpus : {&memory, &backed}) {
    const std::string where = corpus == &memory ? "memory" : "snapshot";
    for (const char* text : queries) {
      const Query query = Query::Parse(text);
      for (size_t k : {size_t{1}, size_t{10}, size_t{1000}}) {
        const std::string label =
            where + " '" + text + "' k=" + std::to_string(k);
        TopKSearchStats blocking;
        auto page = corpus->SearchTopK(query, engine, RankingOptions{},
                                       CorpusServingOptions{}, k, &blocking);
        ASSERT_TRUE(page.ok()) << label << ": " << page.status();
        CorpusServingOptions serving;
        serving.page_size = k;
        auto gated = corpus->ServeQuery(query, engine, RankingOptions{},
                                        serving, SnippetOptions{},
                                        StreamOptions{});
        ASSERT_TRUE(gated.ok()) << label << ": " << gated.status();
        auto snippets = gated->stream().Collect();
        ASSERT_TRUE(snippets.ok()) << label << ": " << snippets.status();
        ExpectSamePage(*page, gated->page(), label);
        // One snippet per settled slot, not per planned one.
        EXPECT_EQ(snippets->size(), gated->page().size()) << label;
        const TopKSearchStats streamed = gated->SearchStats();
        EXPECT_TRUE(blocking.finished) << label;
        EXPECT_TRUE(streamed.finished) << label;
        EXPECT_EQ(blocking.producers, streamed.producers) << label;
        EXPECT_EQ(blocking.pull_rounds, streamed.pull_rounds) << label;
        EXPECT_EQ(blocking.candidates_scored, streamed.candidates_scored)
            << label;
        EXPECT_EQ(blocking.candidates_total, streamed.candidates_total)
            << label;
        EXPECT_EQ(blocking.results_released, streamed.results_released)
            << label;
        EXPECT_EQ(blocking.early_terminated, streamed.early_terminated)
            << label;
      }
    }
  }
  std::remove(path.c_str());
}

// The top-k "search" stage is the search's wall time with fault-in
// included: a snapshot document the merge opens decodes inside the timed
// open batch, for blocking SearchTopK and page-gated ServeQuery alike.
TEST(TopKSearchTest, SearchStageCountsFaultIn) {
  XmlCorpus memory = MakeWideCorpus();
  const std::string path = TempPath("topk_search_stage.xcsn");
  ASSERT_TRUE(memory.SaveSnapshot(path).ok());
  XSeekEngine engine;
  const Query query = Query::Parse("texas store");
  auto search_ns = [](const XmlCorpus& corpus) -> uint64_t {
    for (const StageStat& stat : corpus.StageStatsSnapshot()) {
      if (stat.name == "search") return stat.total_ns;
    }
    return 0;
  };
  for (bool gated : {false, true}) {
    SCOPED_TRACE(gated ? "page-gated ServeQuery" : "SearchTopK");
    // A freshly attached image: every document the call opens faults in
    // during the call.
    XmlCorpus backed;
    auto snapshot = CorpusSnapshot::Open(path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ASSERT_TRUE(backed.AttachSnapshot(*snapshot).ok());
    if (gated) {
      CorpusServingOptions serving;
      serving.page_size = 10;
      auto served = backed.ServeQuery(query, engine, RankingOptions{},
                                      serving, SnippetOptions{},
                                      StreamOptions{});
      ASSERT_TRUE(served.ok()) << served.status();
      ASSERT_TRUE(served->stream().Collect().ok());
      // The stream folds its search time in when it is destroyed.
    } else {
      auto page = backed.SearchTopK(query, engine, RankingOptions{},
                                    CorpusServingOptions{}, 10);
      ASSERT_TRUE(page.ok()) << page.status();
    }
    const uint64_t fault_ns = backed.SnapshotStatsSnapshot()->fault_ns;
    EXPECT_GT(fault_ns, 0u);
    EXPECT_GE(search_ns(backed), fault_ns);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace extract

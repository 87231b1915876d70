#include "search/corpus.h"

#include <gtest/gtest.h>

#include "datagen/movies_dataset.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"

namespace extract {
namespace {

XmlCorpus MakeDemoCorpus() {
  XmlCorpus corpus;
  EXPECT_TRUE(corpus.AddDocument("retailer", GenerateRetailerXml()).ok());
  EXPECT_TRUE(corpus.AddDocument("stores", GenerateStoresXml()).ok());
  EXPECT_TRUE(corpus.AddDocument("movies", GenerateMoviesXml()).ok());
  return corpus;
}

TEST(CorpusTest, AddAndFind) {
  XmlCorpus corpus = MakeDemoCorpus();
  EXPECT_EQ(corpus.size(), 3u);
  EXPECT_NE(corpus.Find("stores"), nullptr);
  EXPECT_EQ(corpus.Find("nope"), nullptr);
  EXPECT_EQ(corpus.DocumentNames(),
            (std::vector<std::string>{"movies", "retailer", "stores"}));
}

TEST(CorpusTest, DuplicateNameRejected) {
  XmlCorpus corpus;
  ASSERT_TRUE(corpus.AddDocument("a", "<x>1</x>").ok());
  EXPECT_EQ(corpus.AddDocument("a", "<y>2</y>").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(corpus.size(), 1u);
}

TEST(CorpusTest, MalformedDocumentRejected) {
  XmlCorpus corpus;
  EXPECT_EQ(corpus.AddDocument("bad", "<x><y></x>").code(),
            StatusCode::kParseError);
  EXPECT_EQ(corpus.size(), 0u);
}

TEST(CorpusTest, SearchAllMergesAcrossDocuments) {
  XmlCorpus corpus = MakeDemoCorpus();
  XSeekEngine engine;
  // "texas" occurs in both the retailer and the stores data sets.
  auto hits = corpus.SearchAll(Query::Parse("texas"), engine);
  ASSERT_TRUE(hits.ok()) << hits.status();
  ASSERT_FALSE(hits->empty());
  bool saw_retailer = false, saw_stores = false, saw_movies = false;
  for (const CorpusResult& hit : *hits) {
    if (hit.document == "retailer") saw_retailer = true;
    if (hit.document == "stores") saw_stores = true;
    if (hit.document == "movies") saw_movies = true;
  }
  EXPECT_TRUE(saw_retailer);
  EXPECT_TRUE(saw_stores);
  EXPECT_FALSE(saw_movies);
  // Scores non-increasing.
  for (size_t i = 1; i < hits->size(); ++i) {
    EXPECT_GE((*hits)[i - 1].score, (*hits)[i].score);
  }
}

TEST(CorpusTest, SearchAllEmptyWhenNoDocumentMatches) {
  XmlCorpus corpus = MakeDemoCorpus();
  XSeekEngine engine;
  auto hits = corpus.SearchAll(Query::Parse("zzzznonexistent"), engine);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(CorpusTest, SearchAllPropagatesEngineErrors) {
  XmlCorpus corpus = MakeDemoCorpus();
  XSeekEngine engine;
  EXPECT_FALSE(corpus.SearchAll(Query{}, engine).ok());  // empty query
}

TEST(CorpusTest, HitsReferenceTheirOwnDatabase) {
  XmlCorpus corpus = MakeDemoCorpus();
  XSeekEngine engine;
  auto hits = corpus.SearchAll(Query::Parse("texas store"), engine);
  ASSERT_TRUE(hits.ok());
  for (const CorpusResult& hit : *hits) {
    const XmlDatabase* db = corpus.Find(hit.document);
    ASSERT_NE(db, nullptr);
    EXPECT_LT(static_cast<size_t>(hit.result.root), db->index().num_nodes());
  }
}

// Every SearchAll call records one "search" pseudo-stage sample.
TEST(CorpusTest, SearchRecordsStageStats) {
  XmlCorpus corpus = MakeDemoCorpus();
  XSeekEngine engine;
  ASSERT_TRUE(corpus.SearchAll(Query::Parse("texas"), engine).ok());
  ASSERT_TRUE(corpus.SearchAll(Query::Parse("drama"), engine).ok());
  std::vector<StageStat> stats = corpus.StageStatsSnapshot();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0].name, "search");
  EXPECT_EQ(stats[0].calls, 2u);
  EXPECT_GT(stats[0].total_ns, 0u);
  EXPECT_GE(stats[0].total_ns, stats[0].max_ns);
  corpus.ResetStageStats();
  EXPECT_TRUE(corpus.StageStatsSnapshot().empty());
}

}  // namespace
}  // namespace extract

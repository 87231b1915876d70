#include "common/analyzer.h"

#include <gtest/gtest.h>

#include "search/search_engine.h"
#include "snippet/snippet_service.h"

namespace extract {
namespace {

TEST(SStemTest, HarmanRules) {
  // Rule 1: -ies -> -y (unless -eies / -aies).
  EXPECT_EQ(TextAnalyzer::SStem("stories"), "story");
  EXPECT_EQ(TextAnalyzer::SStem("cities"), "city");
  EXPECT_EQ(TextAnalyzer::SStem("ties"), "ty");  // >3 chars rule applies
  // Rule 2: -es -> -e (unless -aes / -ees / -oes).
  EXPECT_EQ(TextAnalyzer::SStem("stores"), "store");
  EXPECT_EQ(TextAnalyzer::SStem("retailers"), "retailer");  // via rule 3
  EXPECT_EQ(TextAnalyzer::SStem("shoes"), "shoes");   // -oes excluded
  EXPECT_EQ(TextAnalyzer::SStem("trees"), "trees");   // -ees excluded
  // Rule 3: -s dropped (unless -us / -ss).
  EXPECT_EQ(TextAnalyzer::SStem("movies"), "movy");   // ies rule first
  EXPECT_EQ(TextAnalyzer::SStem("jeans"), "jean");
  EXPECT_EQ(TextAnalyzer::SStem("bus"), "bus");
  EXPECT_EQ(TextAnalyzer::SStem("class"), "class");
  EXPECT_EQ(TextAnalyzer::SStem("as"), "as");  // too short
  EXPECT_EQ(TextAnalyzer::SStem("store"), "store");  // no suffix
}

TEST(StopwordTest, CommonWords) {
  EXPECT_TRUE(TextAnalyzer::IsStopword("the"));
  EXPECT_TRUE(TextAnalyzer::IsStopword("of"));
  EXPECT_TRUE(TextAnalyzer::IsStopword("and"));
  EXPECT_FALSE(TextAnalyzer::IsStopword("store"));
  EXPECT_FALSE(TextAnalyzer::IsStopword("texas"));
}

TEST(AnalyzerTest, PlainOnlyFoldsCase) {
  TextAnalyzer plain;
  EXPECT_EQ(plain.AnalyzeToken("Stores"), "stores");
  EXPECT_EQ(plain.AnalyzeToken("THE"), "the");  // kept: stopwords off
  EXPECT_TRUE(plain.options().IsPlain());
}

TEST(AnalyzerTest, StemmingAndStopwords) {
  TextAnalysisOptions options;
  options.stem = true;
  options.remove_stopwords = true;
  TextAnalyzer analyzer(options);
  EXPECT_EQ(analyzer.AnalyzeToken("Stores"), "store");
  EXPECT_EQ(analyzer.AnalyzeToken("the"), "");
  // "Texas" -> "texa" is the classic S-stemmer over-stem; it is consistent
  // between index and query sides, which is what matters for matching.
  EXPECT_EQ(analyzer.AnalyzeText("the stores of Texas"),
            (std::vector<std::string>{"store", "texa"}));
}

TEST(AnalyzerTest, ContainsAnalyzedToken) {
  TextAnalysisOptions options;
  options.stem = true;
  TextAnalyzer analyzer(options);
  EXPECT_TRUE(analyzer.ContainsAnalyzedToken("many stores here", "store"));
  EXPECT_TRUE(analyzer.ContainsAnalyzedToken("one store", "store"));
  EXPECT_FALSE(analyzer.ContainsAnalyzedToken("storage", "store"));
  // Plain analyzer: exact folded token match.
  TextAnalyzer plain;
  EXPECT_FALSE(plain.ContainsAnalyzedToken("many stores here", "store"));
}

// ------------------------- engine integration with analysis enabled ------

constexpr std::string_view kXml = R"(<db>
  <store><name>Levis</name><city>Houston</city></store>
  <store><name>Zara</name><city>Dallas</city></store>
</db>)";

TEST(AnalyzerEngineTest, StemmedQueryMatchesSingularForm) {
  LoadOptions options;
  options.analysis.stem = true;
  auto db = XmlDatabase::Load(kXml, options);
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  // "stores" stems to "store", which matches the <store> tags.
  auto results = engine.Search(*db, Query::Parse("stores houston"));
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ(db->index().label_name(results->front().root), "store");
}

TEST(AnalyzerEngineTest, WithoutStemmingPluralMisses) {
  auto db = XmlDatabase::Load(kXml);
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  auto results = engine.Search(*db, Query::Parse("stores houston"));
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(AnalyzerEngineTest, StopwordsDroppedFromQuery) {
  LoadOptions options;
  options.analysis.remove_stopwords = true;
  auto db = XmlDatabase::Load(kXml, options);
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  // "the" is dropped; the query behaves like "houston".
  auto results = engine.Search(*db, Query::Parse("the houston"));
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  // All-stopword queries return no results (not an error).
  auto empty = engine.Search(*db, Query::Parse("the of and"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(AnalyzerEngineTest, SnippetKeywordCoverageUnderStemming) {
  LoadOptions options;
  options.analysis.stem = true;
  auto db = XmlDatabase::Load(kXml, options);
  ASSERT_TRUE(db.ok());
  XSeekEngine engine;
  Query query = Query::Parse("stores houston");
  auto results = engine.Search(*db, query);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  SnippetService service(&*db);
  SnippetOptions snippet_options;
  snippet_options.size_bound = 6;
  auto snippet = service.Generate(query, results->front(), snippet_options);
  ASSERT_TRUE(snippet.ok());
  // The keyword "stores" is covered via the stem-matching <store> tag.
  ASSERT_GE(snippet->covered.size(), 2u);
  EXPECT_TRUE(snippet->covered[0]) << "stores";
  EXPECT_TRUE(snippet->covered[1]) << "houston";
}

}  // namespace
}  // namespace extract

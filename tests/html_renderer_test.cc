#include "render/html_renderer.h"

#include <gtest/gtest.h>

#include "datagen/stores_dataset.h"
#include "snippet/snippet_service.h"

namespace extract {
namespace {

struct Ctx {
  XmlDatabase db;
  Query query;
  std::vector<Snippet> snippets;
};

Ctx RunQuery(std::string xml, const std::string& query_text, size_t bound) {
  auto db = XmlDatabase::Load(std::move(xml));
  EXPECT_TRUE(db.ok()) << db.status();
  Query query = Query::Parse(query_text);
  XSeekEngine engine;
  auto results = engine.Search(*db, query);
  EXPECT_TRUE(results.ok()) << results.status();
  SnippetService service(&*db);
  SnippetOptions options;
  options.size_bound = bound;
  auto snippets = service.GenerateBatch(query, *results, options, BatchOptions{});
  EXPECT_TRUE(snippets.ok());
  return Ctx{std::move(*db), std::move(query), std::move(*snippets)};
}

TEST(EscapeHtmlTest, EscapesSpecials) {
  EXPECT_EQ(EscapeHtml("a < b & \"c\" > d"),
            "a &lt; b &amp; &quot;c&quot; &gt; d");
  EXPECT_EQ(EscapeHtml("plain"), "plain");
}

TEST(RenderSnippetHtmlTest, NestedListWithValues) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas", 8);
  ASSERT_FALSE(ctx.snippets.empty());
  std::string html = RenderSnippetHtml(ctx.snippets[0], ctx.query);
  EXPECT_NE(html.find("<ul class=\"snippet\">"), std::string::npos);
  EXPECT_NE(html.find("Levis"), std::string::npos);
  // tag: value inline style.
  EXPECT_NE(html.find("<span class=\"tag\">name</span>: "
                      "<span class=\"value\">Levis</span>"),
            std::string::npos);
}

TEST(RenderSnippetHtmlTest, HighlightsKeywords) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas", 8);
  std::string html = RenderSnippetHtml(ctx.snippets[0], ctx.query);
  // "store" (tag) and "Texas" (value) are keywords -> bolded.
  EXPECT_NE(html.find("<b>store</b>"), std::string::npos);
  EXPECT_NE(html.find("<b>Texas</b>"), std::string::npos);
}

TEST(RenderSnippetHtmlTest, EmptySnippet) {
  Snippet empty;
  std::string html = RenderSnippetHtml(empty, Query{});
  EXPECT_NE(html.find("empty"), std::string::npos);
}

TEST(RenderSnippetHtmlTest, ValuesAreHtmlEscaped) {
  auto db = XmlDatabase::Load("<db><i><t>a &lt; b</t></i><i><t>c</t></i></db>");
  ASSERT_TRUE(db.ok());
  Query query = Query::Parse("a");
  XSeekEngine engine;
  auto results = engine.Search(*db, query);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  SnippetService service(&*db);
  SnippetOptions options;
  options.size_bound = 6;
  auto snippet = service.Generate(query, results->front(), options);
  ASSERT_TRUE(snippet.ok());
  std::string html = RenderSnippetHtml(*snippet, query);
  EXPECT_EQ(html.find("a < b"), std::string::npos);
  EXPECT_NE(html.find("&lt;"), std::string::npos);
}

TEST(RenderResultsPageTest, FullPageStructure) {
  Ctx ctx = RunQuery(GenerateStoresXml(), "store texas", 8);
  std::string html = RenderResultsPageHtml(ctx.query, ctx.snippets);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("store texas"), std::string::npos);
  // Keys as headings (the §2.2 title analogy).
  EXPECT_NE(html.find("<h2>Levis</h2>"), std::string::npos);
  EXPECT_NE(html.find("<h2>ESprit</h2>"), std::string::npos);
  // Per-result anchors and links.
  EXPECT_NE(html.find("id=\"result-1\""), std::string::npos);
  EXPECT_NE(html.find("href=\"#result-2\""), std::string::npos);
}

TEST(RenderResultsPageTest, FallbackHeadingWithoutKey) {
  Ctx ctx = RunQuery("<a><b>hello</b></a>", "hello", 4);
  std::string html = RenderResultsPageHtml(ctx.query, ctx.snippets);
  EXPECT_NE(html.find("<h2>Result 1</h2>"), std::string::npos);
}

}  // namespace
}  // namespace extract

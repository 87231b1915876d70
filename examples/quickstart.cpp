// Quickstart: load a small XML document, run a keyword query, and generate
// a snippet for each result.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "search/result_builder.h"
#include "search/search_engine.h"
#include "snippet/snippet_service.h"
#include "xml/serializer.h"

int main() {
  const std::string xml = R"(<!DOCTYPE library [
    <!ELEMENT library (book*)>
    <!ELEMENT book (title, author*, year, publisher)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT author (#PCDATA)>
    <!ELEMENT year (#PCDATA)>
    <!ELEMENT publisher (#PCDATA)>
  ]>
  <library>
    <book>
      <title>Foundations of Databases</title>
      <author>Abiteboul</author><author>Hull</author><author>Vianu</author>
      <year>1995</year>
      <publisher>Addison Wesley</publisher>
    </book>
    <book>
      <title>Principles of Database Systems</title>
      <author>Ullman</author>
      <year>1983</year>
      <publisher>Computer Science Press</publisher>
    </book>
    <book>
      <title>Database Systems The Complete Book</title>
      <author>Garcia-Molina</author><author>Ullman</author><author>Widom</author>
      <year>2001</year>
      <publisher>Prentice Hall</publisher>
    </book>
  </library>)";

  // 1. Load: parse, classify nodes (entity/attribute/connection), mine
  //    keys, build the inverted index.
  auto db = extract::XmlDatabase::Load(xml);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // 2. Search: SLCA + master-entity scoping (XSeek-lite).
  extract::Query query = extract::Query::Parse("Ullman database");
  extract::XSeekEngine engine;
  auto results = engine.Search(*db, query);
  if (!results.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s  — %zu result(s)\n\n", query.ToString().c_str(),
              results->size());

  // 3. Snippets: size-bounded summaries of every result, generated as one
  //    batch. The SnippetContext shares the per-query work across results,
  //    and the output order matches the result order.
  extract::SnippetService service(&*db);
  extract::SnippetContext ctx(&*db, query);
  extract::SnippetOptions options;
  options.size_bound = 8;
  auto snippets = service.GenerateBatch(ctx, *results, options);
  if (!snippets.ok()) {
    std::fprintf(stderr, "snippets failed: %s\n",
                 snippets.status().ToString().c_str());
    return 1;
  }
  for (const extract::Snippet& snippet : *snippets) {
    std::printf("IList: %s\n", snippet.ilist.ToString().c_str());
    std::printf("snippet (%zu edges <= %zu):\n%s\n", snippet.edges(),
                options.size_bound, extract::RenderSnippet(snippet).c_str());
  }
  return 0;
}

// Reproduces the demonstration walkthrough (paper §4, Figure 5): keyword
// search over the stores database with per-result snippets, side by side
// with the flat-text ("Google Desktop"-style) baseline the demo compares
// against.
//
//   $ ./build/examples/store_browser                 # query "store texas", bound 6
//   $ ./build/examples/store_browser 8 jeans texas   # custom bound + query

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/stores_dataset.h"
#include "search/result_builder.h"
#include "search/search_engine.h"
#include "snippet/snippet_service.h"
#include "textsnippet/text_snippet.h"
#include "xml/serializer.h"

int main(int argc, char** argv) {
  size_t size_bound = 6;  // the demo's walkthrough value
  std::string query_text = "store texas";
  if (argc > 1) size_bound = static_cast<size_t>(std::atoi(argv[1]));
  if (argc > 2) {
    query_text.clear();
    for (int i = 2; i < argc; ++i) {
      if (!query_text.empty()) query_text += ' ';
      query_text += argv[i];
    }
  }

  auto db = extract::XmlDatabase::Load(extract::GenerateStoresXml());
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  extract::Query query = extract::Query::Parse(query_text);
  extract::XSeekEngine engine;
  auto results = engine.Search(*db, query);
  if (!results.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  std::printf("query: \"%s\"   snippet size bound: %zu   results: %zu\n\n",
              query.ToString().c_str(), size_bound, results->size());

  // One batch over all results; the page order matches the
  // result order.
  extract::SnippetService service(&*db);
  extract::SnippetOptions options;
  options.size_bound = size_bound;
  auto snippets = service.GenerateBatch(query, *results, options);
  if (!snippets.ok()) {
    std::fprintf(stderr, "snippets failed: %s\n",
                 snippets.status().ToString().c_str());
    return 1;
  }

  for (size_t i = 0; i < snippets->size(); ++i) {
    const extract::Snippet& snippet = (*snippets)[i];
    std::printf("--- result %zu", i + 1);
    if (snippet.key.found()) {
      std::printf("  [key: %s]", snippet.key.value.c_str());
    }
    std::printf(" ---\n");
    std::printf("eXtract snippet (%zu edges):\n%s\n", snippet.edges(),
                extract::RenderSnippet(snippet).c_str());

    extract::TextSnippetOptions text_options;
    text_options.max_words = size_bound;
    extract::TextSnippet text = extract::GenerateTextSnippet(
        db->index(), (*results)[i].root, query.keywords, text_options);
    std::printf("text-engine baseline: %s\n\n", text.text.c_str());
  }
  return 0;
}

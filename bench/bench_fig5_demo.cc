// F5 — Figure 5 reproduction: the demo walkthrough. Query "store texas"
// with snippet size bound 6 over the stores database; per-result snippets
// with keys, next to the structure-blind text baseline ("Google Desktop")
// the demo compares against.
//
// Paper artifact: the screenshot shows two results whose snippets convey
// "Levis features jeans, especially for man" and "ESprit focuses on the
// outwear clothes, mostly for woman".

#include <cstdio>

#include "bench_util.h"
#include "datagen/stores_dataset.h"
#include "snippet/snippet_service.h"
#include "textsnippet/text_snippet.h"

int main() {
  using namespace extract;
  std::printf("== F5: Figure 5 — demo walkthrough: query \"store texas\" ==\n\n");
  XmlDatabase db = bench::MustLoad(GenerateStoresXml());
  XSeekEngine engine;
  Query query = Query::Parse("store texas");
  auto results = engine.Search(db, query);
  if (!results.ok()) return 1;
  std::printf("results: %zu (paper: 2 — Levis and ESprit)\n\n",
              results->size());

  SnippetService service(&db);
  for (size_t bound : {6, 10}) {
    std::printf("---- snippet size bound %zu ----\n", bound);
    SnippetOptions options;
    options.size_bound = bound;
    size_t rank = 1;
    for (const QueryResult& result : *results) {
      auto snippet = service.Generate(query, result, options);
      if (!snippet.ok()) return 1;
      std::printf("result %zu [key: %s] (%zu edges, %zu/%zu items)\n%s",
                  rank++, snippet->key.value.c_str(), snippet->edges(),
                  snippet->covered_count(), snippet->ilist.size(),
                  RenderSnippet(*snippet).c_str());
      TextSnippetOptions text_options;
      text_options.max_words = bound;
      TextSnippet text = GenerateTextSnippet(db.index(), result.root,
                                             query.keywords, text_options);
      std::printf("text baseline: %s\n\n", text.text.c_str());
    }
  }
  return 0;
}

// F2 — Figure 2 reproduction: the snippet generated for the paper's running
// example, rendered as a tree, with generation latency.
//
// Paper artifact: Figure 2 shows the snippet of the Figure-1 query result —
// rooted at retailer, carrying name "Brook Brothers", product "apparel", a
// Texas/Houston store, and clothes with the dominant category/fitting/
// situation values.

#include <cstdio>

#include "bench_util.h"
#include "datagen/retailer_dataset.h"
#include "snippet/snippet_service.h"

int main() {
  using namespace extract;
  std::printf("== F2: Figure 2 — snippet of the 'Texas apparel retailer' "
              "result ==\n\n");
  XmlDatabase db = bench::MustLoad(GenerateRetailerXml());
  XSeekEngine engine;
  Query query = Query::Parse("Texas apparel retailer");
  auto results = engine.Search(db, query);
  if (!results.ok() || results->size() != 1) {
    std::fprintf(stderr, "unexpected results\n");
    return 1;
  }

  SnippetService service(&db);
  for (size_t bound : {6, 12, 21}) {
    SnippetOptions options;
    options.size_bound = bound;
    auto snippet = service.Generate(query, results->front(), options);
    if (!snippet.ok()) {
      std::fprintf(stderr, "snippet failed: %s\n",
                   snippet.status().ToString().c_str());
      return 1;
    }
    std::printf("--- size bound %zu (used %zu edges, covered %zu/%zu IList "
                "items) ---\n%s\n",
                bound, snippet->edges(), snippet->covered_count(),
                snippet->ilist.size(), RenderSnippet(*snippet).c_str());
  }

  SnippetOptions options;
  options.size_bound = 21;
  volatile size_t sink = 0;
  double us = bench::MeasureMicros([&] {
    auto snippet = service.Generate(query, results->front(), options);
    sink += snippet->edges();
  });
  (void)sink;
  std::printf("full pipeline latency (bound 21): %.1f us\n", us);
  std::printf("\npaper (Figure 2): retailer{name Brook Brothers, product "
              "apparel, store{state Texas, city Houston, merchandises{"
              "clothes{suit, man}}}, clothes{casual, woman, outwear}}\n");
  return 0;
}

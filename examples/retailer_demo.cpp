// Reproduces the paper's running example end to end (Figures 1, 2 and 3):
// the query "Texas, apparel, retailer" against the retailer database, the
// value-occurrence statistics, the IList, and the generated snippet.
//
//   $ ./build/examples/retailer_demo [size_bound]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/retailer_dataset.h"
#include "schema/schema_summary.h"
#include "search/search_engine.h"
#include "snippet/feature_statistics.h"
#include "snippet/snippet_service.h"

int main(int argc, char** argv) {
  size_t size_bound = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 21;

  std::string xml = extract::GenerateRetailerXml();
  auto db = extract::XmlDatabase::Load(xml);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  std::printf("=== Data Analyzer (schema summary) ===\n%s\n",
              extract::RenderSchemaSummary(db->index(), db->classification(),
                                           db->keys())
                  .c_str());

  extract::Query query = extract::Query::Parse("Texas, apparel, retailer");
  extract::XSeekEngine engine;
  auto results = engine.Search(*db, query);
  if (!results.ok() || results->empty()) {
    std::fprintf(stderr, "no results\n");
    return 1;
  }
  const extract::QueryResult& result = results->front();

  // The stage pipeline (paper Figure 4), shared per-query state in a
  // SnippetContext. The Figure 1 statistics come out of the same context
  // the pipeline uses — computed once, reused below.
  extract::SnippetService service(&*db);
  extract::SnippetContext ctx(&*db, query);
  std::printf("=== Figure 4: pipeline stages ===\n");
  for (const auto& stage : service.stages()) {
    std::printf("  %s\n", std::string(stage->name()).c_str());
  }
  std::printf("\n");

  // Figure 1 (right portion): value occurrence statistics.
  const extract::FeatureStatistics& stats = ctx.StatisticsFor(result.root);
  std::printf("=== Figure 1: statistics of the query result ===\n%s\n",
              stats.Render(db->index(), /*min_occurrences=*/4).c_str());

  // Figure 3: the IList; Figure 2: the snippet.
  extract::SnippetOptions options;
  options.size_bound = size_bound;
  auto snippet = service.Generate(ctx, result, options);
  if (!snippet.ok()) {
    std::fprintf(stderr, "snippet failed: %s\n",
                 snippet.status().ToString().c_str());
    return 1;
  }

  std::printf("=== Figure 3: IList ===\n%s\n\n",
              snippet->ilist.ToString().c_str());
  std::printf("(dominance scores: ");
  bool first = true;
  for (const auto& item : snippet->ilist.items()) {
    if (item.kind == extract::IListItemKind::kDominantFeature) {
      std::printf("%s%s=%.1f", first ? "" : ", ", item.display.c_str(),
                  item.score);
      first = false;
    }
  }
  std::printf(")\n\n");
  std::printf("=== Figure 2: snippet (%zu edges <= bound %zu) ===\n%s\n",
              snippet->edges(), size_bound,
              extract::RenderSnippet(*snippet).c_str());
  std::printf("%s\n", extract::RenderCoverage(*snippet).c_str());
  return 0;
}

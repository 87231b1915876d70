// E12 — distinguishability (extension): the paper's goal 2 says snippets
// should "differentiate [results] from one another". This experiment
// measures batch-level distinctness — mean pairwise overlap of snippet
// contents and distinct-key coverage — with and without the batch feature
// diversifier, across size bounds.
//
// Expected shape: keys make snippets distinguishable even when overlap is
// high (the §2.2 mechanism); diversification lowers content overlap further
// without violating the size bound, most visibly at small-to-mid bounds.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/tree_printer.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "snippet/distinguishability.h"

int main() {
  using namespace extract;
  std::printf("== E12: batch distinguishability — plain vs diversified "
              "snippets ==\n\n");

  struct Scenario {
    const char* name;
    std::string xml;
    const char* query;
  };
  std::vector<Scenario> scenarios;
  RetailerDatasetOptions retail;
  retail.num_matching_retailers = 4;
  retail.clothes_per_extra_retailer = 40;
  scenarios.push_back({"retailers x4 / 'texas apparel retailer'",
                       GenerateRetailerXml(retail), "texas apparel retailer"});
  scenarios.push_back(
      {"stores / 'store texas'", GenerateStoresXml(), "store texas"});

  for (const Scenario& scenario : scenarios) {
    XmlDatabase db = bench::MustLoad(scenario.xml);
    Query query = Query::Parse(scenario.query);
    XSeekEngine engine;
    auto results = engine.Search(db, query);
    if (!results.ok() || results->size() < 2) {
      std::printf("-- %s: fewer than 2 results, skipped --\n\n",
                  scenario.name);
      continue;
    }
    std::printf("-- %s (%zu results) --\n", scenario.name, results->size());
    std::vector<std::vector<std::string>> table;
    table.push_back({"bound", "overlap plain", "overlap diversified",
                     "distinct keys", "keyed"});
    for (size_t bound : {6u, 10u, 14u, 20u}) {
      SnippetOptions options;
      options.size_bound = bound;
      SnippetService service(&db);
      auto plain = service.GenerateBatch(query, *results, options);
      if (!plain.ok()) return 1;
      DiversifyOptions diversify;
      diversify.commonality_penalty = 1.5;
      auto diverse =
          GenerateDiverseSnippets(db, query, *results, options, diversify);
      if (!diverse.ok()) return 1;
      BatchDistinctness before = MeasureDistinctness(*plain);
      BatchDistinctness after = MeasureDistinctness(*diverse);
      table.push_back({std::to_string(bound),
                       FormatDouble(before.mean_pairwise_overlap, 3),
                       FormatDouble(after.mean_pairwise_overlap, 3),
                       std::to_string(after.distinct_keys) + "/" +
                           std::to_string(after.results),
                       std::to_string(after.keyed_snippets)});
    }
    std::printf("%s\n", RenderTable(table).c_str());
  }
  std::printf("expected shape: diversified overlap <= plain overlap; every "
              "result keyed with a distinct key (the §2.2 mechanism).\n");
  return 0;
}

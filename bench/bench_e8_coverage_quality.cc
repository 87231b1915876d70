// E8 — snippet quality: IList coverage at equal budget, eXtract's greedy
// selector vs the exact optimum, blind BFS truncation, root-to-match paths,
// and the structure-blind text baseline.
//
// Reconstructs the companion paper's quality evaluation (and the Google
// Desktop comparison of §4). Expected shape: greedy ≈ exact, both well above
// BFS truncation and the text baseline; the gap narrows as the budget grows.
//
// The exact solver is exponential, so both greedy and exact run over
// instance lists capped to the kInstanceCap shallowest instances per item
// (shallow instances are the cheapest to connect, so the cap preserves the
// interesting choices while keeping branch-and-bound tractable).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/tree_printer.h"
#include "datagen/retailer_dataset.h"
#include "datagen/stores_dataset.h"
#include "snippet/baselines.h"
#include "snippet/snippet_service.h"
#include "textsnippet/text_snippet.h"

namespace {

using namespace extract;

constexpr size_t kInstanceCap = 4;

size_t CountTrue(const std::vector<bool>& v) {
  return static_cast<size_t>(std::count(v.begin(), v.end(), true));
}

// Keeps the `cap` shallowest instances of each item (document order within).
std::vector<ItemInstances> CapInstances(const IndexedDocument& doc,
                                        std::vector<ItemInstances> instances,
                                        size_t cap) {
  for (ItemInstances& item : instances) {
    if (item.nodes.size() <= cap) continue;
    std::stable_sort(item.nodes.begin(), item.nodes.end(),
                     [&](NodeId a, NodeId b) {
                       return doc.depth(a) < doc.depth(b);
                     });
    item.nodes.resize(cap);
    std::sort(item.nodes.begin(), item.nodes.end());
  }
  return instances;
}

}  // namespace

int main() {
  std::printf("== E8: IList coverage by selector, per size bound ==\n"
              "(mean covered items per result; higher is better)\n\n");

  struct Scenario {
    const char* name;
    std::string xml;
    const char* query;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"stores / 'store texas'", GenerateStoresXml(),
                       "store texas"});
  RetailerDatasetOptions retail;
  retail.num_matching_retailers = 3;
  scenarios.push_back({"retailers / 'texas apparel retailer'",
                       GenerateRetailerXml(retail), "texas apparel retailer"});

  for (const Scenario& scenario : scenarios) {
    XmlDatabase db = bench::MustLoad(scenario.xml);
    Query query = Query::Parse(scenario.query);
    XSeekEngine engine;
    auto results = engine.Search(db, query);
    if (!results.ok() || results->empty()) return 1;

    std::printf("-- %s (%zu results) --\n", scenario.name, results->size());
    std::vector<std::vector<std::string>> table;
    table.push_back({"bound", "greedy", "exact", "bfs-trunc", "match-paths",
                     "text-window", "|IList|"});
    SnippetService service(&db);
    for (size_t bound : {4u, 6u, 8u, 12u, 16u, 24u}) {
      double greedy_sum = 0, exact_sum = 0, bfs_sum = 0, paths_sum = 0,
             text_sum = 0;
      size_t ilist_size = 0;
      for (const QueryResult& result : *results) {
        // IList via the pipeline (bound only affects selection, not the
        // list itself).
        SnippetOptions options;
        options.size_bound = bound;
        options.features.max_features = 6;
        auto pipeline_snippet = service.Generate(query, result, options);
        if (!pipeline_snippet.ok()) return 1;
        const IList& ilist = pipeline_snippet->ilist;
        ilist_size = ilist.size();

        std::vector<ItemInstances> instances =
            CapInstances(db.index(), FindItemInstances(db, result.root, ilist),
                         kInstanceCap);
        Selection greedy =
            SelectInstancesGreedy(db.index(), result.root, instances, bound);
        Selection exact =
            SelectInstancesExact(db.index(), result.root, instances, bound);
        Selection bfs = BfsTruncationSelection(db.index(), result.root, bound);
        Selection paths =
            PathToMatchesSelection(db.index(), result.root, result, bound);

        TextSnippetOptions text_options;
        text_options.max_words = bound;
        TextSnippet text = GenerateTextSnippet(db.index(), result.root,
                                               query.keywords, text_options);
        std::vector<std::string> targets;
        for (const auto& item : ilist.items()) targets.push_back(item.display);

        greedy_sum += static_cast<double>(greedy.covered_count());
        exact_sum += static_cast<double>(exact.covered_count());
        bfs_sum += static_cast<double>(
            CountTrue(CoverageOfNodeSet(bfs.nodes, instances)));
        paths_sum += static_cast<double>(
            CountTrue(CoverageOfNodeSet(paths.nodes, instances)));
        text_sum += static_cast<double>(CountCoveredTargets(text, targets));
      }
      double n = static_cast<double>(results->size());
      table.push_back({std::to_string(bound), FormatDouble(greedy_sum / n, 2),
                       FormatDouble(exact_sum / n, 2),
                       FormatDouble(bfs_sum / n, 2),
                       FormatDouble(paths_sum / n, 2),
                       FormatDouble(text_sum / n, 2),
                       std::to_string(ilist_size)});
    }
    std::printf("%s\n", RenderTable(table).c_str());
  }
  std::printf("expected shape: greedy tracks exact; both dominate bfs/text; "
              "all converge as the bound approaches the result size.\n");
  return 0;
}

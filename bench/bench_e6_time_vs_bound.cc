// E6 — snippet generation latency vs snippet size bound.
//
// Expected shape: rising with the bound, then flattening. The statistics,
// return entity, key and IList do not depend on the bound, but instance
// selection does: it lists an item's instances only while the edge budget
// can still pay for one and walks each only as far as it could still win
// and fit, so a larger bound lists more items' instances and walks further
// before the tree fills. Once the bound exceeds what the IList can use,
// every item's instances are listed and the cost stops growing.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datagen/retailer_dataset.h"
#include "snippet/snippet_service.h"

namespace {

using namespace extract;

void BM_SnippetVsBound(benchmark::State& state) {
  static XmlDatabase db = bench::MustLoad(GenerateRetailerXml());
  static Query query = Query::Parse("Texas apparel retailer");
  static XSeekEngine engine;
  static auto results = engine.Search(db, query);
  if (!results.ok() || results->empty()) {
    state.SkipWithError("no results");
    return;
  }
  SnippetService service(&db);
  SnippetOptions options;
  options.size_bound = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto snippet = service.Generate(query, results->front(), options);
    benchmark::DoNotOptimize(snippet);
  }
}

BENCHMARK(BM_SnippetVsBound)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

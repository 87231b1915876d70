// E6 — snippet generation latency vs snippet size bound.
//
// Expected shape: near-flat — the bound only affects how many greedy
// insertions commit, not the per-result scans that dominate the pipeline.

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

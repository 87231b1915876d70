// E5 — snippet generation latency vs query result size (nodes).
//
// Reconstructs the companion paper's performance axis: how does the
// pipeline (statistics -> return entity -> key -> dominant features ->
// IList -> greedy selection) scale with the number of nodes in the result?
// Expected shape: growing with result size only through what the result
// holds. No stage walks the result subtree: each reads per-label columns
// and posting lists clipped to the result's id range, so its cost follows
// the result's entities, attributes and keyword matches (which here grow
// with its size), instance selection's also the edge budget, and
// materialization the selected nodes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datagen/random_xml.h"
#include "snippet/snippet_service.h"

namespace {

using namespace extract;

struct Fixture {
  XmlDatabase db;
  Query query;
  QueryResult result;
};

// One root entity whose subtree has ~`target` nodes.
Fixture MakeFixture(size_t entities) {
  RandomXmlOptions options;
  options.levels = 2;
  options.entities_per_parent = entities;
  options.attributes_per_entity = 3;
  options.domain_size = 16;
  options.zipf_skew = 1.1;
  options.seed = entities;
  RandomXmlData data = GenerateRandomXml(options);
  Fixture f{bench::MustLoad(data.xml), {}, {}};
  f.query = Query::Parse(data.keyword_pool[0] + " e0");
  // Snippet the whole-document result (root), the largest available.
  f.result.root = f.db.index().root();
  return f;
}

void BM_SnippetVsResultSize(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<size_t>(state.range(0)));
  SnippetService service(&f.db);
  SnippetOptions options;
  options.size_bound = 20;
  for (auto _ : state) {
    auto snippet = service.Generate(f.query, f.result, options);
    benchmark::DoNotOptimize(snippet);
  }
  state.counters["result_nodes"] =
      static_cast<double>(f.db.index().num_nodes());
}

BENCHMARK(BM_SnippetVsResultSize)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

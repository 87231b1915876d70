// E7 — end-to-end pipeline throughput vs document size, with per-phase
// breakdown: parse+index (Data Analyzer / Index Builder), search (SLCA +
// result scoping), snippet generation — including the batch path
// (SnippetService::GenerateBatch).
//
// Expected shape: parse+index linear in document size and dominating; search
// and snippets depend on posting-list/result sizes, far below load cost.
//
// Besides the Google Benchmark tables on stdout, the binary writes
// BENCH_e7.json to the working directory: wall-clock per pipeline stage and
// batch throughput, machine-readable so later PRs can track the perf
// trajectory.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "datagen/random_xml.h"
#include "datagen/workload.h"
#include "search/corpus.h"
#include "snippet/snippet_cache.h"
#include "snippet/snippet_service.h"

namespace {

using namespace extract;

RandomXmlData MakeDoc(size_t entities_per_parent) {
  RandomXmlOptions options;
  options.levels = 3;
  options.entities_per_parent = entities_per_parent;
  options.attributes_per_entity = 3;
  options.domain_size = 24;
  options.zipf_skew = 1.1;
  options.seed = 1234;
  return GenerateRandomXml(options);
}

// The search results of a generated workload, flattened into one batch per
// query.
std::vector<std::pair<Query, std::vector<QueryResult>>> MakeBatches(
    const XmlDatabase& db, size_t num_queries) {
  WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.keywords_per_query = 2;
  auto workload = GenerateWorkload(db, wopts);
  XSeekEngine engine;
  std::vector<std::pair<Query, std::vector<QueryResult>>> batches;
  for (const Query& q : workload) {
    auto results = engine.Search(db, q);
    if (results.ok()) batches.emplace_back(q, std::move(*results));
  }
  return batches;
}

void BM_LoadDocument(benchmark::State& state) {
  RandomXmlData data = MakeDoc(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto db = XmlDatabase::Load(data.xml);
    benchmark::DoNotOptimize(db);
  }
  state.counters["xml_bytes"] = static_cast<double>(data.xml.size());
  state.counters["elements"] = static_cast<double>(data.approx_elements);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.xml.size()));
}

BENCHMARK(BM_LoadDocument)->Arg(4)->Arg(8)->Arg(12)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_SearchWorkload(benchmark::State& state) {
  RandomXmlData data = MakeDoc(static_cast<size_t>(state.range(0)));
  XmlDatabase db = bench::MustLoad(data.xml);
  WorkloadOptions wopts;
  wopts.num_queries = 8;
  wopts.keywords_per_query = 2;
  auto workload = GenerateWorkload(db, wopts);
  XSeekEngine engine;
  size_t total_results = 0;
  for (auto _ : state) {
    total_results = 0;
    for (const Query& q : workload) {
      auto results = engine.Search(db, q);
      if (results.ok()) total_results += results->size();
      benchmark::DoNotOptimize(results);
    }
  }
  state.counters["results_per_batch"] = static_cast<double>(total_results);
}

BENCHMARK(BM_SearchWorkload)->Arg(4)->Arg(8)->Arg(12)->Arg(20)
    ->Unit(benchmark::kMillisecond);

// The pre-refactor baseline: one Generate call per result, a fresh context
// every time (no per-query reuse).
void BM_SnippetsPerResult(benchmark::State& state) {
  RandomXmlData data = MakeDoc(static_cast<size_t>(state.range(0)));
  XmlDatabase db = bench::MustLoad(data.xml);
  auto batches = MakeBatches(db, 8);
  SnippetService service(&db);
  SnippetOptions options;
  options.size_bound = 12;
  size_t snippets = 0;
  for (auto _ : state) {
    snippets = 0;
    for (const auto& [q, results] : batches) {
      for (const QueryResult& r : results) {
        auto snippet = service.Generate(q, r, options);
        benchmark::DoNotOptimize(snippet);
        ++snippets;
      }
    }
  }
  state.counters["snippets_per_batch"] = static_cast<double>(snippets);
}

BENCHMARK(BM_SnippetsPerResult)->Arg(4)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

// The batch path: one shared context per query.
void BM_SnippetBatch(benchmark::State& state) {
  RandomXmlData data = MakeDoc(8);
  XmlDatabase db = bench::MustLoad(data.xml);
  auto batches = MakeBatches(db, 8);
  SnippetService service(&db);
  SnippetOptions options;
  options.size_bound = 12;
  size_t snippets = 0;
  for (auto _ : state) {
    snippets = 0;
    for (const auto& [q, results] : batches) {
      auto generated = service.GenerateBatch(q, results, options);
      benchmark::DoNotOptimize(generated);
      if (generated.ok()) snippets += generated->size();
    }
  }
  state.counters["snippets_per_batch"] = static_cast<double>(snippets);
}

BENCHMARK(BM_SnippetBatch)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_e7.json: per-stage wall clock and batch throughput.

void WriteBenchJson(const std::string& path) {
  RandomXmlData data = MakeDoc(8);

  double load_us = bench::MeasureMicros([&] {
    auto db = XmlDatabase::Load(data.xml);
    benchmark::DoNotOptimize(db);
  });
  XmlDatabase db = bench::MustLoad(data.xml);

  auto batches = MakeBatches(db, 8);
  size_t total_results = 0;
  for (const auto& [q, results] : batches) total_results += results.size();
  XSeekEngine engine;
  double search_us = bench::MeasureMicros([&] {
    for (const auto& [q, results] : batches) {
      auto r = engine.Search(db, q);
      benchmark::DoNotOptimize(r);
    }
  });

  SnippetService service(&db);
  SnippetOptions options;
  options.size_bound = 12;

  // Per-stage wall clock: run every result through the stage sequence with
  // a fresh context per measurement pass, timing each stage.
  std::vector<double> stage_us(service.stages().size(), 0.0);
  for (const auto& [q, results] : batches) {
    SnippetContext ctx(&db, q);
    for (const QueryResult& r : results) {
      SnippetDraft draft;
      draft.result = &r;
      for (size_t s = 0; s < service.stages().size(); ++s) {
        auto start = std::chrono::steady_clock::now();
        Status status = service.stages()[s]->Run(ctx, options, draft);
        auto end = std::chrono::steady_clock::now();
        stage_us[s] +=
            std::chrono::duration_cast<
                std::chrono::duration<double, std::micro>>(end - start)
                .count();
        if (!status.ok()) {
          std::fprintf(stderr, "stage %s failed: %s\n",
                       std::string(service.stages()[s]->name()).c_str(),
                       status.ToString().c_str());
          return;
        }
      }
    }
  }

  // One sample set: min_us doubles as the central number, the percentiles
  // as the tail.
  bench::LatencyPercentiles sequential_pct =
      bench::MeasurePercentilesMicros([&] {
        for (const auto& [q, results] : batches) {
          auto generated = service.GenerateBatch(q, results, options);
          benchmark::DoNotOptimize(generated);
        }
      });
  double sequential_us = sequential_pct.min_us;

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value(std::string("e7_end_to_end"));
  json.Key("doc").BeginObject();
  json.Key("xml_bytes").Value(data.xml.size());
  json.Key("elements").Value(data.approx_elements);
  json.EndObject();
  json.Key("load_us").Value(load_us);
  json.Key("search_us").Value(search_us);
  json.Key("queries").Value(batches.size());
  json.Key("results").Value(total_results);
  json.Key("stages").BeginArray();
  for (size_t s = 0; s < service.stages().size(); ++s) {
    json.BeginObject();
    json.Key("name").Value(std::string(service.stages()[s]->name()));
    json.Key("us").Value(stage_us[s]);
    json.EndObject();
  }
  json.EndArray();
  json.Key("batch").BeginObject();
  json.Key("snippets").Value(total_results);
  json.Key("hardware_threads")
      .Value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Key("sequential_us").Value(sequential_us);
  json.Key("sequential_percentiles").BeginObject();
  bench::WritePercentiles(json, sequential_pct);
  json.EndObject();
  json.Key("sequential_snippets_per_s")
      .Value(sequential_us > 0.0 ? total_results / (sequential_us / 1e6)
                                 : 0.0);
  json.EndObject();
  json.EndObject();

  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// BENCH_cache.json: the repeated-query scenario — cold vs warm corpus
// serving through the cross-query snippet cache, plus eviction behavior
// under a deliberately undersized cache.

void WriteCacheBenchJson(const std::string& path) {
  RandomXmlData data = MakeDoc(8);
  XmlCorpus corpus;
  {
    Status status = corpus.AddDocument("random8", data.xml);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot load corpus: %s\n",
                   status.ToString().c_str());
      return;
    }
  }
  const XmlDatabase* db = corpus.Find("random8");
  auto batches = MakeBatches(*db, 8);
  size_t total_results = 0;
  for (const auto& [q, results] : batches) total_results += results.size();

  SnippetOptions options;
  options.size_bound = 12;
  auto serve_all = [&] {
    for (const auto& [q, results] : batches) {
      std::vector<CorpusResult> page;
      page.reserve(results.size());
      for (const QueryResult& r : results) {
        page.push_back(CorpusResult{"random8", r, 0.0});
      }
      auto snippets = corpus.GenerateSnippets(q, page, options);
      benchmark::DoNotOptimize(snippets);
    }
  };

  // Cold then warm: the first pass misses everything (single measurement —
  // repeated runs would warm the cache mid-measure), every later pass is
  // pure hits.
  corpus.EnableSnippetCache();
  double cold_us = bench::MeasureMicros(serve_all, /*runs=*/1);
  SnippetCacheStats cold_stats = corpus.snippet_cache()->Stats();
  double warm_us = bench::MeasureMicros(serve_all);
  // Counters are cumulative; report the warm passes as a delta from the
  // post-cold snapshot so warm hit_rate reads 1.0 regardless of run count.
  SnippetCacheStats warm_stats = corpus.snippet_cache()->Stats();
  warm_stats.hits -= cold_stats.hits;
  warm_stats.misses -= cold_stats.misses;
  warm_stats.evictions -= cold_stats.evictions;

  // Eviction behavior: a cache far smaller than the working set, served
  // twice — every pass misses and evicts.
  SnippetCache::Options tiny;
  tiny.capacity = total_results > 8 ? total_results / 4 : 1;
  tiny.num_shards = 2;
  corpus.EnableSnippetCache(tiny);
  serve_all();
  serve_all();
  SnippetCacheStats tiny_stats = corpus.snippet_cache()->Stats();

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value(std::string("e7_snippet_cache"));
  json.Key("doc").BeginObject();
  json.Key("xml_bytes").Value(data.xml.size());
  json.Key("elements").Value(data.approx_elements);
  json.EndObject();
  json.Key("queries").Value(batches.size());
  json.Key("results").Value(total_results);
  json.Key("cold_us").Value(cold_us);
  json.Key("warm_us").Value(warm_us);
  json.Key("warm_speedup").Value(warm_us > 0.0 ? cold_us / warm_us : 0.0);
  auto emit_stats = [&](const char* key, const SnippetCacheStats& s) {
    json.Key(key).BeginObject();
    json.Key("hits").Value(s.hits);
    json.Key("misses").Value(s.misses);
    json.Key("evictions").Value(s.evictions);
    json.Key("entries").Value(s.entries);
    json.Key("capacity").Value(s.capacity);
    json.Key("hit_rate").Value(s.hit_rate());
    json.EndObject();
  };
  emit_stats("cold_stats", cold_stats);
  emit_stats("warm_stats", warm_stats);
  json.Key("eviction").BeginObject();
  json.Key("passes").Value(static_cast<size_t>(2));
  emit_stats("stats", tiny_stats);
  json.EndObject();
  json.EndObject();

  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// BENCH_search.json: corpus search (the SearchAll document loop) over a
// multi-document synthetic corpus and over one huge document.

void WriteSearchBenchJson(const std::string& path) {
  // Sized so per-document search+rank work dominates per-call overhead.
  bench::SyntheticCorpusOptions corpus_options;
  corpus_options.num_documents = 8;
  corpus_options.entities_per_parent = 24;
  size_t xml_bytes = 0;
  XmlCorpus corpus = bench::MakeSyntheticCorpus(corpus_options, &xml_bytes);

  // Queries drawn from one document's workload; the shared value vocabulary
  // of the generator makes them hit most documents.
  const XmlDatabase* db0 = corpus.Find("doc00");
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  wopts.keywords_per_query = 3;
  wopts.frequency_bias = 1.0;  // broad queries: long posting lists
  auto workload = GenerateWorkload(*db0, wopts);
  XSeekEngine engine;

  size_t hits = 0;
  double sequential_us = bench::MeasureMicros([&] {
    size_t total = 0;
    for (const Query& q : workload) {
      auto results = corpus.SearchAll(q, engine);
      benchmark::DoNotOptimize(results);
      if (results.ok()) total += results->size();
    }
    hits = total;
  });

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value(std::string("corpus_search"));
  json.Key("corpus").BeginObject();
  json.Key("documents").Value(corpus_options.num_documents);
  json.Key("xml_bytes_total").Value(xml_bytes);
  json.EndObject();
  json.Key("queries").Value(workload.size());
  json.Key("hits").Value(hits);
  json.Key("hardware_threads")
      .Value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Key("sequential_us").Value(sequential_us);

  // -------------------------------------------------------------------
  // The single-huge-document scenario: one document, 100k+ nodes.
  bench::SyntheticCorpusOptions huge_options;
  huge_options.num_documents = 1;
  huge_options.levels = 3;
  huge_options.entities_per_parent = 26;
  huge_options.seed = 99;
  size_t huge_xml_bytes = 0;
  XmlCorpus huge_corpus =
      bench::MakeSyntheticCorpus(huge_options, &huge_xml_bytes);
  const XmlDatabase* huge_db = huge_corpus.Find("doc00");
  // Broad hand-picked queries (frequent generator values and the leaf
  // entity tag): driving posting lists thousands of entries long and
  // result pages in the hundreds-to-thousands — the regime where the SLCA
  // candidate loop and the match-attachment copies dominate. Random
  // workloads here draw mid-frequency keywords whose lists are a few dozen
  // entries.
  std::vector<Query> huge_workload;
  for (const char* text : {"v20r0 v21r0 v22r0", "e2 v20r0 v21r0",
                           "v20r0 v20r1 v21r1", "e1 v10r0 v20r0"}) {
    huge_workload.push_back(Query::Parse(text));
  }
  size_t huge_hits = 0;
  double huge_sequential_us = bench::MeasureMicros([&] {
    size_t total = 0;
    for (const Query& q : huge_workload) {
      auto results = huge_corpus.SearchAll(q, engine);
      benchmark::DoNotOptimize(results);
      if (results.ok()) total += results->size();
    }
    huge_hits = total;
  });

  json.Key("single_huge_document").BeginObject();
  json.Key("documents").Value(huge_options.num_documents);
  json.Key("xml_bytes").Value(huge_xml_bytes);
  json.Key("nodes").Value(huge_db->index().num_nodes());
  json.Key("queries").Value(huge_workload.size());
  json.Key("hits").Value(huge_hits);
  json.Key("sequential_us").Value(huge_sequential_us);
  json.EndObject();
  json.EndObject();

  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// BENCH_stream.json: time-to-first-snippet (streamed serving) vs full-batch
// latency on multi-slot pages — the number the streaming refactor exists
// for. Streamed output is cross-checked byte-identical to the batch path.
//
// Batch latency and streamed TTFS are the headline serving numbers
// (warn-only latency keys), and their per-page minima drive
// constraint_ttfs_below_batch, strict in the perf gate: a stream produces
// on its consumer's thread one slot per pull, so the first slot of a
// multi-slot page finishes strictly before all slots do, on any machine,
// or the stream's lazy production is broken.
//
// Plus the search-phase counterpart on a skewed hot/cold corpus: the
// incremental top-k merge's time-to-first-*result* vs the blocking
// search+rank wall clock (constraint_ttfr_below_blocking, strict), the
// released page's byte-identity to the truncated blocking page
// (results_identical_topk, strict), and proof that early termination did
// real work-skipping (constraint_topk_early_termination: candidates
// scored < candidates total, strict).

void WriteStreamBenchJson(const std::string& path) {
  RandomXmlData data = MakeDoc(8);
  XmlCorpus corpus;
  {
    Status status = corpus.AddDocument("random8", data.xml);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot load corpus: %s\n",
                   status.ToString().c_str());
      return;
    }
  }
  const XmlDatabase* db = corpus.Find("random8");
  auto batches = MakeBatches(*db, 12);

  // Multi-slot pages only: on a one-slot page the first snippet IS the
  // batch, and the constraint below would measure nothing.
  struct Page {
    Query query;
    std::vector<CorpusResult> hits;
  };
  std::vector<Page> pages;
  size_t slots_total = 0;
  size_t min_page_slots = SIZE_MAX;
  for (auto& [q, results] : batches) {
    if (results.size() < 4) continue;
    Page page;
    page.query = q;
    page.hits.reserve(results.size());
    for (const QueryResult& r : results) {
      page.hits.push_back(CorpusResult{"random8", r, 0.0});
    }
    slots_total += page.hits.size();
    min_page_slots = std::min(min_page_slots, page.hits.size());
    pages.push_back(std::move(page));
  }
  if (pages.empty()) {
    std::fprintf(stderr, "stream bench: no multi-slot pages generated\n");
    return;
  }

  SnippetOptions options;
  options.size_bound = 12;

  // Identity cross-check: collecting the stream in slot order must be
  // byte-identical to GenerateSnippets (uncached on both sides).
  bool identical = true;
  for (const Page& page : pages) {
    auto batch = corpus.GenerateSnippets(page.query, page.hits, options);
    StreamOptions slot_order;
    slot_order.order = StreamOrder::kSlot;
    auto session =
        corpus.StreamSnippets(page.query, page.hits, options, slot_order);
    if (!batch.ok() || !session.ok()) {
      identical = false;
      break;
    }
    auto streamed = session->stream().Collect();
    if (!streamed.ok() || streamed->size() != batch->size()) {
      identical = false;
      break;
    }
    for (size_t i = 0; i < batch->size(); ++i) {
      const Snippet& a = (*batch)[i];
      const Snippet& b = (*streamed)[i];
      if (a.result_root != b.result_root || a.nodes != b.nodes ||
          a.ilist.ToString() != b.ilist.ToString() ||
          RenderSnippet(a) != RenderSnippet(b)) {
        identical = false;
        break;
      }
    }
  }
  if (!identical) {
    std::fprintf(stderr, "collected stream diverged from GenerateSnippets!\n");
  }

  // Paired measurement per (run, page): batch wall clock vs streamed
  // time-to-first-snippet (and streamed full drain, to expose the stream's
  // own overhead). Per-page minima drive the strict constraint: slot one
  // of a multi-slot page must finish strictly before all slots have.
  using Clock = std::chrono::steady_clock;
  auto us_since = [](Clock::time_point start) {
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::micro>>(Clock::now() - start)
        .count();
  };
  auto measure_batch = [&](const Page& page) {
    Clock::time_point t0 = Clock::now();
    auto generated = corpus.GenerateSnippets(page.query, page.hits, options);
    benchmark::DoNotOptimize(generated);
    return us_since(t0);
  };
  // Returns {ttfs_us (-1 when no snippet succeeded), full_drain_us}.
  auto measure_stream = [&](const Page& page) {
    Clock::time_point t0 = Clock::now();
    auto session = corpus.StreamSnippets(page.query, page.hits, options,
                                         StreamOptions{});
    double ttfs_us = -1.0;
    if (session.ok()) {
      while (auto event = session->stream().Next()) {
        if (ttfs_us < 0.0 && event->snippet.ok()) ttfs_us = us_since(t0);
        benchmark::DoNotOptimize(event);
      }
    }
    return std::make_pair(ttfs_us, us_since(t0));
  };

  const int kRuns = 15;
  std::vector<double> batch_samples, ttfs_samples, stream_full_samples;
  std::vector<double> page_batch_min(pages.size(), 1e18);
  std::vector<double> page_ttfs_min(pages.size(), 1e18);
  for (int run = 0; run < kRuns; ++run) {
    for (size_t p = 0; p < pages.size(); ++p) {
      const Page& page = pages[p];
      const double batch_us = measure_batch(page);
      batch_samples.push_back(batch_us);
      page_batch_min[p] = std::min(page_batch_min[p], batch_us);
      auto [ttfs_us, full_us] = measure_stream(page);
      stream_full_samples.push_back(full_us);
      if (ttfs_us >= 0.0) {
        ttfs_samples.push_back(ttfs_us);
        page_ttfs_min[p] = std::min(page_ttfs_min[p], ttfs_us);
      }
    }
  }
  bool ttfs_below_batch = true;
  for (size_t p = 0; p < pages.size(); ++p) {
    if (!(page_ttfs_min[p] < page_batch_min[p])) ttfs_below_batch = false;
  }
  if (!ttfs_below_batch) {
    std::fprintf(stderr,
                 "stream bench: first snippet not below batch latency!\n");
  }

  // Warm-cache streaming: every slot a hit, live the moment the stream
  // opens — the repeated-query regime where time-to-first-snippet collapses
  // to a cache probe.
  corpus.EnableSnippetCache();
  for (const Page& page : pages) {
    auto warm = corpus.GenerateSnippets(page.query, page.hits, options);
    benchmark::DoNotOptimize(warm);
  }
  std::vector<double> warm_ttfs_samples;
  for (int run = 0; run < kRuns; ++run) {
    for (const Page& page : pages) {
      Clock::time_point t0 = Clock::now();
      auto session =
          corpus.StreamSnippets(page.query, page.hits, options, StreamOptions{});
      if (!session.ok()) continue;
      double ttfs_us = -1.0;
      while (auto event = session->stream().Next()) {
        if (ttfs_us < 0.0 && event->snippet.ok()) ttfs_us = us_since(t0);
        benchmark::DoNotOptimize(event);
      }
      if (ttfs_us >= 0.0) warm_ttfs_samples.push_back(ttfs_us);
    }
  }

  // Incremental top-k search on a skewed corpus: a few deep, keyword-dense
  // documents among many shallow ones. The threshold bound merge must
  // settle the page from the hot documents alone — the cold documents'
  // candidates are never scanned (candidates_scored < candidates_total) —
  // and the first released slot (TTFR, stamped inside the coordinator)
  // must land strictly before the sequential blocking search+rank of the
  // whole corpus completes. The merge pulls one producer at a time, so both
  // claims are structural invariants on any core count.
  auto hot_doc = [](int products) {
    std::string xml = "<site><a><b><c><d><e><f>";
    for (int i = 0; i < products; ++i) {
      xml +=
          "<product><name>alpha alpha alpha</name>"
          "<desc>beta beta beta</desc></product>";
    }
    xml += "</f></e></d></c></b></a></site>";
    return xml;
  };
  XmlCorpus skewed;
  bool topk_ok = skewed.AddDocument("hot_a", hot_doc(6)).ok() &&
                 skewed.AddDocument("hot_b", hot_doc(6)).ok();
  for (int d = 0; d < 24 && topk_ok; ++d) {
    topk_ok = skewed
                  .AddDocument("cold" + std::to_string(d),
                               "<site><x>alpha</x><y>beta</y></site>")
                  .ok();
  }
  XSeekEngine topk_engine;
  const Query topk_query = Query::Parse("alpha beta");
  const size_t kTopK = 5;
  std::vector<CorpusResult> blocking_page;
  if (topk_ok) {
    auto blocking = skewed.SearchAll(topk_query, topk_engine);
    topk_ok = blocking.ok() && blocking->size() >= kTopK;
    if (topk_ok) blocking_page = std::move(*blocking);
  }
  bool topk_identical = topk_ok;
  bool topk_early_terminated = topk_ok;
  size_t topk_candidates_scored = 0;
  size_t topk_candidates_total = 0;
  std::vector<double> blocking_search_samples, topk_samples, ttfr_samples;
  double blocking_min_us = 1e18;
  double ttfr_min_us = 1e18;
  for (int run = 0; topk_ok && run < kRuns; ++run) {
    Clock::time_point t0 = Clock::now();
    auto blocking = skewed.SearchAll(topk_query, topk_engine);
    const double blocking_us = us_since(t0);
    benchmark::DoNotOptimize(blocking);
    blocking_search_samples.push_back(blocking_us);
    blocking_min_us = std::min(blocking_min_us, blocking_us);

    TopKSearchStats stats;
    t0 = Clock::now();
    auto page = skewed.SearchTopK(topk_query, topk_engine, RankingOptions{},
                                  CorpusServingOptions{}, kTopK, &stats);
    const double topk_us = us_since(t0);
    if (!page.ok()) {
      topk_ok = false;
      break;
    }
    topk_samples.push_back(topk_us);
    const double ttfr_us = static_cast<double>(stats.first_result_ns) / 1e3;
    ttfr_samples.push_back(ttfr_us);
    ttfr_min_us = std::min(ttfr_min_us, ttfr_us);
    topk_candidates_scored = stats.candidates_scored;
    topk_candidates_total = stats.candidates_total;
    topk_early_terminated =
        topk_early_terminated && stats.early_terminated &&
        stats.candidates_scored < stats.candidates_total;
    if (page->size() != kTopK) topk_identical = false;
    for (size_t i = 0; i < page->size() && i < blocking_page.size(); ++i) {
      const CorpusResult& a = blocking_page[i];
      const CorpusResult& b = (*page)[i];
      if (a.document != b.document || a.result.root != b.result.root ||
          a.score != b.score) {
        topk_identical = false;
      }
    }
  }
  topk_identical = topk_identical && topk_ok;
  topk_early_terminated = topk_early_terminated && topk_ok;
  const bool ttfr_below_blocking =
      topk_ok && ttfr_min_us < blocking_min_us;
  if (!topk_identical) {
    std::fprintf(stderr, "top-k page diverged from blocking search+rank!\n");
  }
  if (!ttfr_below_blocking) {
    std::fprintf(stderr,
                 "top-k first result not below blocking search latency!\n");
  }
  if (!topk_early_terminated) {
    std::fprintf(stderr, "top-k search did not terminate early!\n");
  }

  bench::LatencyPercentiles batch_pct =
      bench::PercentilesFromSamplesMicros(std::move(batch_samples));
  bench::LatencyPercentiles ttfs_pct =
      bench::PercentilesFromSamplesMicros(std::move(ttfs_samples));
  bench::LatencyPercentiles stream_full_pct =
      bench::PercentilesFromSamplesMicros(std::move(stream_full_samples));
  bench::LatencyPercentiles warm_ttfs_pct =
      bench::PercentilesFromSamplesMicros(std::move(warm_ttfs_samples));
  bench::LatencyPercentiles blocking_search_pct =
      bench::PercentilesFromSamplesMicros(std::move(blocking_search_samples));
  bench::LatencyPercentiles topk_pct =
      bench::PercentilesFromSamplesMicros(std::move(topk_samples));
  bench::LatencyPercentiles ttfr_pct =
      bench::PercentilesFromSamplesMicros(std::move(ttfr_samples));

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value(std::string("snippet_stream_serving"));
  json.Key("doc").BeginObject();
  json.Key("xml_bytes").Value(data.xml.size());
  json.Key("elements").Value(data.approx_elements);
  json.EndObject();
  json.Key("pages").Value(pages.size());
  json.Key("slots_total").Value(slots_total);
  json.Key("min_page_slots").Value(min_page_slots);
  json.Key("hardware_threads")
      .Value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Key("results_identical_stream_collect")
      .Value(static_cast<size_t>(identical ? 1 : 0));
  json.Key("constraint_ttfs_below_batch")
      .Value(static_cast<size_t>(ttfs_below_batch ? 1 : 0));
  json.Key("results_identical_topk")
      .Value(static_cast<size_t>(topk_identical ? 1 : 0));
  json.Key("constraint_ttfr_below_blocking")
      .Value(static_cast<size_t>(ttfr_below_blocking ? 1 : 0));
  json.Key("constraint_topk_early_termination")
      .Value(static_cast<size_t>(topk_early_terminated ? 1 : 0));
  auto emit_pct = [&](const char* key, const bench::LatencyPercentiles& p) {
    json.Key(key).BeginObject();
    json.Key("us").Value(p.min_us);
    bench::WritePercentiles(json, p);
    json.EndObject();
  };
  emit_pct("batch", batch_pct);
  emit_pct("stream_ttfs", ttfs_pct);
  emit_pct("stream_full", stream_full_pct);
  emit_pct("warm_stream_ttfs", warm_ttfs_pct);
  json.Key("topk").BeginObject();
  json.Key("k").Value(kTopK);
  json.Key("documents").Value(skewed.size());
  json.Key("candidates_total").Value(topk_candidates_total);
  json.Key("candidates_scored").Value(topk_candidates_scored);
  emit_pct("blocking_search", blocking_search_pct);
  emit_pct("topk_search", topk_pct);
  emit_pct("topk_ttfr", ttfr_pct);
  json.Key("blocking_search_min_us").Value(blocking_min_us);
  json.Key("ttfr_min_us").Value(ttfr_min_us);
  json.EndObject();
  json.Key("ttfs_speedup")
      .Value(ttfs_pct.p50_us > 0.0 ? batch_pct.p50_us / ttfs_pct.p50_us : 0.0);
  json.Key("per_page").BeginArray();
  for (size_t p = 0; p < pages.size(); ++p) {
    json.BeginObject();
    json.Key("slots").Value(pages[p].hits.size());
    json.Key("sequential_batch_min_us").Value(page_batch_min[p]);
    json.Key("sequential_ttfs_min_us").Value(page_ttfs_min[p]);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteBenchJson("BENCH_e7.json");
  WriteCacheBenchJson("BENCH_cache.json");
  WriteSearchBenchJson("BENCH_search.json");
  WriteStreamBenchJson("BENCH_stream.json");
  return 0;
}

// bench_scale — snapshot scale sweep: document-count × document-size grid
// over the mmap corpus snapshot, probing the properties the format exists
// for, and writing BENCH_scale.json:
//
//   * results_identical_snapshot — strict correctness key: a synthetic
//     corpus is saved, reopened snapshot-backed, and a query mix (planted
//     values, multi-keyword, no-match, empty) is run against both
//     backends; search pages (document, result root, score) and rendered
//     snippet bytes must match exactly. The snapshot is a representation
//     change, never a results change.
//   * constraint_open_sublinear — strict: at every scale point, opening
//     the snapshot (mmap + header/directory verification, no payload
//     touched) must be at least 10x cheaper than materializing the corpus
//     it describes (projected from a measured per-document fault-in
//     rate). Open cost tracks the directory, not the payload — that is
//     what makes a million-document corpus servable milliseconds after
//     exec.
//   * constraint_prune_no_fault — strict: a no-match keyword query
//     against the snapshot-backed corpus must finish with zero resident
//     documents. The term directory answers without reading a payload; the
//     search never pays a decode for a document it can prove irrelevant.
//   * constraint_nomatch_sublinear — strict: that no-match search costs one
//     term-directory lookup, not a pass over the corpus, so its p50 at
//     docs100k_small is at most 3x its p50 at docs10k_small.
//   * constraint_topk_faults_sublinear — strict: on a fresh mapping at
//     docs100k_small, a top-10 query for a value keyword held by at least
//     10% of the documents faults in at most 1% of the documents holding
//     it. Documents wait unopened until their directory score bound could
//     still place a hit on the page, so top-k work follows the page, not
//     the match count.
//   * per scale point — snapshot build time, file bytes, open latency
//     percentiles, cold fault-in percentiles and per-document rate,
//     resident bytes per faulted document (VmRSS delta), no-match search
//     latency, and the top-10 value-keyword query's matching and
//     faulted-in document counts.
//
// Scale points keep the sweep container-friendly (10k–100k documents of
// small/medium synthetic XML); the axes — directory-bound open, payload-
// bound materialization — extrapolate linearly to the million-document
// point because neither path has a superlinear term.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/random_xml.h"
#include "search/corpus.h"
#include "search/corpus_snapshot.h"
#include "snippet/snippet_tree.h"

namespace {

using namespace extract;

constexpr size_t kDocVariants = 8;     // distinct documents, cycled by name
constexpr int kOpenRuns = 9;
constexpr size_t kFaultSamples = 256;  // cold fault-ins measured per scale
constexpr int kNoMatchRuns = 25;
// A value ("v<level><attribute>r<rank>") every scale's variants hold in
// a sizeable share of documents; constraint_topk_faults_sublinear checks
// that it does.
constexpr const char* kTopKKeyword = "v01r7";
constexpr size_t kTopK = 10;
constexpr size_t kEquivDocuments = 24;

struct ScalePoint {
  const char* label;
  size_t documents;
  size_t levels;
  size_t entities_per_parent;
  size_t attributes_per_entity;
};

constexpr ScalePoint kScales[] = {
    {"docs10k_small", 10000, 1, 3, 2},
    {"docs100k_small", 100000, 1, 3, 2},
    {"docs10k_medium", 10000, 2, 6, 3},
};

size_t VmRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<size_t>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

RandomXmlOptions ShapeOptions(const ScalePoint& scale, uint64_t seed) {
  RandomXmlOptions options;
  options.levels = scale.levels;
  options.entities_per_parent = scale.entities_per_parent;
  options.attributes_per_entity = scale.attributes_per_entity;
  options.domain_size = 16;
  options.zipf_skew = 1.1;
  options.include_dtd = false;
  options.seed = seed;
  return options;
}

[[noreturn]] void Fatal(const Status& status) {
  std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
  std::exit(1);
}

struct ScaleResult {
  size_t documents = 0;
  size_t file_bytes = 0;
  size_t variant_xml_bytes = 0;
  double build_ms = 0.0;
  bench::LatencyPercentiles open;
  bench::LatencyPercentiles fault_in;
  double fault_rate_us = 0.0;       // mean cold fault-in per document
  double projected_eager_ms = 0.0;  // fault_rate × documents
  double open_to_eager_ratio = 0.0;
  size_t resident_bytes_per_doc = 0;
  bench::LatencyPercentiles nomatch;
  size_t nomatch_hits = 0;
  size_t nomatch_resident = 0;
  size_t topk_matching_docs = 0;  // documents holding kTopKKeyword
  size_t topk_faulted_docs = 0;   // resident after one top-k page
  bool open_sublinear = false;
  bool prune_no_fault = false;
};

ScaleResult RunScale(const ScalePoint& scale) {
  ScaleResult out;
  out.documents = scale.documents;

  // Pre-load a handful of document variants once; the writer re-encodes
  // per Add, so the snapshot still carries `documents` independent blobs.
  std::vector<XmlDatabase> variants;
  for (size_t v = 0; v < kDocVariants; ++v) {
    RandomXmlData data = GenerateRandomXml(ShapeOptions(scale, 900 + v));
    out.variant_xml_bytes += data.xml.size();
    variants.push_back(bench::MustLoad(data.xml));
  }

  const std::string path =
      std::string("/tmp/bench_scale_") + scale.label + ".xcsn";
  auto build_start = std::chrono::steady_clock::now();
  {
    auto writer = CorpusSnapshotWriter::Create(path);
    if (!writer.ok()) Fatal(writer.status());
    char name[24];
    for (size_t i = 0; i < scale.documents; ++i) {
      std::snprintf(name, sizeof(name), "doc%07zu", i);
      Status status = writer->Add(name, variants[i % kDocVariants]);
      if (!status.ok()) Fatal(status);
    }
    Status status = writer->Finish();
    if (!status.ok()) Fatal(status);
  }
  out.build_ms = SecondsSince(build_start) * 1e3;
  out.file_bytes = FileBytes(path);

  // Open latency: mmap + header/directory verification, payload untouched.
  out.open = bench::MeasurePercentilesMicros(
      [&] {
        auto snapshot = CorpusSnapshot::Open(path);
        if (!snapshot.ok()) Fatal(snapshot.status());
      },
      kOpenRuns);

  // Cold fault-in: sample documents spread across the directory of a fresh
  // mapping, first touch each. The mean is the materialization rate the
  // open constraint compares against.
  auto opened = CorpusSnapshot::Open(path);
  if (!opened.ok()) Fatal(opened.status());
  const std::shared_ptr<CorpusSnapshot>& snap = *opened;
  const size_t stride = scale.documents / kFaultSamples;
  const size_t rss_before = VmRssBytes();
  std::vector<double> fault_samples;
  fault_samples.reserve(kFaultSamples);
  double fault_total_us = 0.0;
  for (size_t s = 0; s < kFaultSamples; ++s) {
    const size_t index = s * stride;
    auto start = std::chrono::steady_clock::now();
    auto doc = snap->Fault(index);
    if (!doc.ok()) Fatal(doc.status());
    const double us = SecondsSince(start) * 1e6;
    fault_samples.push_back(us);
    fault_total_us += us;
  }
  const size_t rss_after = VmRssBytes();
  out.fault_in = bench::PercentilesFromSamplesMicros(std::move(fault_samples));
  out.fault_rate_us = fault_total_us / kFaultSamples;
  out.projected_eager_ms = out.fault_rate_us * scale.documents / 1e3;
  out.open_to_eager_ratio = out.open.p50_us / (out.projected_eager_ms * 1e3);
  out.resident_bytes_per_doc =
      rss_after > rss_before ? (rss_after - rss_before) / kFaultSamples : 0;
  out.open_sublinear = out.open.p50_us * 10.0 < out.projected_eager_ms * 1e3;

  // No-match search on a fresh mapping: the term directory rules every
  // document out, so nothing may become resident.
  auto pristine = CorpusSnapshot::Open(path);
  if (!pristine.ok()) Fatal(pristine.status());
  XmlCorpus corpus;
  Status attached = corpus.AttachSnapshot(*pristine);
  if (!attached.ok()) Fatal(attached);
  XSeekEngine engine;
  const Query nomatch = Query::Parse("xqzzynomatch");
  out.nomatch = bench::MeasurePercentilesMicros(
      [&] {
        auto hits = corpus.SearchAll(nomatch, engine);
        if (!hits.ok()) Fatal(hits.status());
        out.nomatch_hits = hits->size();
      },
      kNoMatchRuns);
  auto stats = corpus.SnapshotStatsSnapshot();
  out.nomatch_resident = stats ? static_cast<size_t>(stats->resident) : 1;
  out.prune_no_fault = out.nomatch_hits == 0 && out.nomatch_resident == 0;

  // One top-k page for a common value on another fresh mapping: only the
  // documents whose bound reaches the page fault in.
  auto fresh = CorpusSnapshot::Open(path);
  if (!fresh.ok()) Fatal(fresh.status());
  const Query value = Query::Parse(kTopKKeyword);
  Status counted = (*fresh)->ForEachCandidate(
      value, [&](size_t, std::span<const TermDocStats>) {
        ++out.topk_matching_docs;
      });
  if (!counted.ok()) Fatal(counted);
  XmlCorpus topk_corpus;
  attached = topk_corpus.AttachSnapshot(*fresh);
  if (!attached.ok()) Fatal(attached);
  auto page = topk_corpus.SearchTopK(value, engine, RankingOptions{},
                                     CorpusServingOptions{}, kTopK);
  if (!page.ok()) Fatal(page.status());
  out.topk_faulted_docs =
      static_cast<size_t>(topk_corpus.SnapshotStatsSnapshot()->resident);

  std::remove(path.c_str());
  return out;
}

/// Runs the query mix against the in-memory corpus and its snapshot-backed
/// twin; returns true iff every page and snippet is byte-identical.
bool RunEquivalence(size_t* queries_run, size_t* hits_compared) {
  RandomXmlOptions shape;
  shape.levels = 2;
  shape.entities_per_parent = 6;
  shape.attributes_per_entity = 3;
  shape.domain_size = 24;
  shape.zipf_skew = 1.1;

  XmlCorpus memory;
  std::vector<std::string> query_mix;
  for (size_t d = 0; d < kEquivDocuments; ++d) {
    shape.seed = 11 + d * 7919;
    RandomXmlData data = GenerateRandomXml(shape);
    if (d == 0) {
      for (size_t k = 0; k < data.keyword_pool.size() && k < 2; ++k) {
        query_mix.push_back(data.keyword_pool[k]);
      }
      if (data.keyword_pool.size() >= 2) {
        query_mix.push_back(data.keyword_pool[0] + " " +
                            data.keyword_pool[1]);
      }
      if (!data.planted_values.empty()) {
        query_mix.push_back(data.planted_values.front().second);
      }
    }
    char name[16];
    std::snprintf(name, sizeof(name), "doc%02zu", d);
    Status status = memory.AddDocument(name, data.xml);
    if (!status.ok()) Fatal(status);
  }
  query_mix.push_back("xqzzynomatch");
  query_mix.push_back("");

  const std::string path = "/tmp/bench_scale_equiv.xcsn";
  Status saved = memory.SaveSnapshot(path);
  if (!saved.ok()) Fatal(saved);
  auto snapshot = CorpusSnapshot::Open(path);
  if (!snapshot.ok()) Fatal(snapshot.status());
  XmlCorpus snapshot_backed;
  Status attached = snapshot_backed.AttachSnapshot(*snapshot);
  if (!attached.ok()) Fatal(attached);

  XSeekEngine engine;
  bool identical = true;
  *queries_run = query_mix.size();
  *hits_compared = 0;
  for (const std::string& text : query_mix) {
    const Query query = Query::Parse(text);
    auto a = memory.SearchAll(query, engine);
    auto b = snapshot_backed.SearchAll(query, engine);
    if (a.ok() != b.ok()) {
      identical = false;
      continue;
    }
    if (!a.ok()) continue;  // both backends must fail alike; counted above
    if (a->size() != b->size()) {
      identical = false;
      continue;
    }
    for (size_t i = 0; i < a->size(); ++i) {
      identical = identical && (*a)[i].document == (*b)[i].document &&
                  (*a)[i].result.root == (*b)[i].result.root &&
                  (*a)[i].score == (*b)[i].score;
    }
    *hits_compared += a->size();
    if (a->empty()) continue;

    auto snip_a = memory.GenerateSnippets(query, *a, SnippetOptions{});
    auto snip_b = snapshot_backed.GenerateSnippets(query, *b, SnippetOptions{});
    if (!snip_a.ok() || !snip_b.ok() || snip_a->size() != snip_b->size()) {
      identical = false;
      continue;
    }
    for (size_t i = 0; i < snip_a->size(); ++i) {
      identical = identical &&
                  RenderSnippet((*snip_a)[i]) == RenderSnippet((*snip_b)[i]) &&
                  (*snip_a)[i].nodes == (*snip_b)[i].nodes &&
                  (*snip_a)[i].covered == (*snip_b)[i].covered;
    }
  }
  std::remove(path.c_str());
  return identical;
}

void WriteScale(bench::JsonWriter& json, const char* label,
                const ScaleResult& r) {
  json.Key(label).BeginObject();
  json.Key("documents").Value(r.documents);
  json.Key("file_bytes").Value(r.file_bytes);
  json.Key("variant_xml_bytes").Value(r.variant_xml_bytes);
  json.Key("build_ms").Value(r.build_ms);
  json.Key("open").BeginObject();
  bench::WritePercentiles(json, r.open);
  json.EndObject();
  json.Key("fault_in").BeginObject();
  bench::WritePercentiles(json, r.fault_in);
  json.EndObject();
  json.Key("fault_rate_us").Value(r.fault_rate_us);
  json.Key("projected_eager_ms").Value(r.projected_eager_ms);
  json.Key("open_to_eager_ratio").Value(r.open_to_eager_ratio);
  json.Key("resident_bytes_per_doc").Value(r.resident_bytes_per_doc);
  json.Key("nomatch_search").BeginObject();
  bench::WritePercentiles(json, r.nomatch);
  json.EndObject();
  json.Key("nomatch_hits").Value(r.nomatch_hits);
  json.Key("nomatch_resident").Value(r.nomatch_resident);
  json.Key("topk_matching_docs").Value(r.topk_matching_docs);
  json.Key("topk_faulted_docs").Value(r.topk_faulted_docs);
  json.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "BENCH_scale.json";
  const char* runner_class = std::getenv("EXTRACT_BENCH_RUNNER_CLASS");

  size_t queries_run = 0;
  size_t hits_compared = 0;
  const bool identical = RunEquivalence(&queries_run, &hits_compared);
  std::printf("equivalence: %zu queries, %zu hits, %s\n", queries_run,
              hits_compared, identical ? "identical" : "MISMATCH");

  std::vector<ScaleResult> results;
  bool open_sublinear = true;
  bool prune_no_fault = true;
  for (const ScalePoint& scale : kScales) {
    ScaleResult r = RunScale(scale);
    std::printf(
        "%s: %zu docs, %.1f MB, build %.0fms, open p50 %.0fus, fault p50 "
        "%.1fus, eager %.0fms, nomatch p50 %.1fus, top-%zu '%s' faulted "
        "%zu of %zu matching\n",
        scale.label, r.documents, r.file_bytes / 1e6, r.build_ms,
        r.open.p50_us, r.fault_in.p50_us, r.projected_eager_ms,
        r.nomatch.p50_us, kTopK, kTopKKeyword, r.topk_faulted_docs,
        r.topk_matching_docs);
    open_sublinear = open_sublinear && r.open_sublinear;
    prune_no_fault = prune_no_fault && r.prune_no_fault;
    results.push_back(std::move(r));
  }
  // kScales[0] and kScales[1] share a document shape at 10x the count.
  const ScaleResult& small10k = results[0];
  const ScaleResult& small100k = results[1];
  const bool nomatch_sublinear =
      small100k.nomatch.p50_us <= 3.0 * small10k.nomatch.p50_us;
  const bool topk_faults_sublinear =
      small100k.topk_matching_docs * 10 >= small100k.documents &&
      small100k.topk_faulted_docs * 100 <= small100k.topk_matching_docs;

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value(std::string("snapshot_scale"));
  json.Key("runner_class")
      .Value(std::string(runner_class != nullptr ? runner_class : ""));
  json.Key("hardware_threads")
      .Value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Key("results_identical_snapshot").Value(static_cast<size_t>(identical));
  json.Key("constraint_open_sublinear")
      .Value(static_cast<size_t>(open_sublinear));
  json.Key("constraint_prune_no_fault")
      .Value(static_cast<size_t>(prune_no_fault));
  json.Key("constraint_nomatch_sublinear")
      .Value(static_cast<size_t>(nomatch_sublinear));
  json.Key("constraint_topk_faults_sublinear")
      .Value(static_cast<size_t>(topk_faults_sublinear));
  json.Key("equivalence").BeginObject();
  json.Key("documents").Value(kEquivDocuments);
  json.Key("queries").Value(queries_run);
  json.Key("hits_compared").Value(hits_compared);
  json.EndObject();
  json.Key("fault_samples_per_scale").Value(kFaultSamples);
  json.Key("scales").BeginObject();
  for (size_t i = 0; i < results.size(); ++i) {
    WriteScale(json, kScales[i].label, results[i]);
  }
  json.EndObject();
  json.EndObject();

  const bool pass = identical && open_sublinear && prune_no_fault &&
                    nomatch_sublinear && topk_faults_sublinear;
  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path.c_str());
    return pass ? 0 : 1;
  }
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return 1;
}

// bench_churn — serving latency under live corpus mutation. Runs the same
// query mix against a synthetic corpus twice — once quiesced, once while a
// writer thread continuously removes and re-adds documents — and writes
// BENCH_churn.json:
//
//   * results_identical_churn — strict correctness key: every query served
//     during churn is re-run, after quiescing, as a sequential uncached
//     oracle against the EXACT view the query pinned (the pin is kept for
//     this purpose); hits and snippet bytes must match. Epoch swapping may
//     cost latency but never correctness.
//   * constraint_epoch_drained — strict: once every pin is dropped, no
//     retired view may remain live (the reclamation path actually ran).
//   * quiet / churn — end-to-end ServeQuery percentiles (pin + search +
//     snippet stream drain) with and without concurrent mutation: the
//     price read-side of RCU pays for a live-mutable corpus, which should
//     be noise, not a mode shift.
//   * publish — mutation publish latency percentiles (RemoveDocument and
//     AddDatabase of a preloaded database): the writer-side cost of one
//     epoch transition, i.e. a shallow table copy + pointer swap, NOT the
//     parse/index work (that happens off the serving path).
//
// The snippet cache is enabled, so churn also exercises instance-scoped
// invalidation riding the epoch transitions.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "datagen/random_xml.h"
#include "search/corpus.h"
#include "snippet/snippet_service.h"
#include "xml/serializer.h"

namespace {

using namespace extract;

constexpr size_t kBaseDocuments = 8;
constexpr size_t kChurnDocuments = 4;
constexpr size_t kPageSize = 8;
constexpr int kQuietRuns = 60;
constexpr int kChurnRunsPerThread = 36;
constexpr size_t kQueryThreads = 2;
constexpr size_t kMutationCycles = 40;  // 2 publishes each (remove + add)

RandomXmlOptions ChurnDocOptions(uint64_t seed) {
  RandomXmlOptions options;
  options.levels = 3;
  options.entities_per_parent = 6;
  options.attributes_per_entity = 3;
  options.domain_size = 24;  // same vocabulary as the base documents
  options.zipf_skew = 1.1;
  options.seed = seed;
  return options;
}

// --------------------------------------------------------------- identity

/// Byte-level fingerprint of a snippet: every observable field.
std::string Fingerprint(const Snippet& s) {
  std::string out;
  out += std::to_string(s.result_root);
  out += '|';
  for (NodeId n : s.nodes) {
    out += std::to_string(n);
    out += ',';
  }
  out += '|';
  for (bool c : s.covered) out += c ? '1' : '0';
  out += '|';
  out += s.key.value;
  out += '|';
  out += s.ilist.ToString();
  out += '|';
  out += s.tree ? WriteXml(*s.tree) : "(no tree)";
  return out;
}

std::string FingerprintHit(const CorpusResult& hit) {
  return hit.document + "#" + std::to_string(hit.result.root) + "@" +
         std::to_string(hit.score);
}

/// Everything needed to re-check one churn-phase query after quiescing:
/// the pin holds the exact view the query served against (keeping it —
/// and its retired epoch — alive until verification is done).
struct ServedRecord {
  CorpusPin pin;
  size_t query_index = 0;
  bool gated = false;
  std::vector<std::string> hit_fingerprints;      // page()[i]
  std::vector<std::string> snippet_fingerprints;  // slot i
};

struct QueryMix {
  std::vector<Query> queries;
  SnippetOptions snippet;
  StreamOptions stream;
};

/// One end-to-end serving call: pin, search (gated top-k or blocking),
/// stream every snippet, drain. Returns false on any error. Fills `record`
/// when non-null (fingerprints + the pin the query served under).
bool ServeOnce(const XmlCorpus& corpus, const XSeekEngine& engine,
               const QueryMix& mix, size_t query_index, bool gated,
               ServedRecord* record) {
  CorpusServingOptions serving;
  serving.page_size = gated ? kPageSize : 0;
  CorpusPin pin = corpus.PinView();
  auto served = corpus.ServeQuery(mix.queries[query_index], engine,
                                  RankingOptions{}, serving, mix.snippet,
                                  mix.stream, pin);
  if (!served.ok()) return false;
  std::vector<std::pair<size_t, std::string>> slots;
  while (auto event = served->stream().Next()) {
    if (!event->snippet.ok()) return false;
    slots.emplace_back(event->slot, Fingerprint(*event->snippet));
  }
  if (record != nullptr) {
    record->pin = std::move(pin);
    record->query_index = query_index;
    record->gated = gated;
    for (const CorpusResult& hit : served->page()) {
      record->hit_fingerprints.push_back(FingerprintHit(hit));
    }
    record->snippet_fingerprints.resize(served->page().size());
    for (auto& [slot, fingerprint] : slots) {
      if (slot >= record->snippet_fingerprints.size()) return false;
      record->snippet_fingerprints[slot] = std::move(fingerprint);
    }
  }
  return true;
}

/// The quiesced oracle: sequential uncached serving against the exact view
/// `record.pin` holds. True when hits and snippet bytes match the record.
bool VerifyRecord(const XmlCorpus& corpus, const XSeekEngine& engine,
                  const QueryMix& mix, const ServedRecord& record) {
  const Query& query = mix.queries[record.query_index];
  auto hits = corpus.SearchAll(query, engine, RankingOptions{},
                               CorpusServingOptions{}, record.pin);
  if (!hits.ok()) return false;
  if (record.gated && hits->size() > kPageSize) hits->resize(kPageSize);
  if (hits->size() != record.hit_fingerprints.size()) return false;
  for (size_t i = 0; i < hits->size(); ++i) {
    if (FingerprintHit((*hits)[i]) != record.hit_fingerprints[i]) return false;
  }
  for (size_t i = 0; i < hits->size(); ++i) {
    auto doc = record.pin->documents.find((*hits)[i].document);
    if (doc == record.pin->documents.end()) return false;
    SnippetService service(doc->second.db.get());
    auto snippet = service.Generate(query, (*hits)[i].result, mix.snippet);
    if (!snippet.ok()) return false;
    if (Fingerprint(*snippet) != record.snippet_fingerprints[i]) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "BENCH_churn.json";
  const char* runner_class = std::getenv("EXTRACT_BENCH_RUNNER_CLASS");

  // ---- corpus: 8 synthetic base documents + 4 churn documents, shared
  // vocabulary so one query hits both populations.
  bench::SyntheticCorpusOptions corpus_options;
  corpus_options.num_documents = kBaseDocuments;
  size_t total_xml_bytes = 0;
  XmlCorpus corpus = bench::MakeSyntheticCorpus(corpus_options,
                                                &total_xml_bytes);
  // Two pre-generated content variants per churn document; the writer
  // alternates them so every re-add genuinely changes the corpus.
  std::vector<std::array<std::string, 2>> churn_xml;
  std::vector<std::string> churn_names;
  for (size_t c = 0; c < kChurnDocuments; ++c) {
    std::array<std::string, 2> variants;
    for (size_t v = 0; v < 2; ++v) {
      RandomXmlData data =
          GenerateRandomXml(ChurnDocOptions(5000 + c * 17 + v));
      variants[v] = data.xml;
      total_xml_bytes += v == 0 ? data.xml.size() : 0;
    }
    char name[16];
    std::snprintf(name, sizeof(name), "churn%zu", c);
    churn_names.emplace_back(name);
    Status status = corpus.AddDocument(churn_names.back(), variants[0]);
    if (!status.ok()) {
      std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
      return 1;
    }
    churn_xml.push_back(std::move(variants));
  }
  corpus.EnableSnippetCache();

  // ---- query mix: mid-frequency keywords of the shared vocabulary
  // (regenerate document 0's data to recover its keyword pool).
  RandomXmlOptions doc0;
  doc0.levels = corpus_options.levels;
  doc0.entities_per_parent = corpus_options.entities_per_parent;
  doc0.attributes_per_entity = corpus_options.attributes_per_entity;
  doc0.domain_size = corpus_options.domain_size;
  doc0.zipf_skew = corpus_options.zipf_skew;
  doc0.seed = corpus_options.seed;
  RandomXmlData doc0_data = GenerateRandomXml(doc0);
  if (doc0_data.keyword_pool.size() < 2) {
    std::fprintf(stderr, "fatal: keyword pool too small\n");
    return 1;
  }
  QueryMix mix;
  for (size_t i = 0; i < doc0_data.keyword_pool.size() && i < 3; ++i) {
    mix.queries.push_back(Query::Parse(doc0_data.keyword_pool[i]));
  }
  mix.queries.push_back(Query::Parse(doc0_data.keyword_pool[0] + " " +
                                     doc0_data.keyword_pool[1]));
  mix.snippet.size_bound = 10;

  XSeekEngine engine;

  // ---- quiet phase: no writer, the latency floor.
  bool serve_ok = true;
  for (size_t i = 0; i < mix.queries.size() * 2; ++i) {  // warm the cache
    serve_ok = ServeOnce(corpus, engine, mix, i % mix.queries.size(),
                         i % 2 == 0, nullptr) &&
               serve_ok;
  }
  std::vector<double> quiet_samples;
  for (int i = 0; i < kQuietRuns; ++i) {
    size_t q = static_cast<size_t>(i) % mix.queries.size();
    bool gated = i % 2 == 0;
    auto start = std::chrono::steady_clock::now();
    serve_ok = ServeOnce(corpus, engine, mix, q, gated, nullptr) && serve_ok;
    quiet_samples.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  // ---- churn phase: one writer cycling remove+add over the churn
  // documents, kQueryThreads readers running the same mix. Every reader
  // query records its pin and its served bytes for post-hoc verification.
  std::vector<double> publish_samples;
  std::vector<std::vector<double>> churn_samples(kQueryThreads);
  std::vector<std::vector<ServedRecord>> records(kQueryThreads);
  std::atomic<bool> go{false};
  std::atomic<int> writer_errors{0};

  std::thread writer([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (size_t cycle = 0; cycle < kMutationCycles; ++cycle) {
      const std::string& name = churn_names[cycle % kChurnDocuments];
      size_t variant = (cycle / kChurnDocuments + 1) % 2;
      // Parse + index off the serving path; only the publishes are timed.
      XmlDatabase next =
          bench::MustLoad(churn_xml[cycle % kChurnDocuments][variant]);
      auto t0 = std::chrono::steady_clock::now();
      Status removed = corpus.RemoveDocument(name);
      auto t1 = std::chrono::steady_clock::now();
      Status added = corpus.AddDatabase(name, std::move(next));
      auto t2 = std::chrono::steady_clock::now();
      if (!removed.ok() || !added.ok()) writer_errors.fetch_add(1);
      auto micros = [](auto a, auto b) {
        return std::chrono::duration_cast<
                   std::chrono::duration<double, std::micro>>(b - a)
            .count();
      };
      publish_samples.push_back(micros(t0, t1));
      publish_samples.push_back(micros(t1, t2));
      // Pace the churn across the readers' window.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> readers;
  std::atomic<int> reader_errors{0};
  for (size_t t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kChurnRunsPerThread; ++i) {
        size_t q = static_cast<size_t>(i + static_cast<int>(t)) %
                   mix.queries.size();
        bool gated = (i + static_cast<int>(t)) % 2 == 0;
        ServedRecord record;
        auto start = std::chrono::steady_clock::now();
        bool ok = ServeOnce(corpus, engine, mix, q, gated, &record);
        churn_samples[t].push_back(
            std::chrono::duration_cast<
                std::chrono::duration<double, std::micro>>(
                std::chrono::steady_clock::now() - start)
                .count());
        if (!ok) {
          reader_errors.fetch_add(1);
          continue;
        }
        records[t].push_back(std::move(record));
      }
    });
  }

  go.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  // ---- quiesced verification: every churn query against its pinned view.
  size_t verified = 0, mismatched = 0;
  for (const auto& thread_records : records) {
    for (const ServedRecord& record : thread_records) {
      if (VerifyRecord(corpus, engine, mix, record)) {
        ++verified;
      } else {
        ++mismatched;
      }
    }
  }
  bool identical = serve_ok && mismatched == 0 && writer_errors.load() == 0 &&
                   reader_errors.load() == 0;
  std::printf("results_identical_churn: %d (%zu verified, %zu mismatched, "
              "%d writer / %d reader errors)\n",
              identical ? 1 : 0, verified, mismatched, writer_errors.load(),
              reader_errors.load());

  // ---- drop every held pin: all retired views must now reclaim.
  records.clear();
  EpochStats epochs = corpus.EpochStatsSnapshot();
  bool drained = epochs.pinned_readers == 0 && epochs.retired_live == 0;
  std::printf("epoch %llu: published %llu, reclaimed %llu, retired live %zu, "
              "pinned %zu\n",
              static_cast<unsigned long long>(epochs.epoch),
              static_cast<unsigned long long>(epochs.published),
              static_cast<unsigned long long>(epochs.reclaimed),
              epochs.retired_live, epochs.pinned_readers);

  std::vector<double> churn_all;
  for (const auto& samples : churn_samples) {
    churn_all.insert(churn_all.end(), samples.begin(), samples.end());
  }
  bench::LatencyPercentiles quiet =
      bench::PercentilesFromSamplesMicros(std::move(quiet_samples));
  bench::LatencyPercentiles churn =
      bench::PercentilesFromSamplesMicros(std::move(churn_all));
  bench::LatencyPercentiles publish =
      bench::PercentilesFromSamplesMicros(std::move(publish_samples));
  std::printf("quiet p50 %.0fus p99 %.0fus | churn p50 %.0fus p99 %.0fus | "
              "publish p50 %.0fus p99 %.0fus\n",
              quiet.p50_us, quiet.p99_us, churn.p50_us, churn.p99_us,
              publish.p50_us, publish.p99_us);

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("experiment").Value(std::string("corpus_churn"));
  json.Key("runner_class")
      .Value(std::string(runner_class != nullptr ? runner_class : ""));
  json.Key("hardware_threads")
      .Value(static_cast<size_t>(std::thread::hardware_concurrency()));
  json.Key("corpus_documents").Value(kBaseDocuments + kChurnDocuments);
  json.Key("total_xml_bytes").Value(total_xml_bytes);
  json.Key("page_size").Value(kPageSize);
  json.Key("mutation_cycles").Value(kMutationCycles);
  json.Key("queries_quiet").Value(static_cast<size_t>(kQuietRuns));
  json.Key("queries_churn")
      .Value(static_cast<size_t>(kChurnRunsPerThread) * kQueryThreads);
  json.Key("queries_verified").Value(verified);
  json.Key("results_identical_churn").Value(static_cast<size_t>(identical));
  json.Key("constraint_epoch_drained").Value(static_cast<size_t>(drained));
  json.Key("quiet").BeginObject();
  bench::WritePercentiles(json, quiet);
  json.EndObject();
  json.Key("churn").BeginObject();
  bench::WritePercentiles(json, churn);
  json.EndObject();
  json.Key("publish").BeginObject();
  bench::WritePercentiles(json, publish);
  json.EndObject();
  json.Key("epoch").BeginObject();
  json.Key("final_epoch").Value(static_cast<size_t>(epochs.epoch));
  json.Key("published").Value(static_cast<size_t>(epochs.published));
  json.Key("reclaimed").Value(static_cast<size_t>(epochs.reclaimed));
  json.Key("retired_live").Value(epochs.retired_live);
  json.EndObject();
  json.EndObject();

  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path.c_str());
    return identical && drained ? 0 : 1;
  }
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return 1;
}

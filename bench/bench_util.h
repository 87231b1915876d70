// Shared helpers for the experiment binaries: wall-clock measurement,
// dataset construction shortcuts and a minimal JSON emitter for
// machine-readable experiment outputs (BENCH_*.json).

#ifndef EXTRACT_BENCH_BENCH_UTIL_H_
#define EXTRACT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/random_xml.h"
#include "search/corpus.h"
#include "search/search_engine.h"

namespace extract {
namespace bench {

/// Median-of-runs wall time of `fn`, in microseconds.
inline double MeasureMicros(const std::function<void()>& fn, int runs = 5) {
  double best = 1e300;
  for (int r = 0; r < runs; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    double us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            end - start)
            .count();
    if (us < best) best = us;
  }
  return best;
}

/// Latency distribution of repeated runs — what the BENCH_*.json files
/// report instead of a single central number: a mean (or min) hides the
/// tail, and the tail is what a serving path is judged on.
struct LatencyPercentiles {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Fastest sample — the same statistic MeasureMicros reports, so one
  /// sample set serves both the central "us" key and the percentiles.
  double min_us = 0.0;
  size_t runs = 0;
};

/// Nearest-rank p50/p95/p99 of caller-collected microsecond samples — for
/// latencies measured inside a larger operation (e.g. time-to-first-snippet
/// within a streamed page), where MeasurePercentilesMicros's whole-closure
/// timing cannot see the sub-interval.
inline LatencyPercentiles PercentilesFromSamplesMicros(
    std::vector<double> samples) {
  LatencyPercentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  auto rank = [&](double q) {
    size_t i = static_cast<size_t>(std::ceil(q * samples.size()));
    return samples[std::min(samples.size() - 1, i == 0 ? 0 : i - 1)];
  };
  out.p50_us = rank(0.50);
  out.p95_us = rank(0.95);
  out.p99_us = rank(0.99);
  out.min_us = samples.front();
  out.runs = samples.size();
  return out;
}

/// Runs `fn` `runs` times and reports p50/p95/p99 wall microseconds
/// (nearest-rank percentiles of the sorted samples).
inline LatencyPercentiles MeasurePercentilesMicros(
    const std::function<void()>& fn, int runs = 15) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            end - start)
            .count());
  }
  return PercentilesFromSamplesMicros(std::move(samples));
}

/// Emits the three percentile keys into the currently open JSON object.
/// Defined after JsonWriter below.
class JsonWriter;
inline void WritePercentiles(JsonWriter& json, const LatencyPercentiles& p);

/// Loads a database or aborts the binary with a message.
inline XmlDatabase MustLoad(const std::string& xml) {
  auto db = XmlDatabase::Load(xml);
  if (!db.ok()) {
    std::fprintf(stderr, "fatal: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  return std::move(*db);
}

/// Shape of a multi-document synthetic corpus (the sharded-serving
/// scaling axis: document count × per-document size).
struct SyntheticCorpusOptions {
  size_t num_documents = 8;
  /// Per-document shape, as in RandomXmlOptions.
  size_t levels = 3;
  size_t entities_per_parent = 8;
  size_t attributes_per_entity = 3;
  size_t domain_size = 24;
  double zipf_skew = 1.1;
  uint64_t seed = 1;
};

/// \brief Generates `num_documents` random documents into one corpus,
/// named "doc00", "doc01", ... Each document draws from the same
/// label/value vocabulary (so one query hits many documents — the
/// cross-corpus case sharded SearchAll is for) but a different seed, so
/// contents and match sets differ per document. Aborts on failure; fills
/// `total_xml_bytes` when non-null.
inline XmlCorpus MakeSyntheticCorpus(const SyntheticCorpusOptions& options,
                                     size_t* total_xml_bytes = nullptr) {
  XmlCorpus corpus;
  if (total_xml_bytes != nullptr) *total_xml_bytes = 0;
  for (size_t d = 0; d < options.num_documents; ++d) {
    RandomXmlOptions doc_options;
    doc_options.levels = options.levels;
    doc_options.entities_per_parent = options.entities_per_parent;
    doc_options.attributes_per_entity = options.attributes_per_entity;
    doc_options.domain_size = options.domain_size;
    doc_options.zipf_skew = options.zipf_skew;
    doc_options.seed = options.seed + d * 7919;  // distinct content per doc
    RandomXmlData data = GenerateRandomXml(doc_options);
    if (total_xml_bytes != nullptr) *total_xml_bytes += data.xml.size();
    char name[16];
    std::snprintf(name, sizeof(name), "doc%02zu", d);
    Status status = corpus.AddDocument(name, data.xml);
    if (!status.ok()) {
      std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
      std::abort();
    }
  }
  return corpus;
}

/// \brief Minimal JSON object/array writer for experiment outputs. Handles
/// exactly what the BENCH_*.json files need: nested objects, arrays,
/// numbers, strings. Not a general-purpose serializer.
class JsonWriter {
 public:
  JsonWriter() { out_ << std::setprecision(15); }

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& name) {
    Separate();
    out_ << '"' << Escaped(name) << "\":";
    just_keyed_ = true;
    return *this;
  }

  JsonWriter& Value(double v) {
    Separate();
    // inf/nan are not JSON tokens; emit null so the file stays parseable.
    if (std::isfinite(v)) {
      out_ << v;
    } else {
      out_ << "null";
    }
    return *this;
  }
  JsonWriter& Value(size_t v) {
    Separate();
    out_ << v;
    return *this;
  }
  JsonWriter& Value(const std::string& v) {
    Separate();
    out_ << '"' << Escaped(v) << '"';
    return *this;
  }

  std::string str() const { return out_.str(); }

  /// Writes the document to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << out_.str() << "\n";
    return f.good();
  }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ << c;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ << c;
    need_comma_ = true;
    return *this;
  }
  void Separate() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (need_comma_) out_ << ',';
    need_comma_ = true;
  }
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::ostringstream out_;
  bool need_comma_ = false;
  bool just_keyed_ = false;
};

inline void WritePercentiles(JsonWriter& json, const LatencyPercentiles& p) {
  json.Key("p50_us").Value(p.p50_us);
  json.Key("p95_us").Value(p.p95_us);
  json.Key("p99_us").Value(p.p99_us);
  json.Key("percentile_runs").Value(p.runs);
}

}  // namespace bench
}  // namespace extract

#endif  // EXTRACT_BENCH_BENCH_UTIL_H_

// E9 — dominance-score ranking vs raw occurrence counts (ablation of §2.3's
// normalization), scored against planted ground truth.
//
// Setup: random databases whose attribute values are Zipf-skewed; the rank-0
// value of each attribute type is the planted "dominant" value. Feature
// types differ wildly in total occurrences (nested entity levels are ~10x
// more frequent than top levels), which is exactly the regime where raw
// counts mislead: values of frequent types crowd out genuinely dominant
// values of rare types.
//
// Metric: precision@k of each ranking against the planted values, plus the
// paper's worked micro-example (Houston vs children).

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/tree_printer.h"
#include "datagen/random_xml.h"
#include "datagen/retailer_dataset.h"
#include "snippet/dominant_features.h"
#include "snippet/snippet_service.h"

namespace {

using namespace extract;

double PrecisionAtK(const std::vector<RankedFeature>& ranked,
                    const std::set<std::string>& planted, size_t k) {
  size_t hits = 0;
  size_t considered = std::min(k, ranked.size());
  for (size_t i = 0; i < considered; ++i) {
    if (planted.count(ranked[i].feature.value) > 0) ++hits;
  }
  return considered == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(considered);
}

}  // namespace

int main() {
  std::printf("== E9: dominant-feature ranking — dominance score vs raw "
              "counts ==\n\n");

  // Part 1: the paper's worked example. Raw counts put high-frequency
  // fitting/situation values first; dominance puts Houston first.
  {
    XmlDatabase db = bench::MustLoad(GenerateRetailerXml());
    XSeekEngine engine;
    Query query = Query::Parse("Texas apparel retailer");
    auto results = engine.Search(db, query);
    if (!results.ok() || results->empty()) return 1;
    FeatureStatistics stats = FeatureStatistics::Compute(
        db.index(), db.classification(), results->front().root);
    DominantFeatureOptions ds;
    DominantFeatureOptions raw;
    raw.normalize = false;
    auto by_ds = IdentifyDominantFeatures(db.index(), stats, ds);
    auto by_raw = IdentifyDominantFeatures(db.index(), stats, raw);
    std::printf("-- paper example: top 6 by each ranking --\n");
    std::vector<std::vector<std::string>> table;
    table.push_back({"rank", "dominance score", "raw count"});
    for (size_t i = 0; i < 6; ++i) {
      table.push_back(
          {std::to_string(i + 1),
           i < by_ds.size() ? by_ds[i].feature.value + " (" +
                                  FormatDouble(by_ds[i].score, 1) + ")"
                            : "-",
           i < by_raw.size() ? by_raw[i].feature.value + " (" +
                                   std::to_string(by_raw[i].occurrences) + ")"
                             : "-"});
    }
    std::printf("%s\n", RenderTable(table).c_str());
    std::printf("paper §2.3: Houston (6 occurrences) must outrank children "
                "(40 occurrences); raw counts invert this.\n\n");
  }

  // Part 2: planted ground truth across random databases.
  std::printf("-- planted-value precision@k, mean over 10 random dbs --\n");
  std::vector<std::vector<std::string>> table;
  table.push_back({"skew", "P@4 dominance", "P@4 raw", "P@8 dominance",
                   "P@8 raw"});
  for (double skew : {0.8, 1.2, 1.6}) {
    double p4_ds = 0, p4_raw = 0, p8_ds = 0, p8_raw = 0;
    const int kDbs = 10;
    for (int trial = 0; trial < kDbs; ++trial) {
      RandomXmlOptions options;
      options.levels = 3;
      options.entities_per_parent = 6;
      options.attributes_per_entity = 2;
      options.domain_size = 12;
      options.zipf_skew = skew;
      options.seed = static_cast<uint64_t>(trial) * 977 + 5;
      RandomXmlData data = GenerateRandomXml(options);
      XmlDatabase db = bench::MustLoad(data.xml);
      std::set<std::string> planted;
      for (const auto& [attr, value] : data.planted_values) {
        planted.insert(value);
      }
      FeatureStatistics stats = FeatureStatistics::Compute(
          db.index(), db.classification(), db.index().root());
      DominantFeatureOptions ds;
      DominantFeatureOptions raw;
      raw.normalize = false;
      auto by_ds = IdentifyDominantFeatures(db.index(), stats, ds);
      auto by_raw = IdentifyDominantFeatures(db.index(), stats, raw);
      p4_ds += PrecisionAtK(by_ds, planted, 4);
      p4_raw += PrecisionAtK(by_raw, planted, 4);
      p8_ds += PrecisionAtK(by_ds, planted, 8);
      p8_raw += PrecisionAtK(by_raw, planted, 8);
    }
    table.push_back({FormatDouble(skew, 1), FormatDouble(p4_ds / 10, 2),
                     FormatDouble(p4_raw / 10, 2), FormatDouble(p8_ds / 10, 2),
                     FormatDouble(p8_raw / 10, 2)});
  }
  std::printf("%s\n", RenderTable(table).c_str());
  std::printf("expected shape: dominance-score precision >= raw-count "
              "precision; the gap widens for deep documents where type "
              "frequencies differ most.\n");
  return 0;
}

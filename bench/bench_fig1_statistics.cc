// F1 — Figure 1 reproduction: the query result of "Texas apparel retailer"
// and its value-occurrence statistics, plus the time to compute them.
//
// Paper artifact: Figure 1's right portion lists, per attribute, the number
// of occurrences of each value in the query result (Houston: 6, man: 600,
// casual: 700, outwear: 220, ...).

#include <cstdio>

#include "bench_util.h"
#include "datagen/retailer_dataset.h"
#include "snippet/feature_statistics.h"

int main() {
  using namespace extract;
  std::printf("== F1: Figure 1 — statistics of the 'Texas apparel retailer' "
              "query result ==\n\n");
  XmlDatabase db = bench::MustLoad(GenerateRetailerXml());
  XSeekEngine engine;
  Query query = Query::Parse("Texas apparel retailer");
  auto results = engine.Search(db, query);
  if (!results.ok() || results->size() != 1) {
    std::fprintf(stderr, "unexpected results\n");
    return 1;
  }
  NodeId root = results->front().root;

  FeatureStatistics stats =
      FeatureStatistics::Compute(db.index(), db.classification(), root);
  std::printf("%s\n", stats.Render(db.index(), 4).c_str());

  std::printf("paper (Figure 1): Houston 6, Austin 1, other cities 3;\n"
              "  man 600, woman 360, children 40; casual 700, formal 300;\n"
              "  outwear 220, suit 120, skirt 80, sweaters 70, others 580\n\n");

  volatile size_t sink = 0;
  double us = bench::MeasureMicros([&] {
    FeatureStatistics s =
        FeatureStatistics::Compute(db.index(), db.classification(), root);
    sink += s.types().size();
  });
  (void)sink;
  std::printf("feature statistics over %zu result nodes: %.1f us\n",
              static_cast<size_t>(db.index().subtree_end(root) - root), us);
  return 0;
}

// F3 — Figure 3 reproduction: the IList of the paper's running example.
//
// Paper artifact: Figure 3 lists, in order: Texas, apparel, retailer,
// clothes, store, Brook Brothers, Houston, outwear, man, casual, suit,
// woman. This binary rebuilds it through the full pipeline and checks the
// match character by character.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "datagen/retailer_dataset.h"
#include "snippet/snippet_service.h"

int main() {
  using namespace extract;
  std::printf("== F3: Figure 3 — IList of the 'Texas apparel retailer' "
              "result ==\n\n");
  XmlDatabase db = bench::MustLoad(GenerateRetailerXml());
  XSeekEngine engine;
  Query query = Query::Parse("Texas, apparel, retailer");
  auto results = engine.Search(db, query);
  if (!results.ok() || results->size() != 1) {
    std::fprintf(stderr, "unexpected results\n");
    return 1;
  }
  SnippetService service(&db);
  auto snippet = service.Generate(query, results->front(), SnippetOptions{});
  if (!snippet.ok()) return 1;

  const std::string paper =
      "Texas, apparel, retailer, clothes, store, Brook Brothers, Houston, "
      "outwear, man, casual, suit, woman";
  std::string ours = snippet->ilist.ToString();
  std::printf("ours : %s\npaper: %s\nmatch: %s\n\n", ours.c_str(),
              paper.c_str(), ours == paper ? "EXACT" : "DIFFERS");

  std::printf("item details (kind, display, dominance score):\n");
  for (const auto& item : snippet->ilist.items()) {
    if (item.kind == IListItemKind::kDominantFeature) {
      std::printf("  %-8s %-16s %.2f\n",
                  std::string(IListItemKindToString(item.kind)).c_str(),
                  item.display.c_str(), item.score);
    } else {
      std::printf("  %-8s %s\n",
                  std::string(IListItemKindToString(item.kind)).c_str(),
                  item.display.c_str());
    }
  }
  std::printf("\npaper (§2.3): DS(Houston)=3.0, man=1.8, woman=1.1, "
              "casual=1.4, outwear=2.2, suit=1.2\n");
  return ours == paper ? 0 : 1;
}

// Keyword search + snippets over the movies scenario (paper §4 mentions
// "various example scenarios, such as movies and stores").
//
//   $ ./build/examples/movie_search drama stone          # search by keywords
//   $ ./build/examples/movie_search --bound 12 drama     # custom size bound

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <algorithm>
#include <vector>

#include "datagen/movies_dataset.h"
#include "search/search_engine.h"
#include "snippet/snippet_service.h"

int main(int argc, char** argv) {
  size_t size_bound = 10;
  std::string query_text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bound") == 0 && i + 1 < argc) {
      size_bound = static_cast<size_t>(std::atoi(argv[++i]));
      continue;
    }
    if (!query_text.empty()) query_text += ' ';
    query_text += argv[i];
  }
  if (query_text.empty()) query_text = "drama movie";

  extract::MoviesDatasetOptions dataset;
  dataset.num_movies = 60;
  auto db = extract::XmlDatabase::Load(extract::GenerateMoviesXml(dataset));
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  extract::Query query = extract::Query::Parse(query_text);
  extract::XSeekEngine engine;
  auto results = engine.Search(*db, query);
  if (!results.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  std::printf("query: \"%s\"  — %zu result(s), snippet bound %zu\n\n",
              query.ToString().c_str(), results->size(), size_bound);

  // Generate the first page of snippets as one batch.
  std::vector<extract::QueryResult> page(
      results->begin(),
      results->begin() + std::min<size_t>(5, results->size()));
  extract::SnippetService service(&*db);
  extract::SnippetOptions options;
  options.size_bound = size_bound;
  auto snippets = service.GenerateBatch(query, page, options);
  if (!snippets.ok()) {
    std::fprintf(stderr, "snippets failed: %s\n",
                 snippets.status().ToString().c_str());
    return 1;
  }
  for (const extract::Snippet& snippet : *snippets) {
    std::printf("%s\n", extract::RenderSnippet(snippet).c_str());
  }
  if (results->size() > page.size()) {
    std::printf("... (%zu more results)\n", results->size() - page.size());
  }
  return 0;
}

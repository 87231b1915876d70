#include "snippet/distinguishability.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/string_util.h"
#include "snippet/feature_statistics.h"
#include "snippet/snippet_context.h"
#include "snippet/snippet_service.h"

namespace extract {

double SnippetItemOverlap(const Snippet& a, const Snippet& b) {
  auto covered_set = [](const Snippet& s) {
    std::set<std::string> out;
    for (size_t i = 0; i < s.ilist.size() && i < s.covered.size(); ++i) {
      if (s.covered[i]) out.insert(ToLowerCopy(s.ilist[i].display));
    }
    return out;
  };
  std::set<std::string> sa = covered_set(a);
  std::set<std::string> sb = covered_set(b);
  if (sa.empty() && sb.empty()) return 0.0;
  size_t intersection = 0;
  for (const std::string& item : sa) {
    if (sb.count(item) > 0) ++intersection;
  }
  size_t union_size = sa.size() + sb.size() - intersection;
  return union_size == 0
             ? 0.0
             : static_cast<double>(intersection) /
                   static_cast<double>(union_size);
}

BatchDistinctness MeasureDistinctness(const std::vector<Snippet>& snippets) {
  BatchDistinctness out;
  out.results = snippets.size();
  std::set<std::string> keys;
  for (const Snippet& s : snippets) {
    if (s.key.found()) {
      ++out.keyed_snippets;
      keys.insert(s.key.value);
    }
  }
  out.distinct_keys = keys.size();
  if (snippets.size() < 2) return out;
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < snippets.size(); ++i) {
    for (size_t j = i + 1; j < snippets.size(); ++j) {
      total += SnippetItemOverlap(snippets[i], snippets[j]);
      ++pairs;
    }
  }
  out.mean_pairwise_overlap = total / static_cast<double>(pairs);
  return out;
}

Result<std::vector<Snippet>> GenerateDiverseSnippets(
    const XmlDatabase& db, const Query& query,
    const std::vector<QueryResult>& results, const SnippetOptions& options,
    const DiversifyOptions& diversify) {
  SnippetService service(&db);
  SnippetContext ctx(&db, query);
  return GenerateDiverseSnippets(service, ctx, results, options, diversify);
}

Result<std::vector<Snippet>> GenerateDiverseSnippets(
    const SnippetService& service, SnippetContext& ctx,
    const std::vector<QueryResult>& results, const SnippetOptions& options,
    const DiversifyOptions& diversify) {
  const XmlDatabase& db = *service.db();
  const IndexedDocument& doc = db.index();
  const size_t R = results.size();

  // Phase 1: per-result analysis (statistics, return entity, key, dominant
  // features under the paper's ranking) through the shared context, so the
  // phase 2 pipeline runs reuse every scan.
  std::vector<std::vector<RankedFeature>> features(R);
  std::map<Feature, size_t> feature_result_count;
  for (size_t r = 0; r < R; ++r) {
    if (results[r].root == kInvalidNode ||
        static_cast<size_t>(results[r].root) >= doc.num_nodes()) {
      return Status::InvalidArgument("query result root is not a valid node");
    }
    const FeatureStatistics& stats = ctx.StatisticsFor(results[r].root);
    features[r] = IdentifyDominantFeatures(doc, stats, options.features);
    for (const RankedFeature& rf : features[r]) {
      feature_result_count[rf.feature]++;
    }
  }

  // Phase 2: re-weight features by how many results share them, then run
  // the stage pipeline with the re-ranked features supplied externally.
  std::vector<Snippet> out;
  out.reserve(R);
  for (size_t r = 0; r < R; ++r) {
    if (R > 1 && diversify.commonality_penalty > 0.0) {
      for (RankedFeature& rf : features[r]) {
        size_t shared = feature_result_count[rf.feature];
        double boost = 1.0 + diversify.commonality_penalty *
                                 static_cast<double>(R - shared) /
                                 static_cast<double>(std::max<size_t>(1, R - 1));
        rf.score *= boost;
      }
      std::stable_sort(features[r].begin(), features[r].end(),
                       [](const RankedFeature& a, const RankedFeature& b) {
                         return a.score > b.score;
                       });
    }
    Snippet snippet;
    EXTRACT_ASSIGN_OR_RETURN(
        snippet,
        service.GenerateWithFeatures(ctx, results[r], options, features[r]));
    out.push_back(std::move(snippet));
  }
  return out;
}

}  // namespace extract

#include "search/ranking.h"

#include <algorithm>
#include <cmath>

namespace extract {

double ScoreResult(const XmlDatabase& db, const QueryResult& result,
                   const RankingOptions& options) {
  const IndexedDocument& doc = db.index();
  double score = 0.0;
  // Specificity: depth of the SLCA witness (falls back to the root depth).
  NodeId slca = result.slca != kInvalidNode ? result.slca : result.root;
  score += options.specificity_weight * static_cast<double>(doc.depth(slca));
  // Frequency: damped match counts per keyword.
  for (const auto& matches : result.matches) {
    score += options.frequency_weight *
             std::log2(1.0 + static_cast<double>(matches.size()));
  }
  // Compactness: small subtrees score higher.
  score += options.compactness_weight /
           std::log2(2.0 + static_cast<double>(doc.subtree_edges(result.root)));
  return score;
}

std::vector<RankedResult> RankResults(const XmlDatabase& db,
                                      const std::vector<QueryResult>& results,
                                      const RankingOptions& options) {
  std::vector<RankedResult> out;
  out.reserve(results.size());
  for (const QueryResult& result : results) {
    out.push_back(RankedResult{result, ScoreResult(db, result, options)});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RankedResult& a, const RankedResult& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.result.root < b.result.root;
                   });
  return out;
}

std::vector<RankedResult> RankResults(const XmlDatabase& db,
                                      const std::vector<QueryResult>& results,
                                      const RankingOptions& options,
                                      size_t top_k) {
  if (top_k == 0 || top_k >= results.size()) {
    return RankResults(db, results, options);
  }
  std::vector<RankedResult> out;
  out.reserve(results.size());
  for (const QueryResult& result : results) {
    out.push_back(RankedResult{result, ScoreResult(db, result, options)});
  }
  // partial_sort is not stable, but (score desc, root asc) is a strict
  // total order on engine output (distinct roots), so the k-prefix is the
  // unique k-smallest set in sorted order — identical to the full sort.
  std::partial_sort(out.begin(), out.begin() + static_cast<ptrdiff_t>(top_k),
                    out.end(),
                    [](const RankedResult& a, const RankedResult& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.result.root < b.result.root;
                    });
  out.resize(top_k);
  return out;
}

double ScoreUpperBound(const RankingOptions& options, uint32_t max_depth,
                       std::span<const size_t> max_matches,
                       size_t min_result_edges) {
  double bound = 0.0;
  if (options.specificity_weight > 0.0) {
    bound += options.specificity_weight * static_cast<double>(max_depth);
  }
  if (options.frequency_weight > 0.0) {
    for (size_t count : max_matches) {
      bound += options.frequency_weight *
               std::log2(1.0 + static_cast<double>(count));
    }
  }
  if (options.compactness_weight > 0.0) {
    // Zero edges: compactness_weight / log2(2) == the weight itself, and
    // producers ask on every merge step.
    bound += min_result_edges == 0
                 ? options.compactness_weight
                 : options.compactness_weight /
                       std::log2(2.0 + static_cast<double>(min_result_edges));
  }
  return bound;
}

}  // namespace extract

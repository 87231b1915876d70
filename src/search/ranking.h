// Result ranking: the paper (§1) positions snippets as the complement of
// ranking schemes (XRANK [2], XSearch [1]); a full engine needs both. This
// module scores and orders query results with the standard structural
// signals those systems use:
//
//   * specificity — deeper SLCAs are more specific matches (XRANK's
//     decay-with-distance rationale);
//   * keyword frequency — more matches, with logarithmic damping;
//   * compactness — smaller result subtrees focus the user faster.
//
// Snippet generation is orthogonal (§3): ranking reorders QueryResults, and
// eXtract summarizes whatever order it is given.

#ifndef EXTRACT_SEARCH_RANKING_H_
#define EXTRACT_SEARCH_RANKING_H_

#include <span>
#include <vector>

#include "search/search_engine.h"

namespace extract {

/// Scoring weights; defaults follow the usual structural-IR mix.
struct RankingOptions {
  double specificity_weight = 1.0;   ///< per SLCA depth level
  double frequency_weight = 0.5;     ///< per log2(1 + matches) per keyword
  double compactness_weight = 2.0;   ///< 1 / log2(2 + result edges)
};

/// A result with its score.
struct RankedResult {
  QueryResult result;
  double score = 0.0;
};

/// Score of a single result under `options`.
double ScoreResult(const XmlDatabase& db, const QueryResult& result,
                   const RankingOptions& options);

/// \brief Scores and sorts results best-first.
///
/// Ties break toward document order, so ranking is deterministic and stable
/// against permutations of the input.
std::vector<RankedResult> RankResults(const XmlDatabase& db,
                                      const std::vector<QueryResult>& results,
                                      const RankingOptions& options);

/// \brief RankResults with a top-k fast path: only the best `top_k` results
/// are sorted and returned (std::partial_sort instead of a full sort).
///
/// `top_k == 0` or >= results.size() degenerates to the full RankResults.
/// The returned prefix is byte-identical to the full sort's first top_k
/// entries whenever the input has no two results with the same root (always
/// true for engine output — results are distinct subtree views), because
/// (score desc, root asc) is then a strict total order and the k-smallest
/// prefix under a total order is unique.
std::vector<RankedResult> RankResults(const XmlDatabase& db,
                                      const std::vector<QueryResult>& results,
                                      const RankingOptions& options,
                                      size_t top_k);

/// \brief A sound upper bound on ScoreResult for any result whose SLCA
/// depth is at most `max_depth`, whose per-keyword match counts are at
/// most `max_matches` (parallel to the query's keywords) and whose root
/// subtree has at least `min_result_edges` edges.
///
/// Each signal is bounded by its extremum: specificity at `max_depth`
/// (depth 0 when the weight is negative), frequency at the full match
/// counts (zero matches when negative), compactness at `min_result_edges`
/// (infinite edges — contribution 0 — when negative). The terms are summed
/// in ScoreResult's order, so rounding cannot lift a score above its bound.
/// Monotone in every argument, so a shard whose remaining depth/frequency
/// envelopes shrink can only lower its bound — the property the threshold
/// merge's early termination needs.
double ScoreUpperBound(const RankingOptions& options, uint32_t max_depth,
                       std::span<const size_t> max_matches,
                       size_t min_result_edges = 0);

}  // namespace extract

#endif  // EXTRACT_SEARCH_RANKING_H_

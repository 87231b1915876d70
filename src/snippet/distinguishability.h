// Batch distinguishability: the paper's second goal is that snippets
// "differentiate [query results] from one another". The result key (§2.2)
// is the per-result mechanism; this module adds the batch-level view:
//
//   * metrics — pairwise overlap of snippet contents and key distinctness
//     across all results of one query;
//   * diversification — an extension of the pipeline that re-weights
//     dominant features across the batch, demoting features shared by every
//     result (they cannot tell results apart) in favor of result-specific
//     ones, before instance selection runs.
//
// Diversification preserves the §2.3 dominance *filter* — only dominant
// features are considered — and only perturbs their order.

#ifndef EXTRACT_SNIPPET_DISTINGUISHABILITY_H_
#define EXTRACT_SNIPPET_DISTINGUISHABILITY_H_

#include <vector>

#include "search/search_engine.h"
#include "snippet/snippet_options.h"
#include "snippet/snippet_service.h"
#include "snippet/snippet_tree.h"

namespace extract {

/// Jaccard overlap of the *covered* IList item displays of two snippets
/// (case-insensitive). 1.0 = identical content, 0.0 = disjoint.
double SnippetItemOverlap(const Snippet& a, const Snippet& b);

/// Batch-level distinctness metrics.
struct BatchDistinctness {
  size_t results = 0;
  /// Mean pairwise SnippetItemOverlap; lower is more distinguishable.
  double mean_pairwise_overlap = 0.0;
  /// Number of distinct result keys among the snippets that found one.
  size_t distinct_keys = 0;
  /// Snippets that carry a key at all.
  size_t keyed_snippets = 0;
};

/// Measures a batch of snippets (typically all results of one query).
BatchDistinctness MeasureDistinctness(const std::vector<Snippet>& snippets);

/// Diversification knobs.
struct DiversifyOptions {
  /// Score multiplier headroom for result-specific features: a feature
  /// occurring in `s` of `R` results is re-weighted by
  /// 1 + penalty * (R - s) / max(1, R - 1) — unique features gain the full
  /// boost, ubiquitous ones none. 0 disables reordering.
  double commonality_penalty = 0.75;
};

/// \brief Generates one snippet per result with batch-aware feature
/// ordering (see file comment). With a single result (or penalty 0) the
/// output is identical to SnippetService::GenerateBatch.
Result<std::vector<Snippet>> GenerateDiverseSnippets(
    const XmlDatabase& db, const Query& query,
    const std::vector<QueryResult>& results, const SnippetOptions& options,
    const DiversifyOptions& diversify);

/// \brief GenerateDiverseSnippets over a caller-owned service and context.
///
/// Lets repeated generations of the same query reuse the context's memoized
/// statistics/entity/key/instance lookups — regenerating at a new size bound
/// re-runs only selection and materialization, the first step of the
/// roadmap's incremental selection across bounds. `ctx` must be bound to
/// the same database and query as the batch.
Result<std::vector<Snippet>> GenerateDiverseSnippets(
    const SnippetService& service, SnippetContext& ctx,
    const std::vector<QueryResult>& results, const SnippetOptions& options,
    const DiversifyOptions& diversify);

}  // namespace extract

#endif  // EXTRACT_SNIPPET_DISTINGUISHABILITY_H_

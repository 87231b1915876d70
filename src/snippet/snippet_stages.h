// The paper's Figure 4 pipeline as explicit, independently testable stages.
//
//   feature-statistics -> return-entity -> result-key -> ilist
//       -> instance-selection -> materialize
//
// Each stage reads and extends a SnippetDraft — the working state of one
// result flowing through the pipeline — and may consult the shared
// SnippetContext for memoized per-query work. SnippetService
// (snippet_service.h) runs the stage sequence; custom sequences (extra
// stages, instrumented stages, ablations) can be assembled per service.
//
// Stages are stateless and const: one stage instance may run concurrently
// on many drafts (a service shared by concurrent requests does exactly
// that).

#ifndef EXTRACT_SNIPPET_SNIPPET_STAGES_H_
#define EXTRACT_SNIPPET_SNIPPET_STAGES_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "snippet/snippet_context.h"
#include "snippet/snippet_options.h"
#include "snippet/snippet_tree.h"

namespace extract {

/// \brief Working state of one result inside the stage pipeline.
struct SnippetDraft {
  /// The result being summarized. Set by the caller; must outlive the run.
  const QueryResult* result = nullptr;

  /// Optional externally supplied feature ranking (the batch diversifier's
  /// hook, snippet/distinguishability.h). When set, the ilist stage uses it
  /// instead of ranking draft statistics itself.
  const std::vector<RankedFeature>* feature_override = nullptr;

  /// The snippet under construction (result_root, return_entity, key,
  /// ilist, nodes, covered, tree accumulate across stages).
  Snippet snippet;

  /// Set by the feature-statistics stage; owned by the SnippetContext.
  const FeatureStatistics* statistics = nullptr;

  /// Set by the instance-selection stage.
  Selection selection;
};

/// \brief One stage of the snippet pipeline.
class SnippetStage {
 public:
  virtual ~SnippetStage() = default;

  /// Stable stage identifier ("feature-statistics", "ilist", ...), used by
  /// diagnostics and the per-stage benchmarks.
  virtual std::string_view name() const = 0;

  /// Advances `draft` by one stage. Preconditions are the postconditions of
  /// the preceding stages in BuildDefaultStages() order.
  virtual Status Run(SnippetContext& ctx, const SnippetOptions& options,
                     SnippetDraft& draft) const = 0;
};

/// Computes (memoized) per-result feature statistics and stamps
/// snippet.result_root.
class FeatureStatisticsStage : public SnippetStage {
 public:
  std::string_view name() const override { return "feature-statistics"; }
  Status Run(SnippetContext& ctx, const SnippetOptions& options,
             SnippetDraft& draft) const override;
};

/// Identifies the return entity (§2.2).
class ReturnEntityStage : public SnippetStage {
 public:
  std::string_view name() const override { return "return-entity"; }
  Status Run(SnippetContext& ctx, const SnippetOptions& options,
             SnippetDraft& draft) const override;
};

/// Identifies the query result key (§2.2).
class ResultKeyStage : public SnippetStage {
 public:
  std::string_view name() const override { return "result-key"; }
  Status Run(SnippetContext& ctx, const SnippetOptions& options,
             SnippetDraft& draft) const override;
};

/// Assembles the IList (§2): keywords, entity names, key, dominant
/// features — or an externally supplied feature ranking when
/// draft.feature_override is set.
class IListStage : public SnippetStage {
 public:
  std::string_view name() const override { return "ilist"; }
  Status Run(SnippetContext& ctx, const SnippetOptions& options,
             SnippetDraft& draft) const override;
};

/// Runs the greedy selector (§2.4) over the database's columns: an item's
/// instances are looked up only while the edge budget can still pay for
/// one, and the full tree's members are tested against the rest.
class InstanceSelectionStage : public SnippetStage {
 public:
  std::string_view name() const override { return "instance-selection"; }
  Status Run(SnippetContext& ctx, const SnippetOptions& options,
             SnippetDraft& draft) const override;
};

/// Materializes the selection as a DOM tree.
class MaterializeStage : public SnippetStage {
 public:
  std::string_view name() const override { return "materialize"; }
  Status Run(SnippetContext& ctx, const SnippetOptions& options,
             SnippetDraft& draft) const override;
};

/// The Figure 4 sequence, in order.
std::vector<std::unique_ptr<SnippetStage>> BuildDefaultStages();

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_STAGES_H_

#include "snippet/snippet_stages.h"

namespace extract {

namespace {

// Stages run on arbitrary (possibly custom) sequences, so each one guards
// the draft it is handed rather than trusting its predecessors.
Status RequireResult(const SnippetDraft& draft) {
  if (draft.result == nullptr) {
    return Status::FailedPrecondition("draft has no query result");
  }
  return Status::OK();
}

}  // namespace

Status FeatureStatisticsStage::Run(SnippetContext& ctx,
                                   const SnippetOptions& /*options*/,
                                   SnippetDraft& draft) const {
  EXTRACT_RETURN_IF_ERROR(RequireResult(draft));
  draft.snippet.result_root = draft.result->root;
  draft.statistics = &ctx.StatisticsFor(draft.result->root);
  return Status::OK();
}

Status ReturnEntityStage::Run(SnippetContext& ctx,
                              const SnippetOptions& /*options*/,
                              SnippetDraft& draft) const {
  EXTRACT_RETURN_IF_ERROR(RequireResult(draft));
  draft.snippet.return_entity = ctx.ReturnEntityFor(draft.result->root);
  return Status::OK();
}

Status ResultKeyStage::Run(SnippetContext& ctx,
                           const SnippetOptions& /*options*/,
                           SnippetDraft& draft) const {
  EXTRACT_RETURN_IF_ERROR(RequireResult(draft));
  draft.snippet.key = ctx.ResultKeyFor(draft.result->root);
  return Status::OK();
}

Status IListStage::Run(SnippetContext& ctx, const SnippetOptions& options,
                       SnippetDraft& draft) const {
  EXTRACT_RETURN_IF_ERROR(RequireResult(draft));
  const XmlDatabase& db = ctx.db();
  if (draft.feature_override != nullptr) {
    draft.snippet.ilist = BuildIListWithFeatures(
        db.index(), ctx.query(), draft.result->root, draft.snippet.key,
        *draft.feature_override, db.classification());
    return Status::OK();
  }
  if (draft.statistics == nullptr) {
    return Status::FailedPrecondition(
        "ilist stage requires feature statistics");
  }
  draft.snippet.ilist = BuildIList(db.index(), ctx.query(), draft.result->root,
                                   draft.snippet.key, *draft.statistics,
                                   db.classification(), options.features);
  return Status::OK();
}

Status InstanceSelectionStage::Run(SnippetContext& ctx,
                                   const SnippetOptions& options,
                                   SnippetDraft& draft) const {
  EXTRACT_RETURN_IF_ERROR(RequireResult(draft));
  draft.selection = SelectInstances(ctx.db(), draft.result->root,
                                    draft.snippet.ilist, options.size_bound);
  draft.snippet.nodes = draft.selection.nodes;
  draft.snippet.covered = draft.selection.covered;
  return Status::OK();
}

Status MaterializeStage::Run(SnippetContext& ctx,
                             const SnippetOptions& /*options*/,
                             SnippetDraft& draft) const {
  EXTRACT_RETURN_IF_ERROR(RequireResult(draft));
  draft.snippet.tree = MaterializeSelection(ctx.db().index(),
                                            draft.result->root,
                                            draft.selection);
  return Status::OK();
}

std::vector<std::unique_ptr<SnippetStage>> BuildDefaultStages() {
  std::vector<std::unique_ptr<SnippetStage>> stages;
  stages.push_back(std::make_unique<FeatureStatisticsStage>());
  stages.push_back(std::make_unique<ReturnEntityStage>());
  stages.push_back(std::make_unique<ResultKeyStage>());
  stages.push_back(std::make_unique<IListStage>());
  stages.push_back(std::make_unique<InstanceSelectionStage>());
  stages.push_back(std::make_unique<MaterializeStage>());
  return stages;
}

}  // namespace extract

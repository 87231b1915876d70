#include "snippet/snippet_service.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/fault.h"

namespace extract {

namespace {

Status ValidateResult(const XmlDatabase& db, const QueryResult& result) {
  if (result.root == kInvalidNode ||
      static_cast<size_t>(result.root) >= db.index().num_nodes()) {
    return Status::InvalidArgument("query result root is not a valid node");
  }
  return Status::OK();
}

}  // namespace

Status MakeBatchResultError(size_t index, size_t total,
                            const std::string& extra, const Status& inner) {
  return Status(inner.code(), "result " + std::to_string(index) + " of " +
                                  std::to_string(total) + extra + ": " +
                                  inner.message());
}

Result<Snippet> SnippetService::RunPipeline(SnippetContext& ctx,
                                            SnippetDraft& draft,
                                            const SnippetOptions& options) const {
  EXTRACT_RETURN_IF_ERROR(ValidateResult(*db_, *draft.result));
  using Clock = std::chrono::steady_clock;
  for (size_t s = 0; s < stages_.size(); ++s) {
    const SnippetStage& stage = *stages_[s];
    const Clock::time_point start = Clock::now();
    // Fires between stages, then flows through the same decoration below
    // that a genuine stage failure takes.
    Status status = Status::OK();
    EXTRACT_FAULT_CHECK_INTO(status, "snippet.stage");
    if (status.ok()) status = stage.Run(ctx, options, draft);
    counters_[s].Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
    if (!status.ok()) {
      return Status(status.code(), std::string(stage.name()) + " stage: " +
                                       status.message());
    }
  }
  return std::move(draft.snippet);
}

std::vector<StageStat> SnippetService::StageStatsSnapshot() const {
  std::vector<StageStat> out(stages_.size());
  for (size_t s = 0; s < stages_.size(); ++s) {
    out[s].name = std::string(stages_[s]->name());
    out[s].calls = counters_[s].calls.load(std::memory_order_relaxed);
    out[s].total_ns = counters_[s].total_ns.load(std::memory_order_relaxed);
    out[s].max_ns = counters_[s].max_ns.load(std::memory_order_relaxed);
  }
  return out;
}

void SnippetService::ResetStageStats() const {
  for (StageCounters& counters : counters_) {
    counters.calls.store(0, std::memory_order_relaxed);
    counters.total_ns.store(0, std::memory_order_relaxed);
    counters.max_ns.store(0, std::memory_order_relaxed);
  }
}

Result<Snippet> SnippetService::Generate(SnippetContext& ctx,
                                         const QueryResult& result,
                                         const SnippetOptions& options) const {
  SnippetDraft draft;
  draft.result = &result;
  return RunPipeline(ctx, draft, options);
}

Result<Snippet> SnippetService::Generate(const Query& query,
                                         const QueryResult& result,
                                         const SnippetOptions& options) const {
  SnippetContext ctx(db_, query);
  return Generate(ctx, result, options);
}

Result<Snippet> SnippetService::GenerateWithFeatures(
    SnippetContext& ctx, const QueryResult& result,
    const SnippetOptions& options,
    const std::vector<RankedFeature>& features) const {
  SnippetDraft draft;
  draft.result = &result;
  draft.feature_override = &features;
  return RunPipeline(ctx, draft, options);
}

ServingSession SnippetService::StreamBatch(
    SnippetContext& ctx, const std::vector<QueryResult>& results,
    const SnippetOptions& options, const StreamOptions& stream) const {
  StreamBuilder builder;
  builder.total_slots = results.size();
  builder.options = stream;
  builder.pending.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) builder.pending.push_back(i);
  builder.compute = [this, &ctx, &results, options](size_t slot) {
    return Generate(ctx, results[slot], options);
  };
  return std::move(builder).Open();
}

Result<std::vector<Snippet>> SnippetService::GenerateBatch(
    SnippetContext& ctx, const std::vector<QueryResult>& results,
    const SnippetOptions& options) const {
  // Every result computes into its own stream slot, and Collect reports the
  // lowest failing index — the result a sequential loop would have stopped
  // at.
  ServingSession session = StreamBatch(ctx, results, options, {});
  return session.stream().Collect();
}

Result<std::vector<Snippet>> SnippetService::GenerateBatch(
    const Query& query, const std::vector<QueryResult>& results,
    const SnippetOptions& options) const {
  SnippetContext ctx(db_, query);
  return GenerateBatch(ctx, results, options);
}

}  // namespace extract

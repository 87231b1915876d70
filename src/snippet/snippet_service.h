// SnippetService: the layered serving entry point of the snippet subsystem.
//
//   SnippetService service(&db);
//   SnippetContext ctx(&db, query);              // shared per-query cache
//   auto one   = service.Generate(ctx, results[0], options);
//   auto batch = service.GenerateBatch(ctx, results, options);
//
// The service runs the stage pipeline (snippet_stages.h) over a shared
// SnippetContext. The primary execution model is the slot stream
// (StreamBatch, snippet/snippet_stream.h): one event per result, computed
// on the consuming thread as it pulls. GenerateBatch is a sequential
// collector over that stream, with deterministic output ordering (slot i
// of the output is result i of the input); on failure the returned Status
// names the index of the result that failed.
//
// One-shot callers skip the context: Generate(query, result, options)
// builds a throwaway one, and GenerateBatch(query, ...) shares one across
// the batch.

#ifndef EXTRACT_SNIPPET_SNIPPET_SERVICE_H_
#define EXTRACT_SNIPPET_SNIPPET_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "snippet/snippet_context.h"
#include "snippet/snippet_options.h"
#include "snippet/snippet_stages.h"
#include "snippet/snippet_stream.h"
#include "snippet/stage_stats.h"

namespace extract {

/// "result <index> of <total><extra>: <inner message>", preserving the
/// inner code — the shared error shape of every batch entry point
/// (SnippetService::GenerateBatch, XmlCorpus::GenerateSnippets).
Status MakeBatchResultError(size_t index, size_t total,
                            const std::string& extra, const Status& inner);

/// \brief Stage-based snippet generation over one database. Stateless
/// apart from the database pointer and the (immutable) stage sequence;
/// safe to share across threads.
class SnippetService {
 public:
  /// Default Figure 4 stage sequence. `db` must outlive the service.
  explicit SnippetService(const XmlDatabase* db)
      : SnippetService(db, BuildDefaultStages()) {}

  /// Custom stage sequence (instrumentation, ablations, extensions).
  SnippetService(const XmlDatabase* db,
                 std::vector<std::unique_ptr<SnippetStage>> stages)
      : db_(db), stages_(std::move(stages)), counters_(stages_.size()) {}

  const XmlDatabase* db() const { return db_; }
  const std::vector<std::unique_ptr<SnippetStage>>& stages() const {
    return stages_;
  }

  /// Generates one snippet, sharing `ctx` across calls. `ctx` must be bound
  /// to the same database as the service.
  Result<Snippet> Generate(SnippetContext& ctx, const QueryResult& result,
                           const SnippetOptions& options) const;

  /// One-shot convenience: builds a throwaway context.
  Result<Snippet> Generate(const Query& query, const QueryResult& result,
                           const SnippetOptions& options) const;

  /// Diversifier hook: generates with an externally supplied feature
  /// ranking instead of ranking this result's statistics (see
  /// snippet/distinguishability.h).
  Result<Snippet> GenerateWithFeatures(
      SnippetContext& ctx, const QueryResult& result,
      const SnippetOptions& options,
      const std::vector<RankedFeature>& features) const;

  /// \brief The streaming core: opens a slot stream emitting one snippet
  /// per result, computed as the consumer pulls (snippet/snippet_stream.h).
  ///
  /// `ctx` and `results` are borrowed and must outlive the session. Slot i
  /// corresponds to results[i]; each slot's bytes are identical to
  /// Generate(ctx, results[i], options).
  ServingSession StreamBatch(SnippetContext& ctx,
                             const std::vector<QueryResult>& results,
                             const SnippetOptions& options,
                             const StreamOptions& stream) const;

  /// \brief Generates one snippet per result on the calling thread, with
  /// deterministic ordering (output i <-> results[i]). A collector over
  /// StreamBatch: opens the stream and collects every slot.
  ///
  /// On failure returns the error of the lowest failing result index, with
  /// "result <i> of <n>: " prepended to its message.
  Result<std::vector<Snippet>> GenerateBatch(
      SnippetContext& ctx, const std::vector<QueryResult>& results,
      const SnippetOptions& options) const;

  /// GenerateBatch with a context built for `query` internally (forwards to
  /// the context overload).
  Result<std::vector<Snippet>> GenerateBatch(
      const Query& query, const std::vector<QueryResult>& results,
      const SnippetOptions& options) const;

  /// \brief Cumulative per-stage timing of every Generate* call served so
  /// far: calls, total ns, peak single-run ns per stage, in stage order.
  ///
  /// Counters are always on (relaxed atomics — two adds and a CAS-max per
  /// stage run) so production serving can see where time goes without a
  /// special build; snapshots are safe to take while other threads
  /// generate.
  std::vector<StageStat> StageStatsSnapshot() const;

  /// Zeroes the per-stage counters (e.g. between measurement windows).
  void ResetStageStats() const;

 private:
  Result<Snippet> RunPipeline(SnippetContext& ctx, SnippetDraft& draft,
                              const SnippetOptions& options) const;

  const XmlDatabase* db_;
  std::vector<std::unique_ptr<SnippetStage>> stages_;
  /// Parallel to stages_. Mutable: timing a const Generate is observability,
  /// not state. Never resized after construction, so concurrent requests
  /// may touch their slots without synchronization beyond the atomics
  /// themselves.
  mutable std::vector<StageCounters> counters_;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_SERVICE_H_

// Knobs of the snippet generation pipeline and its batch execution, shared
// by the stage layer (snippet_stages.h), the service (snippet_service.h)
// and the snippet cache's signature (snippet_cache.h) without a cycle.

#ifndef EXTRACT_SNIPPET_SNIPPET_OPTIONS_H_
#define EXTRACT_SNIPPET_SNIPPET_OPTIONS_H_

#include <cstddef>

#include "snippet/dominant_features.h"

namespace extract {

/// Per-snippet pipeline knobs.
struct SnippetOptions {
  /// Snippet size upper bound, in edges (the demo's user-settable knob).
  size_t size_bound = 10;
  /// Dominant feature ranking (normalize=false is the ablation baseline).
  DominantFeatureOptions features;
};

/// Batch execution knobs (GenerateAll / GenerateBatch / GenerateSnippets).
///
/// Parallel batches are deterministic: result i of the output always
/// corresponds to result i of the input, and every snippet is byte-identical
/// to what the sequential path produces — scheduling only changes timing.
struct BatchOptions {
  /// Worker threads for the batch: 0 = one per hardware core, 1 = run
  /// sequentially on the calling thread, n = at most n workers.
  size_t num_threads = 0;
};

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_OPTIONS_H_

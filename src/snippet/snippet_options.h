// Knobs of the snippet generation pipeline, shared by the stage layer
// (snippet_stages.h), the service (snippet_service.h) and the snippet
// cache's signature (snippet_cache.h) without a cycle.

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

}  // namespace extract

#endif  // EXTRACT_SNIPPET_SNIPPET_OPTIONS_H_

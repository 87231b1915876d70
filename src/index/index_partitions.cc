#include "index/index_partitions.h"

#include <algorithm>

namespace extract {

IndexPartitions IndexPartitions::Build(const IndexedDocument& doc,
                                       const IndexPartitionOptions& options) {
  const size_t n = doc.num_nodes();
  const size_t target = std::max<size_t>(1, options.target_nodes_per_partition);
  size_t count = n == 0 ? 1 : (n + target - 1) / target;
  if (options.max_partitions > 0) {
    count = std::min(count, options.max_partitions);
  }
  count = std::max<size_t>(1, count);

  IndexPartitions out;
  out.bounds_.clear();
  out.bounds_.reserve(count + 1);
  // Even split: partition p is [p*n/count, (p+1)*n/count).
  for (size_t p = 0; p <= count; ++p) {
    out.bounds_.push_back(static_cast<NodeId>(p * n / count));
  }
  return out;
}

Result<IndexPartitions> IndexPartitions::FromBounds(
    std::vector<NodeId> bounds) {
  if (bounds.size() < 2 || bounds.front() != 0) {
    return Status::InvalidArgument("partition bounds must start at 0");
  }
  for (size_t i = 1; i + 1 < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      return Status::InvalidArgument("partition bounds not ascending");
    }
  }
  if (bounds.back() < bounds[bounds.size() - 2]) {
    return Status::InvalidArgument("partition bounds not ascending");
  }
  IndexPartitions out;
  out.bounds_ = std::move(bounds);
  return out;
}

}  // namespace extract

// DenseIds, used by the node classifier (label pairs and attribute values)
// and the IList (displays, compared ignoring case).

#ifndef EXTRACT_COMMON_DENSE_IDS_H_
#define EXTRACT_COMMON_DENSE_IDS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace extract {

// Dense ids for keys in first-seen order, through one open-addressing table
// (linear probing, doubled at half load). The caller keeps each id's key;
// the table keeps its hash and asks `same_key(id)` on a hash match.
class DenseIds {
 public:
  /// Sized for about `expected` keys without growing.
  explicit DenseIds(size_t expected) {
    hashes_.reserve(expected);
    size_t slots = 16;
    while (slots < 2 * expected) slots *= 2;
    slots_.assign(slots, kEmpty);
  }

  /// The id of the key hashing to `hash` for which `same_key` holds, or the
  /// next free id (== size() before the call) when no such key is known.
  template <typename SameKey>
  uint32_t Intern(uint64_t hash, SameKey same_key) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (id == kEmpty) {
        slots_[i] = static_cast<uint32_t>(hashes_.size());
        hashes_.push_back(hash);
        return slots_[i];
      }
      if (hashes_[id] == hash && same_key(id)) return id;
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  void Grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<uint64_t> hashes_;
};

}  // namespace extract

#endif  // EXTRACT_COMMON_DENSE_IDS_H_

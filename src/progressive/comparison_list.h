#ifndef SPER_PROGRESSIVE_COMPARISON_LIST_H_
#define SPER_PROGRESSIVE_COMPARISON_LIST_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/comparison.h"

/// \file comparison_list.h
/// The Comparison List shared by all advanced methods (paper Sec. 5): a
/// batch of comparisons sorted in non-increasing matching likelihood,
/// consumed front to back and refilled when empty.

namespace sper {

/// Sorted comparison buffer with O(1) pop. Refills *append*: one list can
/// carry several consecutive refills back to back (the ordered refill map
/// fills one list per window of refill cursors), each sorted on its own.
class ComparisonList {
 public:
  /// Appends a comparison to the unsorted tail.
  void Add(const Comparison& c) { items_.push_back(c); }

  /// Sorts the comparisons appended since size() was `from` by descending
  /// weight (deterministic ties) — the path for producers with no useful
  /// order (PBS blocks, the sort-based methods' windows). The cursor is
  /// left alone.
  void SortDescending(std::size_t from = 0) {
    const std::size_t owned_from = from - shared_.size();
    std::sort(items_.begin() + static_cast<std::ptrdiff_t>(owned_from),
              items_.end(), ByWeightDesc());
  }

  /// Appends `ascending` reversed. The path for producers whose natural
  /// output order is non-decreasing likelihood — a bounded top-k drain
  /// (PPS refills) — already a total order under ByWeightDesc read
  /// backwards, so an O(n) reverse replaces an O(n log n) sort.
  void AppendAscending(std::span<const Comparison> ascending) {
    items_.insert(items_.end(), ascending.rbegin(), ascending.rend());
  }

  /// Appends comparisons (already in emission order) that outlive this
  /// list's use, such as PPS's initial top-comparison list. On an empty
  /// list they are served in place, without a copy; otherwise they are
  /// copied after the current content.
  void AppendShared(std::span<const Comparison> sorted) {
    if (size() == 0) {
      shared_ = sorted;
    } else {
      items_.insert(items_.end(), sorted.begin(), sorted.end());
    }
  }

  /// True when every buffered comparison has been popped.
  bool Empty() const { return cursor_ >= size(); }

  /// Pops the highest-weighted remaining comparison.
  Comparison PopFirst() {
    const std::size_t k = cursor_++;
    return k < shared_.size() ? shared_[k] : items_[k - shared_.size()];
  }

  /// Drops all content (start of a refill). Capacity is retained, so a
  /// reused list stops allocating once warm.
  void Clear() {
    shared_ = {};
    items_.clear();
    cursor_ = 0;
  }

  /// Comparisons appended since the last Clear(), popped or not.
  std::size_t size() const { return shared_.size() + items_.size(); }

  /// Comparisons not yet popped.
  std::size_t remaining() const { return size() - cursor_; }

 private:
  std::span<const Comparison> shared_;  // served in place, before items_
  std::vector<Comparison> items_;
  std::size_t cursor_ = 0;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_COMPARISON_LIST_H_

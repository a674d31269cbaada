#pragma once

#include <cstddef>
#include <limits>

namespace choreo::util {

/// Earliest-first selection with ties to the lowest index: returns the index
/// i in [0, count) minimizing (key_of(i), i) lexicographically, or `count`
/// when every key is +infinity. The aggregate event-log merge orders by
/// (time, tenant index) through it, so the merged output is the order events
/// happened in regardless of how many threads produced them.
template <typename KeyOf>
std::size_t earliest_index(std::size_t count, KeyOf&& key_of) {
  std::size_t best = count;
  double best_key = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const double k = key_of(i);
    if (k < best_key) {
      best_key = k;
      best = i;
    }
  }
  return best;
}

}  // namespace choreo::util

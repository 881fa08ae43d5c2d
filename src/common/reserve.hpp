// Sizing a growing table from the input that determines it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace opass {

/// Make room for `n` elements in one allocation, at least doubling the
/// capacity as push_back would: a table sized once for a large input, and
/// still amortized O(1) per element over many small ones.
template <typename T>
void reserve_total(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
}

}  // namespace opass

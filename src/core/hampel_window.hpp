// The two order statistics of the Hampel phase filter's window
// (core::hampelFilterPhases): the median of a read's 10 neighbour
// deviations and their median absolute deviation, without nth_element or
// heap work.  Inline, so the filter's loop keeps the window in registers;
// a private header, included by preprocess.cpp and by the filter's tests.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

namespace tagspin::core::hampel {

/// Sorts `v` ascending with an optimal 10-input network: 29
/// compare-exchanges in 8 layers, each a branch-free std::min/std::max
/// pair.  v[5] is then the order statistic nth_element finds at size()/2.
[[gnu::always_inline]] inline void sortTen(std::array<double, 10>& v) {
  // cx(a, b) leaves the smaller of v[a], v[b] at a and the larger at b.
  const auto cx = [&v](size_t a, size_t b) {
    const double lo = std::min(v[a], v[b]);
    v[b] = std::max(v[a], v[b]);
    v[a] = lo;
  };
  cx(0, 8); cx(1, 9); cx(2, 7); cx(3, 5); cx(4, 6);
  cx(0, 2); cx(1, 4); cx(5, 8); cx(7, 9);
  cx(0, 3); cx(2, 4); cx(5, 7); cx(6, 9);
  cx(0, 1); cx(3, 6); cx(8, 9);
  cx(1, 5); cx(2, 3); cx(4, 8); cx(6, 7);
  cx(1, 2); cx(3, 5); cx(4, 6); cx(7, 8);
  cx(2, 3); cx(4, 5); cx(6, 7);
  cx(3, 4); cx(5, 6);
}

/// Of ascending `v`, the 6th smallest |v[k] - v[5]| -- the order statistic
/// nth_element finds at size()/2 -- without a second sort.  Below the
/// median v[5], |v[k] - med| falls as k rises to 4, and from v[5] up it
/// rises, so the absolute deviations are two ascending 5-runs
/// A = (|v[4] - med|, ..., |v[0] - med|) and B = (|v[5] - med|, ...,
/// |v[9] - med|).  Their 6th smallest is min over i of max(A[i], B[4 - i]),
/// and A[i] = |v[4 - i] - med| pairs with B[4 - i] = |v[9 - i] - med|.
[[gnu::always_inline]] inline double madOfSortedTen(
    const std::array<double, 10>& v) {
  const double med = v[5];
  double mad = std::max(std::abs(v[0] - med), std::abs(v[5] - med));
  for (size_t k = 1; k < 5; ++k) {
    mad = std::min(mad, std::max(std::abs(v[k] - med),
                                 std::abs(v[k + 5] - med)));
  }
  return mad;
}

}  // namespace tagspin::core::hampel

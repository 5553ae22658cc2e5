// Permutation-producing sorts. Every organization that sorts (GCSR++,
// GCSC++, CSF, sorted COO) must report where each input point moved so the
// caller can reorganize the value buffer to match (the `map` vector of
// Algorithms 1-3).
//
// The parallel pipeline (parallel_sort_permutation & friends) chunk-sorts
// with per-thread std::stable_sort and merges pairwise with std::merge.
// Because a stable sort's output permutation is *uniquely* determined by
// the keys, every path here — serial fallback, any chunk count, the
// counting-sort shortcut — produces bit-identical results for any
// ARTSPARSE_THREADS value. That is the determinism contract the fragment
// serialization tests pin down.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/types.hpp"

namespace artsparse {

/// Stable-sorts indices [0, keys.size()) by ascending key and returns the
/// permutation: result[i] is the original index of the element now at rank i.
std::vector<std::size_t> sort_permutation(std::span<const index_t> keys);

/// Parallel stable sort of a contiguous array: per-chunk std::stable_sort
/// followed by pairwise std::merge passes (left range wins ties, so chunk
/// order — ascending original position — is preserved). Falls back to a
/// single stable_sort below kParallelGrain elements or with one worker.
template <typename T, typename Less>
void parallel_stable_sort(std::vector<T>& data, Less less,
                          unsigned threads = 0) {
  const std::size_t n = data.size();
  if (threads == 0) threads = worker_count();
  if (threads <= 1 || n < kParallelGrain) {
    std::stable_sort(data.begin(), data.end(), less);
    return;
  }
  const std::size_t chunks = std::min<std::size_t>(threads, n);
  const std::size_t width0 = (n + chunks - 1) / chunks;
  parallel_for_each(
      chunks,
      [&](std::size_t c) {
        const std::size_t lo = c * width0;
        const std::size_t hi = std::min(n, lo + width0);
        if (lo < hi) {
          std::stable_sort(data.begin() + static_cast<std::ptrdiff_t>(lo),
                           data.begin() + static_cast<std::ptrdiff_t>(hi),
                           less);
        }
      },
      threads, /*grain=*/1);

  // Pairwise merge passes, ping-ponging between `data` and a scratch
  // buffer. Each pair is independent, so passes fan out across workers.
  std::vector<T> scratch(n);
  T* src = data.data();
  T* dst = scratch.data();
  for (std::size_t width = width0; width < n; width *= 2) {
    const std::size_t pairs = (n + 2 * width - 1) / (2 * width);
    parallel_for_each(
        pairs,
        [&, width](std::size_t p) {
          const std::size_t lo = p * 2 * width;
          const std::size_t mid = std::min(n, lo + width);
          const std::size_t hi = std::min(n, lo + 2 * width);
          std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo,
                     less);
        },
        threads, /*grain=*/1);
    std::swap(src, dst);
  }
  if (src == scratch.data()) {
    std::copy(scratch.begin(), scratch.end(), data.begin());
  }
}

/// Parallel variant of sort_permutation for plain integer keys. Sorts
/// (key, index) pairs — the index tiebreak *is* stability — which trades
/// 2x transient memory for cache-friendly comparisons on large inputs.
std::vector<std::size_t> parallel_sort_permutation(
    std::span<const index_t> keys, unsigned threads = 0);

/// Converts a rank->original permutation (as returned by sort_permutation)
/// into the paper's `map` vector: map[original] == new position. The WRITE
/// function uses this to reorganize b_data (Algorithm 3 line 5).
std::vector<std::size_t> invert_permutation(
    std::span<const std::size_t> perm);

/// Gathers values into sorted order: out[i] = values[perm[i]].
template <typename T>
std::vector<T> apply_permutation(std::span<const T> values,
                                 std::span<const std::size_t> perm) {
  std::vector<T> out;
  out.reserve(values.size());
  for (std::size_t p : perm) {
    out.push_back(values[p]);
  }
  return out;
}

/// Parallel gather: out[i] = values[perm[i]], chunked across workers (each
/// output slot is written exactly once, so the result is thread-count
/// independent).
template <typename T>
std::vector<T> parallel_gather(std::span<const T> values,
                               std::span<const std::size_t> perm,
                               unsigned threads = 0) {
  std::vector<T> out(perm.size());
  parallel_for(
      0, perm.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = values[perm[i]];
        }
      },
      threads);
  return out;
}

/// Bucket pointer array for CSR/CSC packaging: ptr has `buckets + 1`
/// entries with ptr[b] = #keys < b (so [ptr[b], ptr[b+1]) delimits bucket
/// b). Every key must be < buckets. Histograms per-chunk in parallel for
/// large inputs, then prefix-sums serially over the bucket axis.
std::vector<index_t> histogram_prefix(std::span<const index_t> keys,
                                      std::size_t buckets,
                                      unsigned threads = 0);

/// Pointer array + stable permutation from one counting pass.
struct CountingSort {
  std::vector<index_t> ptr;       ///< histogram_prefix() of the keys
  std::vector<std::size_t> perm;  ///< == sort_permutation(keys), in O(n)
};

/// Stable counting sort by bucket key: O(n + buckets) replacement for
/// sort_permutation when keys are small integers, returning the *same*
/// permutation (counting sort is stable) plus the CSR/CSC pointer array —
/// no second pass over sorted data needed. Every key must be < buckets.
CountingSort counting_sort_permutation(std::span<const index_t> keys,
                                       std::size_t buckets,
                                       unsigned threads = 0);

/// Gate shared by the format builders: counting sort pays off while the
/// bucket axis stays comparable to the input size. Depends only on the
/// input (never on thread count), preserving build determinism.
inline bool counting_sort_applicable(std::size_t n, std::size_t buckets) {
  return buckets <= std::max<std::size_t>(n, std::size_t{1} << 16);
}

/// True when perm is a permutation of [0, perm.size()).
bool is_permutation_of_iota(std::span<const std::size_t> perm);

}  // namespace artsparse

#pragma once
// Small statistics helpers shared by benches and tests: mean, percentiles,
// quantiles, tail summaries.
//
// The CDF-heavy fig benches read many percentiles off the same sample set;
// the by-value overloads below copy and re-sort the whole vector per call.
// Hot callers should sort once with `sort_samples` and use the `_sorted`
// span variants, which are allocation- and copy-free. The by-value forms are
// kept as convenience wrappers for one-shot use.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "common/check.h"

namespace mccs {

inline double mean(std::span<const double> xs) {
  MCCS_EXPECTS(!xs.empty());
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

/// Sort a sample vector in place, readying it for the `_sorted` variants.
inline void sort_samples(std::vector<double>& xs) {
  std::sort(xs.begin(), xs.end());
}

/// Percentile with linear interpolation over an ALREADY SORTED sample span,
/// p in [0, 100]. No copy, no allocation.
inline double percentile_sorted(std::span<const double> xs, double p) {
  MCCS_EXPECTS(!xs.empty());
  MCCS_EXPECTS(p >= 0.0 && p <= 100.0);
  if (xs.size() == 1) return xs.front();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// One-shot percentile: copies and sorts. Prefer sort_samples +
/// percentile_sorted when reading several percentiles from one sample set.
inline double percentile(std::vector<double> xs, double p) {
  sort_samples(xs);
  return percentile_sorted(xs, p);
}

/// Generic quantile over an ALREADY SORTED span, q in [0, 1]. Same linear
/// interpolation as percentile_sorted (quantile_sorted(xs, q) ==
/// percentile_sorted(xs, 100 q)); the unit-interval form reads better when
/// the q itself is computed (tail sweeps, q = 1 - 10^-k ladders).
inline double quantile_sorted(std::span<const double> xs, double q) {
  MCCS_EXPECTS(!xs.empty());
  MCCS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (xs.size() == 1) return xs.front();
  // Compute the rank directly from q: routing through percentile_sorted(xs,
  // q * 100) lands in a different interpolation cell whenever q * 100 is not
  // exact (q = 0.29 -> p = 28.999999999999996, rank floor off by one).
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// One-shot quantile: copies and sorts.
inline double quantile(std::vector<double> xs, double q) {
  sort_samples(xs);
  return quantile_sorted(xs, q);
}

/// The tail trio the latency-facing benches headline. p999 needs >= 1000
/// samples before it reads past p99's neighbourhood — with fewer it still
/// interpolates correctly, just close to the max; callers decide sample
/// counts.
struct TailSummary {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Tail summary over an ALREADY SORTED span.
inline TailSummary tail_summary_sorted(std::span<const double> xs) {
  return TailSummary{percentile_sorted(xs, 50.0), percentile_sorted(xs, 99.0),
                     percentile_sorted(xs, 99.9)};
}

/// One-shot tail summary: copies and sorts.
inline TailSummary tail_summary(std::vector<double> xs) {
  sort_samples(xs);
  return tail_summary_sorted(xs);
}

}  // namespace mccs

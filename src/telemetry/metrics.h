#pragma once
// MetricsRegistry: the service-wide numeric-metrics half of the telemetry
// subsystem (DESIGN.md §9). Prometheus-shaped instruments — monotonic
// counters, last-value gauges, fixed-bucket histograms — keyed by a metric
// name plus a small label set (host / nic / gpu).
//
// Instruments are interned: the first lookup of a (name, labels) pair
// creates the instrument, later lookups return the same one, and handles
// stay valid for the registry's lifetime (heap storage, no reallocation).
// Engines therefore resolve their instruments once at construction and
// afterwards pay a single add on the hot path — cheap enough that the
// replaced ad-hoc counters (transport retry/stall counts, plan-cache hit
// rates) stay registry-backed even with the timeline disabled.
//
// Series carry fixed-hardware labels (a NIC, a GPU) or none, never a
// tenant's communicator: the registry is bounded by the fabric's size
// whatever the tenant churn, and a series, once interned, lives as long as
// the registry.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"

namespace mccs::telemetry {

/// Label set of one instrument. Order-insensitive: the registry sorts by key
/// on intern, so {a=1,b=2} and {b=2,a=1} name the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void increment(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with Prometheus `le` semantics: bucket i counts
/// observations <= bounds[i]; one implicit +inf bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) count; i == bounds().size() is +inf.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    MCCS_EXPECTS(i < counts_.size());
    return counts_[i];
  }

 private:
  std::vector<double> bounds_;  ///< ascending upper bounds
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Intern an instrument: same (name, labels) — in any label order —
  /// returns the same object; handles never move.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  /// `bounds` must be ascending, and must match the original bounds when
  /// re-interning an existing histogram.
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       Labels labels = {});

  /// Sum of a counter over every label set it was interned with (e.g. total
  /// transport retries across all NICs). 0 if the name is unknown.
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;
  /// Number of label sets a counter name was interned with.
  [[nodiscard]] std::size_t counter_series(std::string_view name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// The whole registry as one JSON object, deterministically ordered
  /// (sorted by name, then by label key/value).
  [[nodiscard]] std::string to_json() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;  ///< sorted by key
    std::unique_ptr<T> instrument;
  };

  // std::map keyed by "name\x1fk\x1ev\x1f..." gives stable iteration order
  // for the JSON export; values are heap-allocated so handles are stable.
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

}  // namespace mccs::telemetry

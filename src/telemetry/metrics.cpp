#include "telemetry/metrics.h"

#include <algorithm>

#include "telemetry/json.h"

namespace mccs::telemetry {
namespace {

void sort_labels(Labels& labels) {
  std::sort(labels.begin(), labels.end());
}

/// Intern key: name and sorted labels joined with control separators that
/// cannot appear in a sane metric name (and are harmless if they do — the
/// key is internal only).
std::string intern_key(std::string_view name, const Labels& sorted) {
  std::string key(name);
  for (const auto& [k, v] : sorted) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

void append_labels_json(std::string& out, const Labels& labels) {
  out += "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_escaped_json(out, k);
    out += "\":\"";
    append_escaped_json(out, v);
    out += "\"";
  }
  out += "}";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  MCCS_EXPECTS(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double v) {
  // Buckets are few and fixed; a linear scan beats binary search at the
  // typical 5-10 bounds and has no branch-misprediction cliff.
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += v;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  sort_labels(labels);
  const std::string key = intern_key(name, labels);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(key, Entry<Counter>{std::string(name), std::move(labels),
                                          std::make_unique<Counter>()})
             .first;
  }
  return *it->second.instrument;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  sort_labels(labels);
  const std::string key = intern_key(name, labels);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(key, Entry<Gauge>{std::string(name), std::move(labels),
                                        std::make_unique<Gauge>()})
             .first;
  }
  return *it->second.instrument;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds,
                                      Labels labels) {
  sort_labels(labels);
  const std::string key = intern_key(name, labels);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(key,
                      Entry<Histogram>{std::string(name), std::move(labels),
                                       std::make_unique<Histogram>(
                                           std::move(bounds))})
             .first;
  } else {
    MCCS_CHECK(it->second.instrument->bounds() == bounds,
               "histogram re-interned with different bucket bounds");
  }
  return *it->second.instrument;
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& [key, entry] : counters_) {
    if (entry.name == name) total += entry.instrument->value();
  }
  return total;
}

std::size_t MetricsRegistry::counter_series(std::string_view name) const {
  std::size_t n = 0;
  for (const auto& [key, entry] : counters_) {
    if (entry.name == name) ++n;
  }
  return n;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& [key, entry] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    append_escaped_json(out, entry.name);
    out += "\",\"labels\":";
    append_labels_json(out, entry.labels);
    out += ",\"value\":" + std::to_string(entry.instrument->value()) + "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, entry] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    append_escaped_json(out, entry.name);
    out += "\",\"labels\":";
    append_labels_json(out, entry.labels);
    out += ",\"value\":";
    append_double(out, entry.instrument->value());
    out += "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, entry] : histograms_) {
    if (!first) out += ",";
    first = false;
    const Histogram& h = *entry.instrument;
    out += "{\"name\":\"";
    append_escaped_json(out, entry.name);
    out += "\",\"labels\":";
    append_labels_json(out, entry.labels);
    out += ",\"count\":" + std::to_string(h.count());
    out += ",\"sum\":";
    append_double(out, h.sum());
    out += ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) out += ",";
      append_double(out, h.bounds()[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.bucket_count(i));
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace mccs::telemetry

#include "telemetry/timeline.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "telemetry/json.h"

namespace mccs::telemetry {
namespace {

void append_arg_value(std::string& out, const ArgValue& v) {
  if (const auto* c = std::get_if<const char*>(&v)) {
    out += "\"";
    append_escaped_json(out, *c);
    out += "\"";
  } else if (const auto* d = std::get_if<double>(&v)) {
    append_double(out, *d);
  } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
    out += std::to_string(*i);
  } else if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    out += std::to_string(*u);
  } else {
    out += std::get<bool>(v) ? "true" : "false";
  }
}

void append_event_prefix(std::string& out, bool& first) {
  if (!first) out += ",";
  first = false;
}

/// Microsecond timestamp in virtual time (the trace-event unit).
void append_ts(std::string& out, Time t) { append_double(out, t * 1e6); }

}  // namespace

bool Timeline::overwrite_same_keys(std::uint32_t at, const Arg* values,
                                   std::size_t n) {
  Arg* old = args_.data() + at;
  std::size_t same = 0;  // leading keys that match position by position
  while (same < n && old[same].key == values[same].key) ++same;
  if (same < n) {
    // The rest must hold the same keys in another order. Their address sums
    // differ for almost any other key set, which rejects it cheaply; sorted
    // by address, the two lists must then match position by position.
    std::uintptr_t old_sum = 0;
    std::uintptr_t new_sum = 0;
    for (std::size_t i = same; i < n; ++i) {
      old_sum += reinterpret_cast<std::uintptr_t>(old[i].key);
      new_sum += reinterpret_cast<std::uintptr_t>(values[i].key);
    }
    if (old_sum != new_sum) return false;
    key_scratch_.clear();
    for (std::size_t i = same; i < n; ++i) {
      key_scratch_.emplace_back(old[i].key, static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = same; i < n; ++i) {
      key_scratch_.emplace_back(values[i].key, static_cast<std::uint32_t>(i));
    }
    const auto by_key = [](const auto& a, const auto& b) {
      return std::less<const char*>{}(a.first, b.first);
    };
    const auto same_key = [](const auto& a, const auto& b) {
      return a.first == b.first;
    };
    const auto mid =
        key_scratch_.begin() + static_cast<std::ptrdiff_t>(n - same);
    std::sort(key_scratch_.begin(), mid, by_key);
    std::sort(mid, key_scratch_.end(), by_key);
    if (!std::equal(key_scratch_.begin(), mid, mid, key_scratch_.end(),
                    same_key)) {
      return false;
    }
    for (auto o = key_scratch_.begin(), v = mid; o != mid; ++o, ++v) {
      old[o->second].value = values[v->second].value;
    }
  }
  std::copy(values, values + same, old);
  return true;
}

int Timeline::track(std::string_view process, std::string_view thread) {
  std::string key(process);
  key += '\x1f';
  key += thread;
  auto it = track_by_key_.find(key);
  if (it != track_by_key_.end()) return it->second;

  auto pit = pid_by_process_.find(std::string(process));
  int pid;
  if (pit == pid_by_process_.end()) {
    pid = static_cast<int>(pid_by_process_.size()) + 1;
    pid_by_process_.emplace(std::string(process), pid);
  } else {
    pid = pit->second;
  }
  const int tid = ++next_tid_by_pid_[pid];

  const int handle = static_cast<int>(tracks_.size());
  tracks_.push_back(Track{std::string(process), std::string(thread), pid, tid});
  track_by_key_.emplace(std::move(key), handle);
  return handle;
}

void Timeline::append_chrome_events(std::string& out, int pid_base,
                                    bool& first) const {
  // Process/thread name metadata, once per process and per track.
  for (const auto& [process, pid] : pid_by_process_) {
    append_event_prefix(out, first);
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(pid_base + pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    append_escaped_json(out, process);
    out += "\"}}";
  }
  for (const Track& t : tracks_) {
    append_event_prefix(out, first);
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    out += std::to_string(pid_base + t.pid);
    out += ",\"tid\":";
    out += std::to_string(t.tid);
    out += ",\"args\":{\"name\":\"";
    append_escaped_json(out, t.thread);
    out += "\"}}";
  }

  const auto append_args = [this, &out](const Event& e) {
    out += "{";
    for (std::uint32_t i = e.args_begin; i < e.args_end; ++i) {
      if (i != e.args_begin) out += ",";
      out += "\"";
      append_escaped_json(out, args_[i].key);
      out += "\":";
      append_arg_value(out, args_[i].value);
    }
    out += "}";
  };

  std::uint64_t next_span_id = 1;
  for (const Event& e : events_) {
    const Track& t = tracks_[static_cast<std::size_t>(e.track)];
    const std::string pid = std::to_string(pid_base + t.pid);
    const std::string tid = std::to_string(t.tid);
    switch (e.kind) {
      case Kind::kSpan: {
        // Async begin/end pair: overlapping spans on one track are legal.
        const std::uint64_t id = next_span_id++;
        append_event_prefix(out, first);
        out += "{\"ph\":\"b\",\"cat\":\"";
        append_escaped_json(out, e.cat);
        out += "\",\"name\":\"";
        append_escaped_json(out, e.name);
        out += "\",\"id\":" + std::to_string(id);
        out += ",\"pid\":" + pid + ",\"tid\":" + tid + ",\"ts\":";
        append_ts(out, e.begin);
        out += ",\"args\":";
        append_args(e);
        out += "}";
        append_event_prefix(out, first);
        out += "{\"ph\":\"e\",\"cat\":\"";
        append_escaped_json(out, e.cat);
        out += "\",\"name\":\"";
        append_escaped_json(out, e.name);
        out += "\",\"id\":" + std::to_string(id);
        out += ",\"pid\":" + pid + ",\"tid\":" + tid + ",\"ts\":";
        append_ts(out, e.end);
        out += "}";
        break;
      }
      case Kind::kInstant: {
        append_event_prefix(out, first);
        out += "{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"";
        append_escaped_json(out, e.cat);
        out += "\",\"name\":\"";
        append_escaped_json(out, e.name);
        out += "\",\"pid\":" + pid + ",\"tid\":" + tid + ",\"ts\":";
        append_ts(out, e.begin);
        out += ",\"args\":";
        append_args(e);
        out += "}";
        break;
      }
      case Kind::kCounter: {
        append_event_prefix(out, first);
        out += "{\"ph\":\"C\",\"name\":\"";
        append_escaped_json(out, e.name);
        out += "\",\"pid\":" + pid + ",\"tid\":" + tid + ",\"ts\":";
        append_ts(out, e.begin);
        out += ",\"args\":";
        append_args(e);
        out += "}";
        break;
      }
    }
  }
}

std::string Timeline::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  append_chrome_events(out, 0, first);
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::size_t Timeline::approximate_bytes() const {
  std::size_t bytes = events_.capacity() * sizeof(Event) +
                      args_.capacity() * sizeof(Arg);
  for (const Track& t : tracks_) {
    bytes += t.process.capacity() + t.thread.capacity();
  }
  return bytes;
}

void Timeline::reserve(std::size_t events, std::size_t args_per_event) {
  if (!events_.empty() || !args_.empty()) return;
  if (events_.capacity() < events) {
    events_.resize(events);  // resize (not reserve) to fault the pages in
    events_.clear();
  }
  const std::size_t args = events * args_per_event;
  if (args_.capacity() < args) {
    args_.resize(args);
    args_.clear();
  }
}

void Timeline::clear() {
  events_.clear();
  args_.clear();
}

}  // namespace mccs::telemetry

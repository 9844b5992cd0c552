#pragma once
// Virtual-time span/event timeline, exported as Chrome trace-event JSON (the
// legacy "traceEvents" format Perfetto and chrome://tracing load directly).
//
// Tracks map the service's layers onto the viewer's process/thread axes: a
// track is a (process name, thread name) pair, interned once and addressed
// by a small integer afterwards. Events reference tracks by that handle, so
// the hot recording path does no string hashing.
//
// Spans are recorded on completion (begin and end both known) and exported
// as async begin/end pairs ("ph":"b"/"e") with a per-span id — collective
// launches, chunk sends, and network flows all overlap freely on one track,
// which nestable async events represent faithfully where complete ("X")
// events would imply a call-stack nesting that does not exist.
//
// Recording is designed to be allocation-free per event: events are POD
// rows, their arguments live in one shared arena, and category / name /
// argument-key strings are retained BY POINTER. Callers therefore pass
// string literals (or storage that outlives the timeline) for those — the
// engines' call sites all do; dynamic strings appear only as interned track
// names and as std::string argument *values*.
//
// Timestamps convert virtual seconds to the format's microsecond unit at
// export; values are serialized shortest-round-trip (telemetry/json.h).

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace mccs::telemetry {

/// One span/instant argument value. String values are retained as pointers
/// to constants outliving the timeline; keeping every alternative trivial
/// makes Arg trivially copyable, so recording an event is a handful of
/// stores and vector growth is a memcpy.
using ArgValue =
    std::variant<const char*, double, std::int64_t, std::uint64_t, bool>;

/// One argument. The key must outlive the timeline (a string literal).
struct Arg {
  const char* key;
  ArgValue value;
};
static_assert(std::is_trivially_copyable_v<Arg>);

class Timeline {
 public:
  /// "No prior sample" sentinel for counter() coalescing.
  static constexpr std::size_t kNoSample = std::numeric_limits<std::size_t>::max();

  /// Intern a (process, thread) track; returns a stable handle.
  int track(std::string_view process, std::string_view thread);

  /// A completed span [begin, end] on a track (async begin/end pair).
  /// `cat` and `name` are retained by pointer — literals / static storage.
  /// Inline: this is the datapath engines' per-event recording cost.
  void span(int track, const char* cat, const char* name, Time begin, Time end,
            std::initializer_list<Arg> args = {}) {
    MCCS_ASSERT(track >= 0 && static_cast<std::size_t>(track) < tracks_.size());
    MCCS_ASSERT(end >= begin);
    const auto args_begin = static_cast<std::uint32_t>(args_.size());
    const std::uint32_t args_end = push_args(args);
    events_.push_back(
        Event{Kind::kSpan, track, cat, name, begin, end, args_begin, args_end});
  }

  /// A zero-duration instant event (policy decisions, failures, retries).
  void instant(int track, const char* cat, const char* name, Time t,
               std::initializer_list<Arg> args = {}) {
    MCCS_ASSERT(track >= 0 && static_cast<std::size_t>(track) < tracks_.size());
    const auto args_begin = static_cast<std::uint32_t>(args_.size());
    const std::uint32_t args_end = push_args(args);
    events_.push_back(
        Event{Kind::kInstant, track, cat, name, t, t, args_begin, args_end});
  }

  /// A counter sample (rendered as a stacked area chart per counter name).
  /// Returns the sample's event index. If `coalesce` names a counter event
  /// recorded at the same timestamp with the same arity, its values are
  /// overwritten in place instead (burst coalescing: only the final rates of
  /// a same-virtual-instant reallocation cascade survive) — pass the
  /// previous sample's index, or kNoSample for none.
  std::size_t counter(int track, const char* name, Time t,
                      std::initializer_list<Arg> values,
                      std::size_t coalesce = kNoSample) {
    return counter(track, name, t, values.begin(), values.end(), coalesce);
  }

  /// Range form of counter() for samples whose series set is only known at
  /// run time (e.g. the changed links of one reallocation, batched into a
  /// single event). Coalescing additionally requires the previous sample to
  /// carry the same keys, so a burst touching a different link set appends
  /// rather than erasing the earlier links' values. The keys may come in any
  /// order (a caller lists them as it finds them); a coalesced sample keeps
  /// the previous sample's key order.
  std::size_t counter(int track, const char* name, Time t, const Arg* begin,
                      const Arg* end, std::size_t coalesce = kNoSample) {
    MCCS_ASSERT(track >= 0 && static_cast<std::size_t>(track) < tracks_.size());
    const auto n = static_cast<std::size_t>(end - begin);
    if (coalesce < events_.size()) {
      const Event& prev = events_[coalesce];
      if (prev.kind == Kind::kCounter && prev.begin == t &&
          prev.track == track && prev.name == name &&
          prev.args_end - prev.args_begin == n &&
          overwrite_same_keys(prev.args_begin, begin, n)) {
        return coalesce;
      }
    }
    const auto args_begin = static_cast<std::uint32_t>(args_.size());
    args_.insert(args_.end(), begin, end);
    const auto args_end = static_cast<std::uint32_t>(args_.size());
    events_.push_back(
        Event{Kind::kCounter, track, nullptr, name, t, t, args_begin, args_end});
    return events_.size() - 1;
  }

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  [[nodiscard]] std::size_t track_count() const { return tracks_.size(); }

  /// Append this timeline's events (plus process/thread metadata) to a
  /// Chrome trace-event array body. `first` tracks comma placement across
  /// multiple appenders writing into the same array; `pid_base` offsets this
  /// timeline's process ids so independent timelines can share one file.
  void append_chrome_events(std::string& out, int pid_base, bool& first) const;

  /// This timeline alone as a complete Chrome trace JSON document.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Approximate retained size, for overhead accounting in benches.
  [[nodiscard]] std::size_t approximate_bytes() const;

  /// Preallocate and fault in capacity for about `events` events with
  /// `args_per_event` arguments each, so recording up to that volume pays
  /// neither allocator growth nor first-touch page faults. The buffers are
  /// touched by resizing, so this only grows capacity while the timeline is
  /// empty (the enable-time case); on a non-empty timeline it is a no-op.
  void reserve(std::size_t events, std::size_t args_per_event);

  void clear();

 private:
  enum class Kind : std::uint8_t { kSpan, kInstant, kCounter };

  struct Event {
    Kind kind;
    int track;
    const char* cat;   ///< not owned; nullptr for counters
    const char* name;  ///< not owned
    Time begin = 0.0;
    Time end = 0.0;  ///< spans only
    std::uint32_t args_begin = 0;  ///< range into args_
    std::uint32_t args_end = 0;
  };

  struct Track {
    std::string process;
    std::string thread;
    int pid;
    int tid;
  };

  std::uint32_t push_args(std::initializer_list<Arg> args) {
    args_.insert(args_.end(), args.begin(), args.end());
    return static_cast<std::uint32_t>(args_.size());
  }

  /// If `values` carries the same keys as the `n` args at `at`, in any
  /// order, write its values over them, each under its own key, and return
  /// true; otherwise change nothing and return false.
  bool overwrite_same_keys(std::uint32_t at, const Arg* values, std::size_t n);

  std::vector<Track> tracks_;
  std::unordered_map<std::string, int> track_by_key_;
  std::unordered_map<std::string, int> pid_by_process_;
  std::unordered_map<int, int> next_tid_by_pid_;
  std::vector<Event> events_;
  std::vector<Arg> args_;  ///< shared argument arena
  /// overwrite_same_keys' (key, position) pairs: the old keys, then the new.
  std::vector<std::pair<const char*, std::uint32_t>> key_scratch_;
};

}  // namespace mccs::telemetry

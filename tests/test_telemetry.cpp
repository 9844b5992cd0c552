// Telemetry subsystem tests: registry label interning and aggregation,
// histogram bucket edges, lossless double serialization, JSON string
// escaping, Chrome trace-event export validity (parsed back with a real
// JSON parser), disabled-mode non-interference, and the linear-time trace
// bookkeeping regression (the launch path must not rescan the trace).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "helpers.h"
#include "mccs/fabric.h"
#include "mccs/trace_export.h"
#include "policy/controller.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"
#include "workload/fault_plan.h"

namespace mccs {
namespace {

using coll::DataType;
using coll::ReduceOp;
using svc::Fabric;
using test::await;
using test::create_comm;
using test::make_ranks;

// --- a small strict JSON parser ----------------------------------------------------
//
// The exporters are hand-rolled, so the tests parse their output with an
// independent recursive-descent parser: any missing comma, unescaped quote,
// or truncated number fails the round trip loudly.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< raw digits for kNumber, decoded text for kString
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    auto it = fields.find(key);
    if (it == fields.end()) {
      ADD_FAILURE() << "missing key: " << key;
      static const JsonValue none;
      return none;
    }
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return fields.count(key) != 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    pos_ = s_.size();  // unwind
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) {
      fail("unexpected end");
      return '\0';
    }
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", boolean(true));
      case 'f': return literal("false", boolean(false));
      case 'n': return literal("null", JsonValue{});
      default: return number();
    }
  }

  static JsonValue boolean(bool b) {
    JsonValue v;
    v.kind = JsonValue::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue literal(std::string_view lit, JsonValue v) {
    if (s_.substr(pos_, lit.size()) != lit) fail("bad literal");
    pos_ += lit.size();
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("bad number");
      return {};
    }
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.text = std::string(s_.substr(start, pos_ - start));
    v.number = std::strtod(v.text.c_str(), nullptr);
    return v;
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::kString;
    v.text = raw_string();
    return v;
  }

  std::string raw_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) {
        fail("dangling escape");
        return out;
      }
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("short \\u escape");
            return out;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else { fail("bad \\u escape"); return out; }
          }
          // The exporters only emit \u00XX (control characters).
          out += static_cast<char>(code & 0xFF);
          break;
        }
        default: fail("unknown escape"); return out;
      }
    }
    expect('"');
    return out;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = raw_string();
      skip_ws();
      expect(':');
      v.fields.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string error_;
};

JsonValue parse_json(std::string_view s) {
  JsonParser p(s);
  JsonValue v = p.parse();
  EXPECT_TRUE(p.ok()) << p.error();
  return v;
}

// --- metrics registry ----------------------------------------------------------

TEST(TelemetryRegistry, CounterInterningIsLabelOrderInsensitive) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter& a = reg.counter("retries", {{"host", "0"}, {"nic", "1"}});
  telemetry::Counter& b = reg.counter("retries", {{"nic", "1"}, {"host", "0"}});
  EXPECT_EQ(&a, &b);
  a.increment(3);
  EXPECT_EQ(b.value(), 3u);

  telemetry::Counter& other = reg.counter("retries", {{"host", "0"}, {"nic", "2"}});
  EXPECT_NE(&a, &other);
  other.increment();
  EXPECT_EQ(reg.counter_total("retries"), 4u);
  EXPECT_EQ(reg.counter_series("retries"), 2u);
  EXPECT_EQ(reg.counter_total("no_such_metric"), 0u);
  EXPECT_EQ(reg.counter_series("no_such_metric"), 0u);
}

TEST(TelemetryRegistry, GaugeAndHandleStability) {
  telemetry::MetricsRegistry reg;
  telemetry::Gauge& g = reg.gauge("util", {{"link", "3"}});
  // Interning many more instruments must not move existing handles.
  for (int i = 0; i < 200; ++i) {
    reg.counter("filler", {{"i", std::to_string(i)}});
  }
  telemetry::Gauge& again = reg.gauge("util", {{"link", "3"}});
  EXPECT_EQ(&g, &again);
  g.set(0.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(again.value(), 0.75);
}

TEST(TelemetryRegistry, HistogramBucketEdges) {
  telemetry::MetricsRegistry reg;
  telemetry::Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0});
  // Prometheus `le` semantics: a value equal to a bound lands in that bound's
  // bucket, the first value past the last bound lands in +inf.
  h.observe(0.5);  // <= 1
  h.observe(1.0);  // <= 1 (edge)
  h.observe(1.5);  // <= 2
  h.observe(2.0);  // <= 2 (edge)
  h.observe(4.0);  // <= 4 (edge)
  h.observe(4.000001);  // +inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.000001);
}

TEST(TelemetryRegistry, ToJsonParsesBack) {
  telemetry::MetricsRegistry reg;
  reg.counter("hits", {{"comm", "1"}}).increment(7);
  reg.gauge("depth").set(2.5);
  reg.histogram("lat_us", {10.0, 100.0}).observe(42.0);
  const JsonValue v = parse_json(reg.to_json());
  ASSERT_EQ(v.kind, JsonValue::kObject);
  EXPECT_TRUE(v.has("counters"));
  EXPECT_TRUE(v.has("gauges"));
  EXPECT_TRUE(v.has("histograms"));
}

// --- JSON primitives -----------------------------------------------------------

TEST(TelemetryJson, DoubleSerializationRoundTripsBitwise) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0 / 3.0,
                          0.1,
                          32.6554,
                          123456789.123456789,
                          1e-300,
                          -2.5e300,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::epsilon()};
  for (const double v : cases) {
    const std::string s = telemetry::format_double(v);
    const double back = std::strtod(s.c_str(), nullptr);
    std::uint64_t vb = 0, bb = 0;
    std::memcpy(&vb, &v, sizeof v);
    std::memcpy(&bb, &back, sizeof back);
    EXPECT_EQ(vb, bb) << "lossy round trip: " << s;
  }
  // JSON has no NaN/Inf — they must degrade to null, not invalid tokens.
  EXPECT_EQ(telemetry::format_double(std::nan("")), "null");
  EXPECT_EQ(telemetry::format_double(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(TelemetryJson, EscapesHostileStrings) {
  const std::string hostile =
      "quote:\" backslash:\\ newline:\n tab:\t cr:\r bell:\x01 del:\x1f";
  std::string doc = "{\"k\":\"";
  telemetry::append_escaped_json(doc, hostile);
  doc += "\"}";
  const JsonValue v = parse_json(doc);
  ASSERT_EQ(v.at("k").kind, JsonValue::kString);
  EXPECT_EQ(v.at("k").text, hostile);  // decoding inverts the escaping

  EXPECT_EQ(telemetry::escape_json("a\"b"), "a\\\"b");
  EXPECT_EQ(telemetry::escape_json("a\\b"), "a\\\\b");
  EXPECT_EQ(telemetry::escape_json("\n"), "\\n");
  EXPECT_EQ(telemetry::escape_json(std::string_view("\x00z", 2)), "\\u0000z");
  EXPECT_EQ(telemetry::escape_json("héllo"), "héllo");  // UTF-8 passes through
}

TEST(TelemetryJson, TraceRecordExportSurvivesParsing) {
  svc::TraceRecord r;
  r.app = AppId{3};
  r.comm = CommId{7};
  r.rank = 1;
  r.seq = 42;
  r.bytes = 4096;
  r.issued = 1.0 / 3.0;  // a value a fixed-precision printf would corrupt
  r.launched = r.issued + 1e-9;
  r.started = r.launched;
  r.completed = 0.125;
  const JsonValue v = parse_json(svc::trace_record_to_json(r));
  EXPECT_EQ(v.at("seq").number, 42.0);
  const double issued = std::strtod(v.at("issued").text.c_str(), nullptr);
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, &issued, sizeof issued);
  std::memcpy(&b, &r.issued, sizeof r.issued);
  EXPECT_EQ(a, b);
}

// --- timeline ------------------------------------------------------------------

TEST(TelemetryTimeline, ChromeTraceExportIsValidAndPaired) {
  telemetry::Timeline tl;
  const int t0 = tl.track("proc a", "thread 1");
  const int t1 = tl.track("proc a", "thread 2");
  const int t2 = tl.track("proc b", "thread 1");
  EXPECT_EQ(tl.track("proc a", "thread 1"), t0);  // interned
  EXPECT_EQ(tl.track_count(), 3u);

  tl.span(t0, "catA", "op", 1e-6, 3e-6,
          {{"bytes", std::uint64_t{4096}}, {"ok", true}});
  tl.span(t1, "catA", "op2", 2e-6, 2e-6);  // zero-length is legal
  tl.instant(t2, "catB", "decision", 1.5e-6, {{"score", 0.25}});
  tl.counter(t2, "gbps", 2e-6, {{"link0", 12.5}});

  const JsonValue v = parse_json(tl.chrome_trace_json());
  const JsonValue& events = v.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);

  std::map<double, int> begins, ends;  // async span ids must pair up
  int instants = 0, counters = 0, metadata = 0;
  for (const JsonValue& e : events.items) {
    const std::string ph = e.at("ph").text;
    if (ph == "b") ++begins[e.at("id").number];
    if (ph == "e") ++ends[e.at("id").number];
    if (ph == "i") ++instants;
    if (ph == "C") ++counters;
    if (ph == "M") ++metadata;
  }
  EXPECT_EQ(begins.size(), 2u);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
  // process_name per process + thread_name per track.
  EXPECT_EQ(metadata, 2 + 3);
}

TEST(TelemetryTimeline, HostileTrackNamesStayValidJson) {
  telemetry::Timeline tl;
  const int t = tl.track("evil \"proc\"\n", "thread \\ \x02");
  tl.span(t, "cat", "name", 0.0, 1.0);
  const JsonValue v = parse_json(tl.chrome_trace_json());
  bool found = false;
  for (const JsonValue& e : v.at("traceEvents").items) {
    if (e.at("ph").text == "M" && e.at("name").text == "process_name") {
      found |= e.at("args").at("name").text == "evil \"proc\"\n";
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryTimeline, CounterCoalescingKeepsLastSampleOfBurst) {
  telemetry::Timeline tl;
  const int t = tl.track("netsim", "links");
  static const char* k0 = "link0";
  static const char* k1 = "link1";

  std::size_t s = telemetry::Timeline::kNoSample;
  s = tl.counter(t, "gbps", 1e-6, {{k0, 1.0}}, s);
  EXPECT_EQ(tl.event_count(), 1u);
  // Same instant, same key set: overwritten in place.
  s = tl.counter(t, "gbps", 1e-6, {{k0, 2.0}}, s);
  EXPECT_EQ(tl.event_count(), 1u);
  // Same instant, different key set: must append (coalescing would silently
  // drop link0's final value).
  s = tl.counter(t, "gbps", 1e-6, {{k1, 3.0}}, s);
  EXPECT_EQ(tl.event_count(), 2u);
  // Later instant: appends.
  s = tl.counter(t, "gbps", 2e-6, {{k1, 4.0}}, s);
  EXPECT_EQ(tl.event_count(), 3u);

  const JsonValue v = parse_json(tl.chrome_trace_json());
  std::vector<double> link0_values;
  for (const JsonValue& e : v.at("traceEvents").items) {
    if (e.at("ph").text == "C" && e.at("args").has("link0")) {
      link0_values.push_back(e.at("args").at("link0").number);
    }
  }
  ASSERT_EQ(link0_values.size(), 1u);
  EXPECT_DOUBLE_EQ(link0_values[0], 2.0);  // only the burst's last value
}

TEST(TelemetryTimeline, CounterCoalescingMatchesKeysInAnyOrder) {
  telemetry::Timeline tl;
  const int t = tl.track("netsim", "links");
  static const char* k0 = "link0";
  static const char* k1 = "link1";
  static const char* k2 = "link2";
  const telemetry::Arg first[] = {{k0, 1.0}, {k1, 2.0}, {k2, 3.0}};
  const telemetry::Arg permuted[] = {{k2, 30.0}, {k0, 10.0}, {k1, 20.0}};
  const telemetry::Arg other[] = {{k2, 4.0}, {k0, 5.0}, {"link3", 6.0}};

  std::size_t s = tl.counter(t, "gbps", 1e-6, std::begin(first),
                             std::end(first), telemetry::Timeline::kNoSample);
  // Same instant, same keys in another order: overwritten in place, each
  // value under its own key, in the first sample's key order.
  s = tl.counter(t, "gbps", 1e-6, std::begin(permuted), std::end(permuted), s);
  EXPECT_EQ(tl.event_count(), 1u);
  // Same instant and arity, another key set: appends.
  s = tl.counter(t, "gbps", 1e-6, std::begin(other), std::end(other), s);
  EXPECT_EQ(tl.event_count(), 2u);

  const std::string json = tl.chrome_trace_json();
  const JsonValue v = parse_json(json);
  std::map<std::string, double> merged;
  for (const JsonValue& e : v.at("traceEvents").items) {
    if (e.at("ph").text != "C" || e.at("args").has("link3")) continue;
    for (const auto& [key, value] : e.at("args").fields) {
      merged[key] = value.number;
    }
  }
  const std::map<std::string, double> expected{
      {"link0", 10.0}, {"link1", 20.0}, {"link2", 30.0}};
  EXPECT_EQ(merged, expected);
  // The merged sample is exported first, in its original key order.
  EXPECT_LT(json.find("\"link0\""), json.find("\"link1\""));
  EXPECT_LT(json.find("\"link1\""), json.find("\"link2\""));
}

TEST(TelemetryTimeline, ReserveIsIdempotentAndKeepsRecordsIntact) {
  telemetry::Timeline tl;
  tl.reserve(1024, 4);
  const int t = tl.track("p", "t");
  tl.span(t, "c", "n", 0.0, 1.0, {{"k", std::int64_t{1}}});
  const std::size_t cap = tl.approximate_bytes();
  tl.reserve(1u << 20, 8);  // non-empty: must be a no-op, not a wipe
  EXPECT_EQ(tl.event_count(), 1u);
  EXPECT_EQ(tl.approximate_bytes(), cap);
}

// --- service integration -------------------------------------------------------

/// micro_recovery's scenario: stall detection on, zero retry budget, a
/// controller with fault recovery attached, and a fabric uplink killed
/// mid-collective.
svc::Fabric::Options recovery_options() {
  svc::Fabric::Options opt;
  opt.config.chunk_deadline_slack = 4.0;
  opt.config.chunk_deadline_floor = micros(100);
  opt.config.transport_max_retries = 0;
  return opt;
}

LinkId first_fabric_uplink(const cluster::Cluster& cl) {
  const net::Topology& topo = cl.topology();
  const NodeId nic0 = cl.host(HostId{0}).nic_nodes[0];
  const NodeId leaf = topo.link(topo.out_links(nic0).front()).dst;
  for (LinkId l : topo.out_links(leaf)) {
    if (topo.node(topo.link(l).dst).kind == net::NodeKind::kSpineSwitch) {
      return l;
    }
  }
  return LinkId{};
}

/// Drives the recovery scenario and returns per-rank completion times.
std::vector<Time> run_recovery_scenario(Fabric& fabric) {
  policy::Controller controller(fabric);
  controller.attach();
  controller.enable_fault_recovery();

  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{2}, GpuId{4}, GpuId{6}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 1u << 18;  // 1 MiB: keeps transfers in flight
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
    auto s = fabric.gpus().typed<float>(buf[r], count);
    for (auto& x : s) x = 1.0f;
  }
  std::vector<Time> completions(gpus.size(), 0.0);
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&completions, &remaining, r](Time t) {
                                completions[r] = t;
                                --remaining;
                              });
  }
  const LinkId victim = first_fabric_uplink(fabric.cluster());
  EXPECT_TRUE(victim.valid());
  workload::FaultPlan plan;
  plan.link_down(micros(300), victim);
  plan.schedule(fabric);
  EXPECT_TRUE(await(fabric, remaining));
  return completions;
}

TEST(TelemetryService, RecoveryTraceHasSpansFromAllLayersAndRecoveryEvents) {
  Fabric fabric{cluster::make_testbed(), recovery_options()};
  fabric.telemetry().set_enabled(true);
  run_recovery_scenario(fabric);

  const std::string trace = svc::chrome_trace_json(fabric);
  const JsonValue v = parse_json(trace);

  std::set<std::string> span_cats;
  std::set<std::string> instant_names;
  int link_counter_samples = 0;
  for (const JsonValue& e : v.at("traceEvents").items) {
    const std::string ph = e.at("ph").text;
    if (ph == "b") span_cats.insert(e.at("cat").text);
    if (ph == "i") instant_names.insert(e.at("name").text);
    if (ph == "C" && e.at("name").text == "link_gbps") ++link_counter_samples;
  }
  // Spans from all four layers, plus the proxy records merged at export.
  EXPECT_TRUE(span_cats.count("frontend")) << "missing frontend spans";
  EXPECT_TRUE(span_cats.count("proxy")) << "missing proxy spans";
  EXPECT_TRUE(span_cats.count("transport")) << "missing transport spans";
  EXPECT_TRUE(span_cats.count("netsim")) << "missing netsim flow spans";
  EXPECT_TRUE(span_cats.count("policy")) << "missing policy recovery spans";
  // Policy decisions and recovery actions as instants.
  EXPECT_TRUE(instant_names.count("ffa_assign") ||
              instant_names.count("pfa_assign"))
      << "missing flow-assignment instants";
  EXPECT_TRUE(instant_names.count("stall_report"))
      << "missing transport stall escalation instant";
  EXPECT_GT(link_counter_samples, 0);
}

TEST(TelemetryService, DisabledModeIsBitwiseIdenticalAndRecordsNothing) {
  std::vector<Time> with, without;
  {
    Fabric fabric{cluster::make_testbed(), recovery_options()};
    without = run_recovery_scenario(fabric);
    EXPECT_EQ(fabric.telemetry().timeline().event_count(), 0u);
    // The registry stays live in disabled mode: the replaced ad-hoc
    // counters (retries, escalations) still count.
    EXPECT_GT(fabric.telemetry().metrics().counter_total("transport_escalations"),
              0u);
  }
  {
    Fabric fabric{cluster::make_testbed(), recovery_options()};
    fabric.telemetry().set_enabled(true);
    with = run_recovery_scenario(fabric);
    EXPECT_GT(fabric.telemetry().timeline().event_count(), 0u);
  }
  ASSERT_EQ(with.size(), without.size());
  EXPECT_EQ(0, std::memcmp(with.data(), without.data(),
                           with.size() * sizeof(Time)))
      << "telemetry perturbed the simulation";
}

TEST(TelemetryService, SnapshotEndpointParsesAndCoversSubsystems) {
  Fabric fabric{cluster::make_testbed()};
  fabric.telemetry().set_enabled(true);
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{1}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 256;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
  }
  int remaining = static_cast<int>(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    ranks[r].shim->all_reduce(comm, buf[r], buf[r], count, DataType::kFloat32,
                              ReduceOp::kSum, *ranks[r].stream,
                              [&remaining](Time) { --remaining; });
  }
  ASSERT_TRUE(await(fabric, remaining));

  const JsonValue v = parse_json(fabric.telemetry_snapshot());
  ASSERT_EQ(v.kind, JsonValue::kObject);
  EXPECT_TRUE(v.has("time"));
  EXPECT_EQ(v.at("pending_events").number,
            static_cast<double>(fabric.loop().size()));
  EXPECT_TRUE(v.has("metrics"));
  EXPECT_TRUE(v.has("comms"));
  const JsonValue& links = v.at("links");
  ASSERT_EQ(links.kind, JsonValue::kArray);
  ASSERT_FALSE(links.items.empty());
  EXPECT_TRUE(links.items[0].has("bytes"));
  EXPECT_TRUE(links.items[0].has("state"));
  ASSERT_EQ(v.at("comms").kind, JsonValue::kArray);
  ASSERT_EQ(v.at("comms").items.size(), 1u);
  // Each rank carries its own plan-cache counts, as plan_cache_stats reads.
  const JsonValue& rank_entries = v.at("comms").items[0].at("ranks");
  ASSERT_EQ(rank_entries.items.size(), gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    const JsonValue& rank = rank_entries.items[r];
    const svc::CollPlanCache::Stats st =
        fabric.proxy_for(gpus[r]).plan_cache_stats(comm);
    EXPECT_EQ(rank.at("gpu").number, static_cast<double>(gpus[r].get()));
    EXPECT_EQ(rank.at("plan_hits").number, static_cast<double>(st.hits));
    EXPECT_EQ(rank.at("plan_misses").number, static_cast<double>(st.misses));
    EXPECT_EQ(rank.at("plan_invalidations").number,
              static_cast<double>(st.invalidations));
  }
}

TEST(TraceExport, ManagementSnapshotListsEveryCommunicator) {
  // The snapshot's comms entries are the provider's one communicator view:
  // placement, installed strategy and per-rank progress.
  Fabric fabric{cluster::make_testbed()};
  create_comm(fabric, AppId{1}, {GpuId{0}, GpuId{4}});
  create_comm(fabric, AppId{2}, {GpuId{1}, GpuId{5}});
  const JsonValue v = parse_json(fabric.telemetry_snapshot());
  const JsonValue& comms = v.at("comms");
  ASSERT_EQ(comms.kind, JsonValue::kArray);
  ASSERT_EQ(comms.items.size(), 2u);
  for (std::size_t c = 0; c < comms.items.size(); ++c) {
    const JsonValue& comm = comms.items[c];
    EXPECT_EQ(comm.at("id").number, static_cast<double>(c));
    EXPECT_EQ(comm.at("algorithm").text, "ring");
    const JsonValue& orders = comm.at("channel_orders");
    ASSERT_EQ(orders.kind, JsonValue::kArray);
    ASSERT_FALSE(orders.items.empty());
    const JsonValue& first = orders.items[0];
    ASSERT_EQ(first.items.size(), 2u);
    EXPECT_EQ(first.items[0].number, 0.0);
    EXPECT_EQ(first.items[1].number, 1.0);
    EXPECT_EQ(comm.at("explicit_routes").number, 0.0);
  }
}

// --- trace bookkeeping regression ---------------------------------------------

TEST(TelemetryTraceIndex, TenThousandCollectivesStayLinear) {
  // The launch path must locate its TraceRecord by the index captured at
  // issue time, not by scanning the trace backwards (the old scan made a
  // long-running communicator quadratic: 10k collectives = 10^8 record
  // visits). With the index this finishes in a few seconds; the await's
  // wall-clock deadline fails the test if the quadratic behavior returns.
  Fabric fabric{cluster::make_testbed()};
  const AppId app{1};
  const std::vector<GpuId> gpus{GpuId{0}, GpuId{1}};
  const CommId comm = create_comm(fabric, app, gpus);
  auto ranks = make_ranks(fabric, app, gpus);
  const std::size_t count = 16;
  std::vector<gpu::DevicePtr> buf(gpus.size());
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    buf[r] = ranks[r].shim->alloc(count * sizeof(float));
  }

  constexpr int kTotal = 10000;
  constexpr int kBatch = 100;  // stays inside the bounded IPC command ring
  for (int done = 0; done < kTotal; done += kBatch) {
    int remaining = kBatch * static_cast<int>(gpus.size());
    for (int i = 0; i < kBatch; ++i) {
      for (std::size_t r = 0; r < gpus.size(); ++r) {
        ranks[r].shim->all_reduce(comm, buf[r], buf[r], count,
                                  DataType::kFloat32, ReduceOp::kSum,
                                  *ranks[r].stream,
                                  [&remaining](Time) { --remaining; });
      }
    }
    ASSERT_TRUE(await(fabric, remaining));
  }

  const std::vector<svc::TraceRecord> trace = fabric.trace_all();
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(kTotal) * gpus.size());
  std::uint64_t expected_seq = 0;
  int rank = -1;
  for (const svc::TraceRecord& r : trace) {
    if (r.rank != rank) {
      rank = r.rank;
      expected_seq = r.seq;
    }
    EXPECT_EQ(r.seq, expected_seq++);
    EXPECT_GE(r.launched, r.issued);
    EXPECT_GE(r.completed, r.started);
  }
}

}  // namespace
}  // namespace mccs

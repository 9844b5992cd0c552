#include "mccs/trace_export.h"

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace mccs::svc {
namespace {

void append_kv(std::string& out, const char* key, const std::string& value,
               bool quote, bool first = false) {
  if (!first) out += ",";
  out += "\"";
  telemetry::append_escaped_json(out, key);
  out += "\":";
  if (quote) {
    out += "\"";
    telemetry::append_escaped_json(out, value);
    out += "\"";
  } else {
    out += value;
  }
}

std::string num(double v) { return telemetry::format_double(v); }

}  // namespace

std::string trace_record_to_json(const TraceRecord& record) {
  std::string out = "{";
  append_kv(out, "app", std::to_string(record.app.get()), false, true);
  append_kv(out, "comm", std::to_string(record.comm.get()), false);
  append_kv(out, "rank", std::to_string(record.rank), false);
  append_kv(out, "seq", std::to_string(record.seq), false);
  append_kv(out, "kind", coll::to_string(record.kind), true);
  append_kv(out, "bytes", std::to_string(record.bytes), false);
  append_kv(out, "issued", num(record.issued), false);
  append_kv(out, "launched", num(record.launched), false);
  append_kv(out, "started", num(record.started), false);
  append_kv(out, "completed", num(record.completed), false);
  out += "}";
  return out;
}

std::string trace_to_json_lines(const std::vector<TraceRecord>& records) {
  std::string out;
  for (const TraceRecord& r : records) {
    out += trace_record_to_json(r);
    out += "\n";
  }
  return out;
}

std::string chrome_trace_json(Fabric& fabric) {
  // Collective records become "proxy" spans on per-(comm, rank) tracks in a
  // side timeline merged with the runtime one under a disjoint pid block.
  telemetry::Timeline records;
  for (const TraceRecord& r : fabric.trace_all()) {
    if (r.completed < r.issued) continue;  // issued but never completed
    const int t = records.track("comm " + std::to_string(r.comm.get()),
                                "rank " + std::to_string(r.rank));
    records.span(t, "proxy", coll::kind_name(r.kind), r.issued, r.completed,
                 {{"seq", r.seq},
                  {"bytes", r.bytes},
                  {"launched_us", r.launched * 1e6},
                  {"started_us", r.started * 1e6}});
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  fabric.telemetry().timeline().append_chrome_events(out, /*pid_base=*/0, first);
  records.append_chrome_events(out, /*pid_base=*/1000, first);
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

}  // namespace mccs::svc

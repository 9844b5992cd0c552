#pragma once
// Provider observability tooling on top of the management API (§4.3): export
// collective traces as JSON lines, the format an external controller,
// dashboard, or offline profiler would ingest; plus the Chrome trace-event
// export that merges the fabric's telemetry timeline with the collective
// TraceRecords into one file Perfetto loads directly. Communicator state
// (placement, strategy, progress) is one surface: the `comms` entries of
// Fabric::telemetry_snapshot().
//
// Writing JSON by hand (no third-party dependency) keeps the repository
// self-contained; string escaping and shortest-round-trip double formatting
// come from telemetry/json.h so exported virtual timestamps parse back
// bit-identically.

#include <string>
#include <vector>

#include "mccs/fabric.h"
#include "mccs/trace.h"

namespace mccs::svc {

/// One trace record as a JSON object (single line, no trailing newline).
std::string trace_record_to_json(const TraceRecord& record);

/// All records as JSON-lines text (one object per line).
std::string trace_to_json_lines(const std::vector<TraceRecord>& records);

/// The fabric's whole run as one Chrome trace-event JSON document: every
/// telemetry timeline event (frontend/transport/netsim/policy spans, policy
/// and recovery instants, link counters) plus every completed collective
/// TraceRecord as a "proxy" span on a per-(comm, rank) track. Loads in
/// Perfetto / chrome://tracing. Timeline events are recorded only while
/// fabric.telemetry().set_enabled(true) holds; the TraceRecord spans are
/// always present.
std::string chrome_trace_json(Fabric& fabric);

}  // namespace mccs::svc

#pragma once
// Layer counters read from public getters before and after the timed phase:
// the netsim's solve/batch totals, the fabric registry's plan-cache and
// transport counters, and the number of flows the network has started.

#include <cstdint>

#include "mccs_bench/harness.h"
#include "mccs/fabric.h"
#include "netsim/network.h"

namespace bench {

/// Flows the network has started so far. Flow ids are a monotone sequence,
/// so a probe flow's id is the count; the probe is latent (its activation
/// lies far in the future) and cancelled at once, so it never enters a
/// solve and moves no simulated byte.
inline std::uint64_t flows_started(mccs::net::Network& net, mccs::NodeId src,
                                   mccs::NodeId dst) {
  mccs::net::FlowSpec probe;
  probe.src = src;
  probe.dst = dst;
  probe.size = 1;
  probe.start_latency = 1e9;
  const mccs::FlowId id = net.start_flow(std::move(probe));
  net.cancel_flow(id);
  return id.get();
}

struct NetCounters {
  std::uint64_t solves = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t batches = 0;

  static NetCounters read(const mccs::net::Network& net) {
    return NetCounters{net.solves_total(), net.coalesced_flows_total(),
                       net.batches_total()};
  }
};

inline void report_net(Run& run, const NetCounters& a, const NetCounters& b) {
  const double ops = run.ops() > 0 ? static_cast<double>(run.ops()) : 1.0;
  const double batches = static_cast<double>(b.batches - a.batches);
  run.metric("netsim.solves_per_op", static_cast<double>(b.solves - a.solves) / ops,
             "solve/op");
  run.metric("netsim.batch_width_mean",
             batches > 0.0 ? static_cast<double>(b.coalesced - a.coalesced) / batches
                           : 0.0,
             "flow/batch");
}

/// Service-side counters of one fabric.
struct FabricCounters {
  NetCounters net;
  std::uint64_t flows = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t plan_invalidations = 0;
  std::uint64_t retries = 0;

  /// `src`/`dst` name any two NIC nodes (for the flow-count probe).
  static FabricCounters read(mccs::svc::Fabric& fabric, mccs::NodeId src,
                             mccs::NodeId dst) {
    const mccs::telemetry::MetricsRegistry& reg = fabric.telemetry().metrics();
    FabricCounters c;
    c.net = NetCounters::read(fabric.network());
    c.flows = flows_started(fabric.network(), src, dst);
    c.plan_hits = reg.counter_total("plan_cache_hits");
    c.plan_misses = reg.counter_total("plan_cache_misses");
    c.plan_invalidations = reg.counter_total("plan_cache_invalidations");
    c.retries = reg.counter_total("transport_retries");
    return c;
  }
};

/// Report the timed-phase deltas. Every transport send is one network flow
/// (the probe between the two reads accounts for the extra id).
inline void report_fabric(Run& run, const FabricCounters& a,
                          const FabricCounters& b) {
  report_net(run, a.net, b.net);
  const double ops = run.ops() > 0 ? static_cast<double>(run.ops()) : 1.0;
  run.metric("transport.sends_per_op",
             static_cast<double>(b.flows - a.flows - 1) / ops, "send/op");
  run.metric("transport.retries", static_cast<double>(b.retries - a.retries),
             "count");
  const double hits = static_cast<double>(b.plan_hits - a.plan_hits);
  const double lookups = hits + static_cast<double>(b.plan_misses - a.plan_misses);
  run.metric("coll_plan.hit_rate", lookups > 0.0 ? hits / lookups : 0.0, "ratio");
  run.metric("coll_plan.invalidations",
             static_cast<double>(b.plan_invalidations - a.plan_invalidations),
             "count");
}

}  // namespace bench

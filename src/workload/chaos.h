#pragma once
// Chaos-under-churn harness: the control plane's crash-test rig.
//
// Composes the cluster-day Poisson churn trace (arrivals, departures,
// admission queueing) with a seeded FaultPlan (link down / degrade / flap
// storms, mid-run tenant kills) into ONE time-sorted event stream, and
// replays it through FIFO admission + the warm-started IncrementalAssigner,
// checking after EVERY event that the warm assignment is bitwise identical
// to a from-scratch re-solve. Tests sweep seeds; bench/cluster_day runs the
// same harness at 4k-GPU scale for the goodput-retention and soak numbers.
//
// Invariants checked per seed (ChaosChurnResult::ok() folds them):
//  1. termination — the replay finishes (bounded admission retry keeps a
//     recovery storm from livelocking the queue);
//  2. exactly-once completion — every surviving (non-killed, admitted)
//     tenant is admitted exactly once and completes exactly once; a chaos
//     kill followed by the trace's natural departure is a no-op, not a
//     double release;
//  3. zero orphans after quiesce — once the stream drains, no running or
//     queued job remains, every GPU is free, the assigner holds no items
//     and no residual link demand;
//  4. assignment identity — after every event the incremental assignment
//     digests equal to the full re-solve's (with state poisoning enabled,
//     divergence is allowed only inside the poison window and must heal).
//
// Two control-plane modes share all workload state:
//   reconfig    — faults feed the assigner (failed links steer placement,
//                 changed links dirty their tenants) — MCCS's behaviour;
//   rehash-only — routes react to churn but never to faults (the ECMP-ish
//                 baseline). Goodput retention reconfig / rehash is the
//                 headline robustness number.
//
// Goodput model: a tenant's collective moves at its slowest flow (a ring is
// gated by its bottleneck edge), so per-tenant goodput factor = min over its
// routed flows of the path's surviving-capacity factor (down = 0, degraded =
// fraction, up = 1); single-host tenants run at 1. GPU-time-weighted and
// integrated between events; retention = faulted / fault-free.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "common/units.h"
#include "telemetry/metrics.h"
#include "workload/arrivals.h"

namespace mccs::workload {

struct ChaosChurnSpec {
  cluster::SpineLeafSpec fabric;
  ChurnSpec churn;

  // --- chaos shape (FaultPlan::random over the fabric's switch links) ------
  int fault_episodes = 6;
  int flap_bursts = 1;
  int flaps_per_burst = 4;
  double degrade_prob = 0.4;
  Time min_outage = 0.0;  ///< 0 => horizon / 50
  Time max_outage = 0.0;  ///< 0 => horizon / 4
  int max_kills = 2;
  double kill_prob = 0.5;

  // --- control plane -------------------------------------------------------
  bool reconfig = true;  ///< false: rehash-only baseline (no fault steering)
  /// Sampled divergence audit (0 disables); fed to IncrementalAssigner.
  std::uint32_t audit_period = 0;
  /// Inject a warm-state corruption (debug_poison_state) one third of the
  /// way through the stream — the audit must catch and heal it. The poison
  /// needs a live tenant with a multi-path flow; if none exists at the
  /// injection point the harness retries at each following event until one
  /// does (ChaosChurnResult::poisoned reports whether it ever engaged).
  bool poison = false;
  /// Admission defers while any link is hard-down and drains when the storm
  /// clears; a head job failing placement more often than this is rejected.
  int max_admission_retries = -1;  ///< <0: unlimited
  std::unordered_set<std::uint32_t> reserved_routes;
  /// Digest the assignment against the full re-solve after every event
  /// (reconfig mode only). Affordable at test scale; the 4k soak turns it
  /// off and checks identity at sampled points + quiesce.
  bool oracle_every_event = true;
  /// When oracle_every_event is off, audit identity every N events (0: only
  /// at quiesce).
  std::size_t oracle_stride = 0;
};

struct ChaosChurnResult {
  // population
  std::size_t events = 0;       ///< churn + fault events replayed
  std::size_t jobs = 0;         ///< jobs in the trace
  std::uint64_t admitted = 0;   ///< admissions (immediate + drained)
  std::size_t completed = 0;    ///< departures of live tenants (incl. kills)
  std::size_t killed = 0;       ///< chaos kills that hit a live tenant
  std::uint64_t rejected = 0;   ///< admission rejections (retry budget)
  std::uint64_t deferred = 0;   ///< submits queued under backpressure
  std::uint64_t duplicate_departures = 0;
  std::size_t queued_peak = 0;

  // audit / fallback
  std::uint64_t audits = 0;
  std::uint64_t audit_mismatches = 0;
  std::uint64_t fallbacks = 0;

  // invariants
  bool terminated = false;
  bool exactly_once = true;
  bool quiesced = false;
  bool identity = true;      ///< no digest mismatch outside a poison window
  bool healed = true;        ///< poison window closed before the end
  /// The poison actually corrupted a victim (it needs a live tenant with a
  /// multi-path flow; healed is vacuous when this is false).
  bool poisoned = false;
  std::size_t divergent_events = 0;  ///< events spent inside poison windows
  double residual_demand = 0.0;      ///< assigner link demand after quiesce

  // goodput
  double goodput_retention = 1.0;
  double faulted_gpu_time = 0.0;
  double fault_free_gpu_time = 0.0;
  double mean_closure = 0.0;

  [[nodiscard]] bool ok() const {
    return terminated && exactly_once && quiesced && identity && healed;
  }
};

/// Replay one seeded chaos-under-churn run. Deterministic: same (spec, seed)
/// => same result, at any MCCS_THREADS. `metrics` (optional) receives the
/// assigner's audit counters; per-tenant goodput gauges are NOT kept there,
/// so registry size stays O(1) in the tenant count.
ChaosChurnResult run_chaos_churn(const ChaosChurnSpec& spec, std::uint64_t seed,
                                 telemetry::MetricsRegistry* metrics = nullptr);

/// The fabric's switch-to-switch links (leaf<->spine) — the chaos target
/// set. NIC uplinks are excluded: they have no path diversity, so steering
/// cannot help and every mode degrades identically.
std::vector<LinkId> fabric_links(const cluster::Cluster& cluster);

}  // namespace mccs::workload

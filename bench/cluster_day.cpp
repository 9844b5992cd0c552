// Cluster-day churn harness: the control plane under a full day of tenant
// arrivals and departures on 1k- and 4k-GPU Clos fabrics.
//
// A seeded Poisson trace of training jobs (weighted size mix, exponential
// lifetimes, a slice of high-priority tenants) is replayed through FIFO
// admission control with compact (rack-packing) placement and a
// locality-aware ring per job. Every admission / departure is a
// control-plane event that must re-run PFA flow assignment; the bench times
// that decision in two modes over the IDENTICAL trace:
//
//   full        — the one-shot solver: assign_flows over every live tenant,
//                 from scratch, per event (what every fig harness does);
//   incremental — the warm-started IncrementalAssigner: only the dirty
//                 closure (tenants interfering with the changed one)
//                 re-solves.
//
// Headline metrics per (scale, mode): controller decision latency
// p50/p99/p999 (wall-clock microseconds; the percentile ladder is the new
// stats.h tail_summary), cluster goodput (admitted GPU-time / total
// GPU-time — identical across modes by construction, admission is
// mode-independent), and for the incremental mode the closure sizes and the
// p99 speedup vs full. The two modes' final assignments are compared
// exactly; `assignments_identical` lands in the JSON and scripts/check.sh
// gates it together with a >= 3x p99 speedup floor at >= 1024 GPUs.
//
// Emits one JSON line per (scale, mode) to BENCH_cluster.json.
//
// A second section exercises the same control plane under chaos: the
// workload::run_chaos_churn harness (churn composed with link fault storms
// and tenant kills) swept over seeds in reconfig vs rehash-only mode for the
// goodput-retention headline, plus a long-horizon soak on the 4k-GPU Clos
// (hours of virtual time in four quarters) asserting memory and telemetry-
// registry stability. Emits BENCH_chaos.json; scripts/check.sh gates the
// retention ratio, zero invariant violations, and the soak growth bounds.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/admission.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mccs/strategy.h"
#include "netsim/routing.h"
#include "policy/flow_assign.h"
#include "policy/ring_config.h"
#include "telemetry/metrics.h"
#include "workload/arrivals.h"
#include "workload/chaos.h"

namespace {

using namespace mccs;

constexpr std::uint64_t kSeed = 20240607;
/// Route indices reserved for high-priority tenants (PFA).
const std::unordered_set<std::uint32_t> kReservedRoutes{0, 1};

struct Scale {
  const char* name;
  cluster::SpineLeafSpec spec;
  workload::ChurnSpec churn;
};

std::vector<Scale> scales() {
  std::vector<Scale> out;
  // Racks (128 GPUs: 16 hosts x 8) comfortably fit the largest job (64), so
  // compact placement keeps most tenants intra-rack; cross-rack spill-over —
  // which couples whole racks into one interference component — happens only
  // under fragmentation, as in a real cluster. ~60% offered load keeps the
  // admission queue shallow and the component graph sparse.
  {
    // 1024 GPUs: 8 leaves x 16 hosts x 8 GPUs, 16 spines.
    Scale s;
    s.name = "clos-1k";
    s.spec.num_spines = 16;
    s.spec.num_leaves = 8;
    s.spec.hosts_per_leaf = 16;
    s.spec.gpus_per_host = 8;
    s.spec.nics_per_host = 8;
    s.spec.nic_link = gbps(200);
    s.spec.fabric_link = gbps(200);
    // ~50 live jobs x ~12.8 GPUs => ~62% load. Jobs top out at a quarter
    // rack, so compact placement keeps tenants intra-rack: a cross-rack
    // spill welds both racks' uplinks into one interference component for
    // the job's whole lifetime, and at this scale (8 racks) a handful of
    // spills chains most of the fabric together — the mix keeps spills the
    // exception, as in a production cluster.
    s.churn.sizes = {8, 16, 32};
    s.churn.size_weights = {4.0, 4.0, 2.0};
    s.churn.mean_interarrival = 18.0;
    s.churn.mean_duration = 900.0;
    s.churn.horizon = 18000.0;
    s.churn.high_priority_fraction = 0.1;
    out.push_back(s);
  }
  {
    // 4096 GPUs: 32 leaves x 16 hosts x 8 GPUs, 32 spines.
    Scale s;
    s.name = "clos-4k";
    s.spec.num_spines = 32;
    s.spec.num_leaves = 32;
    s.spec.hosts_per_leaf = 16;
    s.spec.gpus_per_host = 8;
    s.spec.nics_per_host = 8;
    s.spec.nic_link = gbps(200);
    s.spec.fabric_link = gbps(200);
    // ~120 live jobs => ~61% load; shorter day, same event-count ballpark —
    // the full mode's per-event cost is what explodes with the tenant count.
    s.churn.mean_interarrival = 10.0;
    s.churn.mean_duration = 1200.0;
    s.churn.horizon = 10000.0;
    s.churn.high_priority_fraction = 0.1;
    out.push_back(s);
  }
  return out;
}

/// One admitted tenant: its communicator identity and fixed ring strategy.
struct LiveJob {
  std::vector<GpuId> gpus;
  svc::CommStrategy strategy;
  bool high_priority = false;
  Time admitted_at = 0.0;
};

struct ModeResult {
  std::vector<double> latencies_s;  ///< one per control-plane event
  double goodput = 0.0;
  std::size_t events = 0;
  std::size_t jobs = 0;
  std::uint64_t admitted = 0;
  std::size_t queued_peak = 0;
  double mean_closure = 0.0;  ///< incremental only: avg dirty-closure items
  /// Control-plane solve coalescing: the event loop folds every tenant
  /// mutation a churn event carries (one departure can admit a whole burst
  /// of queued jobs) into a single assigner solve.
  double solves_per_event = 0.0;
  double mean_batch_width = 0.0;  ///< tenant mutations folded per solve
  /// Deterministic digest of the assignment after EVERY event (live comms
  /// ascending, route keys ascending), so "identical" means identical at
  /// each of the trace's thousands of decision points — not merely at the
  /// end, where both modes trivially agree on an empty cluster.
  std::uint64_t assignment_digest = policy::kFnvOffset;
  /// Exact assignment snapshot at the trace midpoint, for a direct map
  /// comparison on top of the digest.
  std::unordered_map<std::uint32_t, policy::RouteMap> mid_assignments;
};

/// Replay the trace once. `incremental` selects the control plane; all
/// workload-side state (admission, placement, strategies) is identical
/// either way, so the modes differ only in how routes are recomputed.
ModeResult run_mode(const Scale& scale, bool incremental) {
  const cluster::Cluster cluster = cluster::make_spine_leaf(scale.spec);
  const net::Routing routing(cluster.topology());
  cluster::AdmissionQueue admission(cluster, cluster::Placement::kCompact);
  Rng rng(kSeed ^ 0x5eedu);

  const std::vector<workload::JobSpec> jobs =
      workload::poisson_jobs(scale.churn, kSeed);
  const std::vector<workload::ChurnEvent> events = workload::churn_events(jobs);

  policy::IncrementalAssigner assigner(cluster, routing);
  assigner.set_reserved_routes(kReservedRoutes);
  policy::AssignOptions options;
  options.reserved_routes = kReservedRoutes;

  std::unordered_map<std::uint32_t, LiveJob> live;
  std::unordered_map<std::uint32_t, policy::RouteMap> full_routes;
  ModeResult res;
  res.jobs = jobs.size();
  double busy_gpu_time = 0.0;
  double closure_total = 0.0;
  std::size_t solves = 0;
  std::size_t mutations = 0;

  auto activate = [&](JobId job, std::vector<GpuId> gpus, Time now) {
    const workload::JobSpec& spec = jobs[job.get()];
    LiveJob lj;
    lj.strategy = policy::locality_aware_strategy(gpus, cluster);
    lj.gpus = std::move(gpus);
    lj.high_priority = spec.high_priority;
    lj.admitted_at = now;
    live.emplace(job.get(), std::move(lj));
  };

  for (const workload::ChurnEvent& ev : events) {
    // Admission (mode-independent): which jobs start or stop right now.
    std::vector<std::uint32_t> started;
    std::vector<std::uint32_t> stopped;
    if (ev.arrival) {
      if (auto placed = admission.submit(ev.job, jobs[ev.job.get()].gpus, rng)) {
        activate(ev.job, std::move(*placed), ev.at);
        started.push_back(ev.job.get());
      }
    } else {
      if (live.count(ev.job.get()) > 0) stopped.push_back(ev.job.get());
      for (cluster::AdmissionQueue::Admission& adm :
           admission.finish(ev.job, rng)) {
        activate(adm.job, std::move(adm.gpus), ev.at);
        started.push_back(adm.job.get());
      }
    }
    res.queued_peak = std::max(res.queued_peak, admission.queue_depth());
    mutations += started.size() + stopped.size();

    // The timed control-plane decision: react to this event's tenant set
    // change with a (re)assignment of flows to routes.
    const auto t0 = std::chrono::steady_clock::now();
    if (incremental) {
      for (std::uint32_t id : stopped) assigner.remove_item(CommId{id});
      for (std::uint32_t id : started) {
        const LiveJob& lj = live.at(id);
        policy::AssignItem item;
        item.comm = CommId{id};
        item.app = AppId{id};
        item.gpus_by_rank = &lj.gpus;
        item.strategy = &lj.strategy;
        item.high_priority = lj.high_priority;
        assigner.add_item(item);
      }
      const policy::IncrementalSolveStats st = assigner.solve(ev.at);
      closure_total += static_cast<double>(st.solved_items);
      ++solves;
    } else {
      std::vector<policy::AssignItem> items;
      items.reserve(live.size());
      // Ascending comm id — the canonical order Controller::compute_routes
      // uses (list_communicators is sorted).
      std::vector<std::uint32_t> ids;
      ids.reserve(live.size());
      for (const auto& [id, lj] : live) {
        if (!ev.arrival && id == ev.job.get()) continue;  // departing now
        ids.push_back(id);
      }
      std::sort(ids.begin(), ids.end());
      for (std::uint32_t id : ids) {
        const LiveJob& lj = live.at(id);
        policy::AssignItem item;
        item.comm = CommId{id};
        item.app = AppId{id};
        item.gpus_by_rank = &lj.gpus;
        item.strategy = &lj.strategy;
        item.high_priority = lj.high_priority;
        items.push_back(item);
      }
      full_routes = policy::assign_flows(items, cluster, routing, options);
      ++solves;
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.latencies_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    ++res.events;

    // Identity accounting, outside the timed region: digest this event's
    // post-decision assignment of every live tenant and fold it into the
    // running trace digest. policy::assignment_digest skips tenants with no
    // routed flows (single-host jobs), which assign_flows omits while the
    // warm assigner tracks with an empty route map; the explicit erase keeps
    // the mid-trace map snapshots comparable too.
    auto assignment = incremental ? assigner.assignments() : full_routes;
    for (auto it = assignment.begin(); it != assignment.end();) {
      it = it->second.empty() ? assignment.erase(it) : std::next(it);
    }
    policy::fold_digest(res.assignment_digest,
                        policy::assignment_digest(assignment));
    if (res.events == events.size() / 2) res.mid_assignments = std::move(assignment);

    // Workload accounting, outside the timed region.
    for (std::uint32_t id : stopped) {
      const LiveJob& lj = live.at(id);
      busy_gpu_time +=
          static_cast<double>(lj.gpus.size()) * (ev.at - lj.admitted_at);
      live.erase(id);
    }
  }

  if (incremental) {
    res.mean_closure = solves > 0 ? closure_total / static_cast<double>(solves) : 0.0;
  }
  res.solves_per_event =
      res.events > 0 ? static_cast<double>(solves) / static_cast<double>(res.events)
                     : 0.0;
  res.mean_batch_width =
      solves > 0 ? static_cast<double>(mutations) / static_cast<double>(solves)
                 : 0.0;
  res.admitted = admission.admitted_total();
  const double horizon = events.empty() ? 1.0 : events.back().at;
  res.goodput = busy_gpu_time /
                (static_cast<double>(cluster.gpu_count()) * horizon);
  return res;
}

// --- chaos-under-churn: goodput retention sweep + long-horizon soak ---------

/// Resident set size right now (Linux /proc/self/statm), in bytes.
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

int chaos_seed_count() {
  const char* env = std::getenv("MCCS_CHAOS_BENCH_SEEDS");
  if (env == nullptr) return 10;
  const int n = std::atoi(env);
  return n > 0 ? n : 10;
}

/// The retention sweep's fabric: 64 GPUs, one host per leaf, so every
/// multi-host tenant crosses the spine and a fabric fault sits on routed
/// paths — steering (reconfig) vs not steering (rehash) is the ONLY
/// difference between the modes. Four spines give every flow alternates to
/// steer to.
workload::ChaosChurnSpec chaos_retention_spec() {
  workload::ChaosChurnSpec s;
  s.fabric.num_spines = 4;
  s.fabric.num_leaves = 16;
  s.fabric.hosts_per_leaf = 1;
  s.fabric.gpus_per_host = 4;
  s.fabric.nics_per_host = 4;
  s.fabric.nic_link = gbps(200);
  s.fabric.fabric_link = gbps(200);
  s.churn.horizon = 4000.0;
  s.churn.mean_interarrival = 30.0;
  s.churn.mean_duration = 500.0;
  s.churn.sizes = {8, 16};
  s.churn.size_weights = {3.0, 1.0};
  s.churn.high_priority_fraction = 0.1;
  s.reserved_routes = {0};
  s.fault_episodes = 10;
  s.degrade_prob = 0.15;  // mostly hard downs: the steerable failure mode
  s.min_outage = 300.0;
  s.max_outage = 900.0;
  s.flap_bursts = 2;
  s.flaps_per_burst = 3;
  s.max_kills = 2;
  s.kill_prob = 0.5;
  s.audit_period = 8;
  s.max_admission_retries = 16;
  return s;
}

struct ChaosAgg {
  int seeds = 0;
  std::size_t events = 0;
  std::size_t solves = 0;
  std::size_t violations = 0;  ///< seeds where any invariant failed
  std::size_t divergent = 0;
  double retention_sum = 0.0;
  std::uint64_t audits = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t kills = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deferred = 0;
  std::uint64_t duplicates = 0;

  void add(const workload::ChaosChurnResult& r) {
    ++seeds;
    events += r.events;
    solves += r.solves;
    if (!r.ok()) ++violations;
    divergent += r.divergent_events;
    retention_sum += r.goodput_retention;
    audits += r.audits;
    mismatches += r.audit_mismatches;
    fallbacks += r.fallbacks;
    kills += r.killed;
    rejected += r.rejected;
    deferred += r.deferred;
    duplicates += r.duplicate_departures;
  }
  [[nodiscard]] double retention_mean() const {
    return seeds > 0 ? retention_sum / seeds : 1.0;
  }
  [[nodiscard]] double solves_per_event() const {
    return events > 0 ? static_cast<double>(solves) /
                            static_cast<double>(events)
                      : 0.0;
  }
};

void emit_chaos_mode(std::FILE* json, const char* mode, int gpus,
                     const ChaosAgg& a) {
  std::fprintf(
      json,
      "{\"bench\":\"chaos_churn\",\"mode\":\"%s\",\"gpus\":%d,\"seeds\":%d,"
      "\"events\":%zu,\"retention_mean\":%.4f,\"violations\":%zu,"
      "\"divergent_events\":%zu,\"audits\":%llu,\"audit_mismatches\":%llu,"
      "\"fallbacks\":%llu,\"kills\":%llu,\"rejected\":%llu,\"deferred\":%llu,"
      "\"duplicate_departures\":%llu}\n",
      mode, gpus, a.seeds, a.events, a.retention_mean(), a.violations,
      a.divergent,
      static_cast<unsigned long long>(a.audits),
      static_cast<unsigned long long>(a.mismatches),
      static_cast<unsigned long long>(a.fallbacks),
      static_cast<unsigned long long>(a.kills),
      static_cast<unsigned long long>(a.rejected),
      static_cast<unsigned long long>(a.deferred),
      static_cast<unsigned long long>(a.duplicates));
}

/// The soak: the 4k-GPU Clos from the churn bench driven through four
/// quarters of chaos-under-churn (4 virtual hours each), sharing one
/// telemetry registry. Every quarter injects a warm-state poison that the
/// sampled audit must heal; identity is checked on a stride and at quiesce.
/// RSS and registry size are sampled after each quarter: a control plane
/// that leaks per-tenant or per-fault state shows up as monotone growth
/// between quarter 1 (steady-state footprint) and the end.
void run_soak(std::FILE* json, const Scale& scale4k) {
  workload::ChaosChurnSpec s;
  s.fabric = scale4k.spec;
  // A slice of larger-than-rack tenants (256 GPUs = two 128-GPU leaves):
  // compact placement never fragments smaller jobs across racks (it prefers
  // whole free racks), so only over-rack tenants put flows on the spine —
  // without them spine faults sit on no live path, the poison has no
  // multi-path victim, and retention is a vacuous 1.0. ~60% offered load.
  s.churn.sizes = {16, 64, 256};
  s.churn.size_weights = {4.0, 2.0, 1.0};
  s.churn.mean_interarrival = 30.0;
  s.churn.mean_duration = 1200.0;
  s.churn.horizon = 14400.0;  // 4 virtual hours per quarter
  s.churn.high_priority_fraction = 0.1;
  s.reserved_routes = {0, 1};
  s.fault_episodes = 24;
  s.degrade_prob = 0.3;
  s.min_outage = 300.0;
  s.max_outage = 1200.0;
  s.flap_bursts = 4;
  s.flaps_per_burst = 4;
  s.max_kills = 4;
  s.kill_prob = 0.5;
  s.audit_period = 32;
  s.max_admission_retries = 32;
  s.poison = true;
  s.oracle_every_event = false;
  s.oracle_stride = 101;

  constexpr int kQuarters = 4;
  telemetry::MetricsRegistry registry;
  ChaosAgg agg;
  bool healed = true;
  int poisons_engaged = 0;
  std::size_t rss_q1 = 0;
  std::size_t registry_q1 = 0;
  for (int q = 0; q < kQuarters; ++q) {
    const workload::ChaosChurnResult r =
        workload::run_chaos_churn(s, 0x50a4u + static_cast<std::uint64_t>(q),
                                  &registry);
    agg.add(r);
    healed = healed && r.healed;
    if (r.poisoned) ++poisons_engaged;
    std::printf("  soak quarter %d/%d: %zu events, retention %.3f, "
                "audits %llu, fallbacks %llu, %s\n",
                q + 1, kQuarters, r.events, r.goodput_retention,
                static_cast<unsigned long long>(r.audits),
                static_cast<unsigned long long>(r.fallbacks),
                r.ok() ? "ok" : "INVARIANT VIOLATION");
    if (q == 0) {
      rss_q1 = rss_bytes();
      registry_q1 = registry.size();
    }
  }
  const std::size_t rss_end = rss_bytes();
  const std::size_t registry_end = registry.size();
  const double rss_growth =
      rss_q1 > 0
          ? (static_cast<double>(rss_end) - static_cast<double>(rss_q1)) /
                static_cast<double>(rss_q1)
          : 0.0;
  const double virtual_hours =
      kQuarters * s.churn.horizon / 3600.0;

  std::printf("  soak: %.0f virtual hours, %zu events, rss %.1f -> %.1f MiB "
              "(%+.1f%%), registry %zu -> %zu instruments\n",
              virtual_hours, agg.events, rss_q1 / 1048576.0,
              rss_end / 1048576.0, rss_growth * 100.0, registry_q1,
              registry_end);
  std::fprintf(
      json,
      "{\"bench\":\"chaos_soak\",\"gpus\":4096,\"quarters\":%d,"
      "\"virtual_hours\":%.1f,\"events\":%zu,\"solves_per_event\":%.4f,"
      "\"violations\":%zu,"
      "\"divergent_events\":%zu,\"audits\":%llu,\"audit_mismatches\":%llu,"
      "\"fallbacks\":%llu,\"poisons_engaged\":%d,\"poisons_healed\":%s,"
      "\"rss_q1_mib\":%.1f,\"rss_end_mib\":%.1f,"
      "\"rss_growth_frac\":%.4f,\"registry_size\":%zu,"
      "\"registry_growth\":%lld}\n",
      kQuarters, virtual_hours, agg.events, agg.solves_per_event(),
      agg.violations, agg.divergent,
      static_cast<unsigned long long>(agg.audits),
      static_cast<unsigned long long>(agg.mismatches),
      static_cast<unsigned long long>(agg.fallbacks), poisons_engaged,
      healed ? "true" : "false", rss_q1 / 1048576.0, rss_end / 1048576.0,
      rss_growth, registry_end,
      static_cast<long long>(registry_end) -
          static_cast<long long>(registry_q1));
}

}  // namespace

int main() {
  std::printf("=== cluster_day: control-plane churn at 1k/4k GPUs ===\n\n");
  std::FILE* json = std::fopen("BENCH_cluster.json", "w");
  MCCS_CHECK(json != nullptr, "cannot open BENCH_cluster.json");

  std::printf("%-9s %5s %-12s %7s %9s %9s %9s %9s %8s %8s %6s\n", "scale",
              "gpus", "mode", "events", "p50(us)", "p99(us)", "p999(us)",
              "mean(us)", "goodput", "speedup", "ident");

  for (const Scale& scale : scales()) {
    const int gpus = scale.spec.num_spines == 16 ? 1024 : 4096;
    ModeResult full = run_mode(scale, /*incremental=*/false);
    ModeResult inc = run_mode(scale, /*incremental=*/true);
    const bool identical = full.assignment_digest == inc.assignment_digest &&
                           full.mid_assignments == inc.mid_assignments;

    struct Row {
      const char* mode;
      const ModeResult* r;
    };
    TailSummary full_tail{};
    for (const Row row : {Row{"full", &full}, Row{"incremental", &inc}}) {
      std::vector<double> xs = row.r->latencies_s;
      sort_samples(xs);
      const TailSummary tail = tail_summary_sorted(xs);
      const double mean_s = mean(xs);
      const bool is_inc = row.r == &inc;
      if (!is_inc) full_tail = tail;
      const double speedup = is_inc && tail.p99 > 0.0
                                 ? full_tail.p99 / tail.p99
                                 : 1.0;
      std::printf("%-9s %5d %-12s %7zu %9.1f %9.1f %9.1f %9.1f %7.1f%% %8.1f %6s\n",
                  scale.name, gpus, row.mode, row.r->events, tail.p50 * 1e6,
                  tail.p99 * 1e6, tail.p999 * 1e6, mean_s * 1e6,
                  row.r->goodput * 100.0, speedup,
                  is_inc ? (identical ? "yes" : "NO") : "ref");
      std::fprintf(
          json,
          "{\"bench\":\"cluster_day\",\"scale\":\"%s\",\"gpus\":%d,"
          "\"mode\":\"%s\",\"seed\":%llu,\"events\":%zu,\"jobs\":%zu,"
          "\"admitted\":%llu,\"queued_peak\":%zu,\"goodput\":%.4f,"
          "\"mean_closure_items\":%.2f,\"solves_per_event\":%.4f,"
          "\"mean_batch_width\":%.2f,\"p50_us\":%.3f,\"p99_us\":%.3f,"
          "\"p999_us\":%.3f,\"mean_us\":%.3f,\"speedup_p99_vs_full\":%.2f,"
          "\"assignments_identical\":%s}\n",
          scale.name, gpus, row.mode,
          static_cast<unsigned long long>(kSeed), row.r->events, row.r->jobs,
          static_cast<unsigned long long>(row.r->admitted),
          row.r->queued_peak, row.r->goodput, row.r->mean_closure,
          row.r->solves_per_event, row.r->mean_batch_width,
          tail.p50 * 1e6, tail.p99 * 1e6, tail.p999 * 1e6, mean_s * 1e6,
          speedup, identical ? "true" : "false");
    }
  }
  std::fclose(json);
  std::printf("\nBENCH_cluster.json written (one line per scale x mode).\n");

  // --- chaos-under-churn: retention sweep + soak ---------------------------
  std::printf("\n=== chaos_churn: faults under churn, reconfig vs rehash ===\n\n");
  std::FILE* cjson = std::fopen("BENCH_chaos.json", "w");
  MCCS_CHECK(cjson != nullptr, "cannot open BENCH_chaos.json");

  const workload::ChaosChurnSpec base = chaos_retention_spec();
  const int seeds = chaos_seed_count();
  ChaosAgg reconfig_agg;
  ChaosAgg rehash_agg;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = 0xbadc0deull + static_cast<std::uint64_t>(i);
    workload::ChaosChurnSpec spec = base;
    spec.reconfig = true;
    spec.poison = i % 3 == 2;  // every third seed proves the self-heal path
    reconfig_agg.add(workload::run_chaos_churn(spec, seed));
    spec.reconfig = false;
    spec.poison = false;
    rehash_agg.add(workload::run_chaos_churn(spec, seed));
  }
  const double loss_reconfig =
      std::max(1e-9, 1.0 - reconfig_agg.retention_mean());
  const double loss_rehash = 1.0 - rehash_agg.retention_mean();
  const double loss_ratio = loss_rehash / loss_reconfig;
  std::printf("%-10s %6s %10s %11s %8s %10s %9s\n", "mode", "seeds",
              "retention", "violations", "audits", "fallbacks", "kills");
  for (const auto& [name, agg] :
       {std::pair<const char*, const ChaosAgg*>{"reconfig", &reconfig_agg},
        {"rehash", &rehash_agg}}) {
    std::printf("%-10s %6d %9.3f%% %11zu %8llu %10llu %9llu\n", name,
                agg->seeds, agg->retention_mean() * 100.0, agg->violations,
                static_cast<unsigned long long>(agg->audits),
                static_cast<unsigned long long>(agg->fallbacks),
                static_cast<unsigned long long>(agg->kills));
  }
  std::printf("goodput loss rehash/reconfig: %.1fx\n\n", loss_ratio);
  emit_chaos_mode(cjson, "reconfig", 64, reconfig_agg);
  emit_chaos_mode(cjson, "rehash", 64, rehash_agg);
  std::fprintf(
      cjson,
      "{\"bench\":\"chaos_summary\",\"retention_reconfig\":%.4f,"
      "\"retention_rehash\":%.4f,\"loss_ratio_rehash_vs_reconfig\":%.2f,"
      "\"violations\":%zu}\n",
      reconfig_agg.retention_mean(), rehash_agg.retention_mean(), loss_ratio,
      reconfig_agg.violations + rehash_agg.violations);

  std::printf("=== chaos_soak: 4k-GPU Clos, %d virtual hours ===\n\n", 16);
  run_soak(cjson, scales()[1]);
  std::fclose(cjson);
  std::printf("\nBENCH_chaos.json written (sweep + summary + soak).\n");
  return 0;
}

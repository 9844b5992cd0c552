// Flow-level simulation engine throughput: events/second under flow churn at
// 64/256/768-GPU scale, incremental (component-scoped) vs reference (global)
// max-min reallocation — same workload, same binary, selected by
// `Network::Options::incremental`.
//
// The workload mirrors the Fig.-11 regime the engine exists for: many
// concurrent ring jobs (mostly rack-local, a fraction spanning two racks),
// iterating { start ring flows -> wait for all -> gap }, plus permanent
// background flows and pause/resume pulses (the traffic-scheduling QoS
// pattern). Every job/iteration parameter is precomputed from a fixed seed,
// so both engine modes execute the identical simulated schedule and the
// comparison is events-per-wall-second on equal work.
//
// Emits one JSON line per (scale, mode) to BENCH_flowsim.json — the perf
// trajectory future PRs extend; scripts/check.sh gates on its schema. Each
// (scale, mode) runs until its repetitions total kMinTimedS of wall time, and
// at least kMinReps times; a row's wall time and rate are the median
// repetition's, since a 64-GPU run times under a millisecond and one
// scheduler stall would otherwise move it by an order of magnitude.
//
// A second section exercises the arena-backed slab at fabric scale
// (768 / 8k / 32k endpoints on the widened Clos builders) and writes
// BENCH_scale.json:
//   * kind=perf rows: the full churn workload in incremental mode, with an
//     order-sensitive FNV-1a digest of the completion stream (flow id,
//     completion time) that pins the simulated behaviour across changes,
//     and the solve-epoch breakdown (`Network::solve_stats`): per-solve
//     means of flows, links, sub-component labels, water-filling rounds
//     and re-derived completions, and the phase times of the sampled
//     solves in microseconds;
//   * kind=identity rows: a trimmed workload run under both engine modes —
//     digests must match (component-scoped == global oracle) — plus the
//     compile-time bytes-per-flow-state split (hot SoA / solve params /
//     cold) that EXPERIMENTS.md quotes.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "netsim/network.h"
#include "sim/event_loop.h"

namespace {

using namespace mccs;

struct IterationPlan {
  std::vector<std::uint64_t> ecmp_keys;  ///< one per flow of the iteration
  Bytes bytes = 0;
  bool pause_pulse = false;  ///< gate flow 0 off/on mid-iteration
  Time pause_after = 0.0;
  Time pause_len = 0.0;
};

struct JobPlan {
  std::vector<NodeId> nics;  ///< ring order; flow i goes nics[i]->nics[i+1]
  int channels = 1;          ///< rings run over this many NICs per host
  std::vector<IterationPlan> iterations;
};

struct SlotPlan {
  Time first_start = 0.0;
  std::vector<JobPlan> jobs;
};

struct Workload {
  std::vector<SlotPlan> slots;
  std::vector<std::pair<NodeId, NodeId>> background;  ///< fixed-demand pairs
};

/// Precompute the whole churn schedule so both engine modes see identical
/// simulated work regardless of internal event ordering.
Workload make_workload(const cluster::Cluster& cl, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t hosts = cl.host_count();
  // Group hosts by rack for the placement draw.
  std::vector<std::vector<std::uint32_t>> racks;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    const auto r = cl.host(HostId{h}).rack.get();
    if (r >= racks.size()) racks.resize(r + 1);
    racks[r].push_back(h);
  }

  constexpr int kJobsPerSlot = 3;
  constexpr int kItersPerJob = 8;
  Workload w;
  const std::size_t num_slots = std::max<std::size_t>(2, hosts / 3);
  for (std::size_t s = 0; s < num_slots; ++s) {
    SlotPlan slot;
    slot.first_start = static_cast<double>(s) * millis(0.1);
    for (int j = 0; j < kJobsPerSlot; ++j) {
      JobPlan job;
      const bool cross_rack = rng.uniform() < 0.2 && racks.size() > 1;
      const int k = 2 + static_cast<int>(rng.below(3));  // 2..4 hosts
      std::vector<std::uint32_t> chosen;
      if (cross_rack) {
        const auto r0 = rng.below(racks.size());
        auto r1 = rng.below(racks.size());
        if (r1 == r0) r1 = (r1 + 1) % racks.size();
        for (int i = 0; i < k; ++i) {
          const auto& rk = racks[i % 2 == 0 ? r0 : r1];
          chosen.push_back(rk[rng.below(rk.size())]);
        }
      } else {
        const auto& rk = racks[rng.below(racks.size())];
        for (int i = 0; i < k; ++i) chosen.push_back(rk[rng.below(rk.size())]);
      }
      // Dedup while keeping >= 2 hosts (a ring needs two endpoints).
      std::vector<std::uint32_t> uniq;
      for (std::uint32_t h : chosen) {
        bool seen = false;
        for (std::uint32_t u : uniq) seen = seen || u == h;
        if (!seen) uniq.push_back(h);
      }
      if (uniq.size() < 2) {
        uniq.push_back((uniq[0] + 1) % hosts);
      }
      const auto& nics0 = cl.host(HostId{uniq[0]}).nic_nodes;
      job.channels = std::min<int>(4, static_cast<int>(nics0.size()));
      for (std::uint32_t h : uniq) {
        for (int c = 0; c < job.channels; ++c) {
          job.nics.push_back(cl.host(HostId{h}).nic_nodes[static_cast<std::size_t>(c)]);
        }
      }
      for (int it = 0; it < kItersPerJob; ++it) {
        IterationPlan ip;
        ip.bytes = 8_MB + rng.below(56) * 1_MB;
        const std::size_t edges = uniq.size() * static_cast<std::size_t>(job.channels);
        for (std::size_t e = 0; e < edges; ++e) ip.ecmp_keys.push_back(rng.engine()());
        if (rng.uniform() < 0.15) {
          ip.pause_pulse = true;
          ip.pause_after = millis(0.2 + rng.uniform());
          ip.pause_len = millis(0.2 + rng.uniform());
        }
        job.iterations.push_back(std::move(ip));
      }
      slot.jobs.push_back(std::move(job));
    }
    w.slots.push_back(std::move(slot));
  }
  // One permanent background flow per ~8 racks (min 1): external traffic the
  // strict-priority phase must serve first.
  const std::size_t nbg = std::max<std::size_t>(1, racks.size() / 8);
  for (std::size_t b = 0; b < nbg; ++b) {
    const std::uint32_t h0 = static_cast<std::uint32_t>(rng.below(hosts));
    std::uint32_t h1 = static_cast<std::uint32_t>(rng.below(hosts));
    if (h1 == h0) h1 = (h1 + 1) % hosts;
    w.background.emplace_back(cl.host(HostId{h0}).nic_nodes[0],
                              cl.host(HostId{h1}).nic_nodes[0]);
  }
  return w;
}

/// The ring edge flow i of a job sends over (precomputed schedule; must match
/// SlotRunner::start_iteration exactly so route prewarming touches the same
/// pairs the run resolves).
std::pair<NodeId, NodeId> ring_edge(const JobPlan& job, std::size_t i) {
  const std::size_t n = job.nics.size();
  const NodeId src = job.nics[i];
  NodeId dst = job.nics[(i + job.channels >= n) ? (i + job.channels - n)
                                                : (i + job.channels)];
  if (src == dst) dst = job.nics[(i + 1) % n];
  return {src, dst};
}

/// Order-sensitive FNV-1a over the completion stream. Two runs produce equal
/// digests iff they completed the same flows at the same times in the same
/// order — the bit-reproducibility contract between engine modes and across
/// task-pool widths.
struct CompletionDigest {
  std::uint64_t h = 1469598103934665603ull;
  /// Order-insensitive companion: a wrapping sum of one strong 64-bit hash
  /// per (id, completion-time-bits) record. Batched and unbatched runs
  /// complete every flow at the bitwise-identical virtual time but may
  /// permute completions *within* one instant (per-flow solve cascades
  /// re-insert same-instant events in solve-history order; the coalesced
  /// union solve in ascending id) — this digest is invariant under exactly
  /// that permutation and nothing weaker, so it is the batched-vs-unbatched
  /// identity gate. See DESIGN.md §15.
  ///
  /// `id` must be a WORKLOAD-logical flow name (slot/job/iteration/edge
  /// here), never the netsim-assigned FlowId sequence number: completion
  /// callbacks start the next iteration's flows, so sequence numbers are
  /// allocated in within-instant callback order — exactly the order the
  /// contract lets the two modes permute. Physics are mode-identical; the
  /// labels a consumer mints inside same-instant callbacks are not.
  std::uint64_t canonical = 0;

  void fold(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void record(std::uint64_t id, Time t) {
    fold(id);
    std::uint64_t bits = 0;
    static_assert(sizeof(Time) == sizeof(bits));
    std::memcpy(&bits, &t, sizeof(bits));
    fold(bits);
    // splitmix64 finalizer over the packed record.
    std::uint64_t z = (id * 0x9e3779b97f4a7c15ull) ^ bits;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    canonical += z ^ (z >> 31);
  }
};

struct RunResult {
  std::uint64_t events = 0;  ///< flow starts + completions + pause/resume ops
  std::uint64_t digest = 0;  ///< CompletionDigest over the completion stream
  std::uint64_t canonical = 0;  ///< order-insensitive (id, time) digest
  std::uint64_t solves = 0;      ///< Network::solves_total at loop drain
  std::uint64_t coalesced = 0;   ///< mutations folded into batch closes
  std::uint64_t batches = 0;     ///< non-empty batch closes
  net::Network::SolveStats stats;  ///< solve-epoch breakdown at loop drain
  double wall_s = 0.0;
  double prewarm_s = 0.0;  ///< wall time of the route prewarm (cold pairs)
  Time sim_s = 0.0;

  [[nodiscard]] double solves_per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(solves) / static_cast<double>(events);
  }
  [[nodiscard]] double mean_batch_width() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(coalesced) /
                              static_cast<double>(batches);
  }
};

/// Drive one slot's job sequence on the network; `events` counts the churn.
struct SlotRunner {
  sim::EventLoop* loop;
  net::Network* net;
  const SlotPlan* plan;
  std::uint64_t* events;
  CompletionDigest* digest;
  std::uint64_t slot_no = 0;  ///< index into Workload::slots — logical-id base
  std::size_t job_idx = 0;
  std::size_t iter_idx = 0;
  int outstanding = 0;

  void start_next_job() {
    if (job_idx >= plan->jobs.size()) return;
    iter_idx = 0;
    start_iteration();
  }

  void start_iteration() {
    const JobPlan& job = plan->jobs[job_idx];
    const IterationPlan& ip = job.iterations[iter_idx];
    const std::size_t n = job.nics.size();
    outstanding = static_cast<int>(n);
    std::optional<FlowId> first;
    // One solve for the whole ring launch instead of one per edge (no-op
    // when the network was built with coalescing off).
    net::Network::SolveBatch batch(*net);
    for (std::size_t i = 0; i < n; ++i) {
      net::FlowSpec spec;
      std::tie(spec.src, spec.dst) = ring_edge(job, i);
      spec.size = ip.bytes;
      spec.ecmp_key = ip.ecmp_keys[i];
      // Logical flow name: stable across engine modes, unlike the netsim
      // FlowId minted by start_flow (see CompletionDigest::record).
      const std::uint64_t lid = (slot_no << 48) | (job_idx << 32) |
                                (iter_idx << 16) | static_cast<std::uint64_t>(i);
      spec.on_complete = [this, lid](FlowId, Time t) {
        digest->record(lid, t);
        ++*events;
        if (--outstanding == 0) iteration_done();
      };
      const FlowId id = net->start_flow(std::move(spec));
      ++*events;
      if (!first) first = id;
    }
    if (ip.pause_pulse && first) {
      const FlowId target = *first;
      const Time t0 = loop->now() + ip.pause_after;
      const Time t1 = t0 + ip.pause_len;
      loop->schedule_at(t0, [this, target] {
        if (!net->flow_active(target)) return;
        net->pause_flow(target);
        ++*events;
      });
      loop->schedule_at(t1, [this, target] {
        if (!net->flow_active(target)) return;
        net->resume_flow(target);
        ++*events;
      });
    }
  }

  void iteration_done() {
    const JobPlan& job = plan->jobs[job_idx];
    if (++iter_idx < job.iterations.size()) {
      loop->schedule_after(millis(1), [this] { start_iteration(); });
      return;
    }
    ++job_idx;
    if (job_idx < plan->jobs.size()) {
      loop->schedule_after(millis(1), [this] { start_next_job(); });
    }
  }
};

struct RunOptions {
  bool incremental = true;
  /// Same-instant solve coalescing (batched mutation epochs + activation /
  /// completion cohorts). Off = the per-event unbatched baseline the
  /// kind=coalesce rows compare against.
  bool coalesce = true;
  /// Resolve every route the schedule will use before the timer starts, so
  /// events/s measures the solver hot path, not cold routing-cache fills.
  bool prewarm_routes = false;
  /// Pre-size the flow slab / scratch from the workload's own bounds.
  bool reserve = false;
};

RunResult run_workload(const cluster::Cluster& cl, const Workload& w,
                       const RunOptions& opts) {
  sim::EventLoop loop;
  net::Network net(loop, cl.topology(),
                   net::Network::Options{.incremental = opts.incremental,
                                         .coalesce = opts.coalesce});
  if (opts.reserve) {
    // Peak concurrency: every slot can have one job's ring in flight at once.
    std::size_t lifetime = w.background.size();
    std::size_t peak = w.background.size();
    for (const SlotPlan& slot : w.slots) {
      std::size_t slot_peak = 0;
      for (const JobPlan& job : slot.jobs) {
        slot_peak = std::max(slot_peak, job.nics.size());
        lifetime += job.iterations.size() * job.nics.size();
      }
      peak += slot_peak;
    }
    net.reserve_flows(peak, lifetime);
  }
  RunResult res;
  if (opts.prewarm_routes) {
    const auto p0 = std::chrono::steady_clock::now();
    const net::Routing& routing = net.routing();
    for (const auto& [src, dst] : w.background) routing.paths(src, dst);
    for (const SlotPlan& slot : w.slots) {
      for (const JobPlan& job : slot.jobs) {
        for (std::size_t i = 0; i < job.nics.size(); ++i) {
          const auto [src, dst] = ring_edge(job, i);
          routing.paths(src, dst);
        }
      }
    }
    res.prewarm_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - p0)
                        .count();
  }
  for (const auto& [src, dst] : w.background) {
    net.start_flow({.src = src, .dst = dst, .background_demand = gbps(40),
                    .on_complete = {}});
  }

  CompletionDigest digest;
  std::vector<SlotRunner> runners(w.slots.size());
  for (std::size_t s = 0; s < w.slots.size(); ++s) {
    runners[s] = SlotRunner{&loop, &net, &w.slots[s], &res.events, &digest, s};
    loop.schedule_at(w.slots[s].first_start, [&runners, s] {
      runners[s].start_next_job();
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  const auto t1 = std::chrono::steady_clock::now();
  res.wall_s = std::chrono::duration<double>(t1 - t0).count();
  res.sim_s = loop.now();
  res.digest = digest.h;
  res.canonical = digest.canonical;
  res.solves = net.solves_total();
  res.coalesced = net.coalesced_flows_total();
  res.batches = net.batches_total();
  res.stats = net.solve_stats();
  return res;
}

/// Cut a workload down for the cross-mode identity runs: the reference
/// (global) oracle is O(cluster) per event, so at 32k endpoints the full
/// schedule would dominate the bench's wall clock without proving anything
/// the trimmed prefix doesn't.
Workload trim_workload(Workload w, std::size_t max_slots,
                       std::size_t max_iters) {
  if (w.slots.size() > max_slots) w.slots.resize(max_slots);
  for (SlotPlan& slot : w.slots) {
    for (JobPlan& job : slot.jobs) {
      if (job.iterations.size() > max_iters) job.iterations.resize(max_iters);
    }
  }
  return w;
}

struct Scale {
  int gpus;
  cluster::Cluster cluster;
};

constexpr double kMinTimedS = 0.2;
constexpr std::size_t kMinReps = 3;

}  // namespace

int main() {
  std::printf("=== micro_flowsim: flow-churn engine throughput ===\n\n");

  std::vector<Scale> scales;
  {
    cluster::SpineLeafSpec s64;
    s64.num_spines = 4;
    s64.num_leaves = 4;
    s64.hosts_per_leaf = 2;
    s64.gpus_per_host = 8;
    s64.nics_per_host = 8;
    s64.nic_link = gbps(200);
    s64.fabric_link = gbps(200);
    scales.push_back({64, cluster::make_spine_leaf(s64)});

    cluster::SpineLeafSpec s256 = s64;
    s256.num_spines = 8;
    s256.num_leaves = 8;
    s256.hosts_per_leaf = 4;
    scales.push_back({256, cluster::make_spine_leaf(s256)});

    scales.push_back({768, cluster::make_large_sim_cluster()});
  }

  std::FILE* json = std::fopen("BENCH_flowsim.json", "w");
  MCCS_CHECK(json != nullptr, "cannot open BENCH_flowsim.json");

  std::printf("%-6s %-12s %10s %9s %14s %9s\n", "gpus", "mode", "events",
              "wall(s)", "events/sec", "speedup");
  for (Scale& sc : scales) {
    const Workload w = make_workload(sc.cluster, 0xF10F51Dull + sc.gpus);
    double ref_rate = 0.0;
    for (const bool incremental : {false, true}) {
      const RunOptions opts{.incremental = incremental};
      const RunResult r = run_workload(sc.cluster, w, opts);
      std::vector<double> walls{r.wall_s};
      double timed = r.wall_s;
      while (walls.size() < kMinReps || timed < kMinTimedS) {
        const RunResult again = run_workload(sc.cluster, w, opts);
        MCCS_CHECK(again.events == r.events && again.sim_s == r.sim_s,
                   "a repetition simulated different work");
        walls.push_back(again.wall_s);
        timed += again.wall_s;
      }
      const double wall_s = percentile(walls, 50.0);
      const double rate = static_cast<double>(r.events) / wall_s;
      const char* mode = incremental ? "incremental" : "reference";
      const double speedup = incremental ? rate / ref_rate : 1.0;
      if (!incremental) ref_rate = rate;
      std::printf("%-6d %-12s %10llu %9.6f %14.0f %8.2fx  (median of %zu)\n",
                  sc.gpus, mode, static_cast<unsigned long long>(r.events),
                  wall_s, rate, speedup, walls.size());
      std::fprintf(json,
                   "{\"bench\":\"micro_flowsim\",\"gpus\":%d,\"mode\":\"%s\","
                   "\"events\":%llu,\"sim_s\":%.6f,\"wall_s\":%.6f,"
                   "\"events_per_sec\":%.1f,\"speedup_vs_reference\":%.3f}\n",
                   sc.gpus, mode, static_cast<unsigned long long>(r.events),
                   r.sim_s, wall_s, rate, speedup);
    }
  }
  std::fclose(json);
  std::printf("\nBENCH_flowsim.json written (one line per scale x mode).\n");

  // --- scale points: 768 / 8k / 32k endpoints -> BENCH_scale.json ----------
  std::printf("\n=== scale points: arena-backed slab at 768/8k/32k ===\n\n");
  std::FILE* sjson = std::fopen("BENCH_scale.json", "w");
  MCCS_CHECK(sjson != nullptr, "cannot open BENCH_scale.json");

  const net::Network::StorageFootprint fp = net::Network::flow_state_footprint();
  std::printf("flow state: %zu B hot SoA + %zu B solve params + %zu B cold "
              "= %zu B/flow\n\n",
              fp.hot, fp.param, fp.cold, fp.total());

  std::printf("%-6s %-10s %10s %9s %14s\n", "gpus", "kind", "events",
              "wall(s)", "events/sec");
  bool all_identical = true;
  for (const int gpus : {768, 8192, 32768}) {
    const cluster::Cluster cl = cluster::make_scaled_sim_cluster(gpus);
    // 768 reuses the BENCH_flowsim seed so its incremental events/s is
    // directly comparable across the two sections (regression tripwire).
    const Workload w =
        make_workload(cl, 0xF10F51Dull + static_cast<std::uint64_t>(gpus));
    const RunOptions perf{.incremental = true, .prewarm_routes = true,
                          .reserve = true};

    const RunResult bat = run_workload(cl, w, perf);
    const double rate = static_cast<double>(bat.events) / bat.wall_s;
    std::printf("%-6d %-10s %10llu %9.3f %14.0f   (route prewarm %.3f s)\n",
                gpus, "perf", static_cast<unsigned long long>(bat.events),
                bat.wall_s, rate, bat.prewarm_s);
    // Solve-epoch breakdown: counts per solve, phase times per timed solve.
    const net::Network::SolveStats& st = bat.stats;
    const auto per_solve = [&st](std::uint64_t n) {
      return static_cast<double>(n) / static_cast<double>(st.solves);
    };
    const auto us = [&st](double s) {
      return s * 1e6 / static_cast<double>(st.timed);
    };
    const double epoch_s =
        st.discover_s + st.solve_s + st.schedule_s + st.refresh_s;
    std::printf("       per solve: %.1f flows, %.1f links, %.2f labels, "
                "%.2f rounds, %.1f completions; us per timed solve "
                "(%llu timed): discover %.2f, solve %.2f, schedule %.2f, "
                "refresh %.2f, epoch %.2f\n",
                per_solve(st.flows), per_solve(st.links), per_solve(st.labels),
                per_solve(st.rounds), per_solve(st.completions),
                static_cast<unsigned long long>(st.timed), us(st.discover_s),
                us(st.solve_s), us(st.schedule_s), us(st.refresh_s),
                us(epoch_s));
    std::fprintf(sjson,
                 "{\"bench\":\"micro_flowsim_scale\",\"kind\":\"perf\","
                 "\"gpus\":%d,\"events\":%llu,"
                 "\"sim_s\":%.6f,\"wall_s\":%.6f,\"events_per_sec\":%.1f,"
                 "\"solves_per_event\":%.4f,\"mean_batch_width\":%.2f,"
                 "\"digest\":\"%016llx\",\"flows_per_solve\":%.3f,"
                 "\"links_per_solve\":%.3f,\"labels_per_solve\":%.3f,"
                 "\"rounds_per_solve\":%.3f,\"completions_per_solve\":%.3f,"
                 "\"timed_solves\":%llu,\"discover_us\":%.4f,"
                 "\"solve_us\":%.4f,\"schedule_us\":%.4f,"
                 "\"refresh_us\":%.4f,\"epoch_us\":%.4f,"
                 "\"route_prewarm_s\":%.6f}\n",
                 gpus, static_cast<unsigned long long>(bat.events), bat.sim_s,
                 bat.wall_s, rate, bat.solves_per_event(),
                 bat.mean_batch_width(),
                 static_cast<unsigned long long>(bat.digest),
                 per_solve(st.flows), per_solve(st.links),
                 per_solve(st.labels), per_solve(st.rounds),
                 per_solve(st.completions),
                 static_cast<unsigned long long>(st.timed), us(st.discover_s),
                 us(st.solve_s), us(st.schedule_s), us(st.refresh_s),
                 us(epoch_s), bat.prewarm_s);

    const Workload tw = trim_workload(w, 16, 2);
    const RunResult ref = run_workload(
        cl, tw, RunOptions{.incremental = false, .prewarm_routes = true,
                           .reserve = true});
    const RunResult inc = run_workload(
        cl, tw, RunOptions{.incremental = true, .prewarm_routes = true,
                           .reserve = true});
    const bool identical_to_reference =
        ref.digest == inc.digest && ref.events == inc.events;
    std::printf("%-6d %-10s %10llu %9.3f  identical_to_reference=%s\n",
                gpus, "identity", static_cast<unsigned long long>(inc.events),
                inc.wall_s, identical_to_reference ? "yes" : "NO");
    std::fprintf(sjson,
                 "{\"bench\":\"micro_flowsim_scale\",\"kind\":\"identity\","
                 "\"gpus\":%d,\"identical_to_reference\":%s,"
                 "\"verify_events\":%llu,\"hot_bytes\":%zu,"
                 "\"param_bytes\":%zu,\"cold_bytes\":%zu,"
                 "\"bytes_per_flow_state\":%zu}\n",
                 gpus, identical_to_reference ? "true" : "false",
                 static_cast<unsigned long long>(inc.events), fp.hot, fp.param,
                 fp.cold, fp.total());
    all_identical = all_identical && identical_to_reference;

    // Coalescing: the same full workload with batching off — the per-event
    // solve baseline. The completion stream must be bit-identical (zero
    // virtual time elapses inside a batch, so the skipped intermediate rate
    // states transfer zero bytes); the solve count must not be.
    const RunResult unb = run_workload(
        cl, w, RunOptions{.incremental = true, .coalesce = false,
                          .prewarm_routes = true, .reserve = true});
    // Canonical (order-insensitive) digest: every flow must complete at the
    // bitwise-identical virtual time in both modes; only the within-instant
    // completion order may permute (see CompletionDigest::canonical).
    const bool digest_identical =
        bat.canonical == unb.canonical && bat.events == unb.events;
    const double reduction =
        bat.solves == 0 ? 0.0
                        : static_cast<double>(unb.solves) /
                              static_cast<double>(bat.solves);
    std::printf("%-6d %-10s %10llu %9.3f  solves %llu -> %llu "
                "(%.2fx, width %.1f) digest_identical=%s\n",
                gpus, "coalesce",
                static_cast<unsigned long long>(unb.events), unb.wall_s,
                static_cast<unsigned long long>(unb.solves),
                static_cast<unsigned long long>(bat.solves), reduction,
                bat.mean_batch_width(), digest_identical ? "yes" : "NO");
    std::fprintf(sjson,
                 "{\"bench\":\"micro_flowsim_scale\",\"kind\":\"coalesce\","
                 "\"gpus\":%d,\"events\":%llu,\"solves_batched\":%llu,"
                 "\"solves_unbatched\":%llu,\"solves_per_event_batched\":%.4f,"
                 "\"solves_per_event_unbatched\":%.4f,"
                 "\"mean_batch_width\":%.2f,\"reduction\":%.2f,"
                 "\"digest_identical\":%s}\n",
                 gpus, static_cast<unsigned long long>(bat.events),
                 static_cast<unsigned long long>(bat.solves),
                 static_cast<unsigned long long>(unb.solves),
                 bat.solves_per_event(), unb.solves_per_event(),
                 bat.mean_batch_width(), reduction,
                 digest_identical ? "true" : "false");
    all_identical = all_identical && digest_identical;
  }
  std::fclose(sjson);
  std::printf("\nBENCH_scale.json written (perf + identity rows per scale).\n");
  MCCS_CHECK(all_identical,
             "completion streams drifted across engine or batching modes");
  return 0;
}

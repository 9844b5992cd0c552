// netsim_churn_8k: the flow engine alone on the 8192-endpoint Clos. A
// seeded flow-churn schedule shaped like bench/micro_flowsim's — slots of
// back-to-back ring jobs (2-4 hosts x 4 channels), pause / resume pulses,
// permanent background flows — plus FaultPlan::random
// degrade / down / restore epochs on leaf-spine links applied through
// Network::set_link_state. No service or policy code runs; a link-state
// change re-solves whole components. Each slot cycles through its jobs, so
// the load never runs out, and every route is prewarmed.
//
// One job in five spans two racks, as in micro_flowsim, but both racks
// belong to one group of four neighbouring racks, and so do the background
// flows' ends: a coupled flow component never spans more than four racks,
// so this workload deliberately does NOT cover the regime of one
// fabric-wide component. With cross-rack jobs between any two racks, the
// coupled component sits at its percolation threshold, where its size, and
// with it the cost of every solve, depends on which jobs a seed happens to
// couple: 20 s runs gave 20k-69k events/s across four seeds. That regime
// needs a workload of its own.
//
// op = one netsim event: flow start, completion, pause, resume or link-state
// change. An episode builds the network and the schedule (setup), then
// times the first 60000 events, about 30 ms of virtual time.

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/stats.h"
#include "mccs_bench/counters.h"
#include "mccs_bench/draws.h"
#include "mccs_bench/harness.h"
#include "netsim/network.h"
#include "sim/event_loop.h"
#include "workload/chaos.h"
#include "workload/fault_plan.h"

namespace bench {
namespace {

using namespace mccs;

/// Jobs planned per slot: an episode's work reaches the second of them.
constexpr int kJobsPerSlot = 4;
constexpr int kItersPerJob = 8;
/// One job in this many spans two racks (20%, as in micro_flowsim), dealt
/// from a deck so every seed has exactly that share.
constexpr int kCrossRackOneIn = 5;
/// A cross-rack job or background flow joins two racks of one group of this
/// many neighbouring racks.
constexpr std::size_t kRackGroup = 4;
/// Virtual span of the fault plan: several times what an episode's work
/// reaches.
constexpr Time kFaultHorizon = 0.2;
constexpr int kFaultEpisodesPerSecond = 400;
/// Netsim events in one episode's work phase (about 0.15 s of host time);
/// the digest covers the first quarter as many flow completions.
constexpr std::uint64_t kEpisodeOps = 60000;

struct IterationPlan {
  std::vector<std::uint64_t> ecmp_keys;  ///< one per ring edge
  Bytes bytes = 0;
  bool pause_pulse = false;  ///< gate edge 0 off and on mid-iteration
  Time pause_after = 0.0;
  Time pause_len = 0.0;
};

struct JobPlan {
  std::vector<NodeId> nics;  ///< ring order; edge i goes nics[i] -> nics[i+channels]
  int channels = 1;
  std::vector<IterationPlan> iterations;
};

struct SlotPlan {
  Time first_start = 0.0;
  std::vector<JobPlan> jobs;
};

struct Schedule {
  std::vector<SlotPlan> slots;
  std::vector<std::pair<NodeId, NodeId>> background;
};

/// A random rack other than `r` in r's group of kRackGroup racks (r itself
/// when the fabric has a single rack).
std::size_t other_rack_in_group(std::size_t r, std::size_t racks, Rng& rng) {
  const std::size_t base = r - r % kRackGroup;
  const std::size_t size = std::min<std::size_t>(kRackGroup, racks - base);
  if (size < 2) return r;
  return base + (r - base + 1 + rng.below(size - 1)) % size;
}

Schedule make_schedule(const cluster::Cluster& cl, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t hosts = cl.host_count();
  std::vector<std::vector<std::uint32_t>> racks;
  for (std::uint32_t h = 0; h < hosts; ++h) {
    const auto r = cl.host(HostId{h}).rack.get();
    if (r >= racks.size()) racks.resize(r + 1);
    racks[r].push_back(h);
  }

  std::vector<bool> cards(kCrossRackOneIn, false);
  cards[0] = true;
  Deck<bool> spans_racks(std::move(cards), rng);
  std::vector<std::size_t> rack_ids(racks.size());
  for (std::size_t r = 0; r < racks.size(); ++r) rack_ids[r] = r;
  Deck<std::size_t> home_racks(std::move(rack_ids), rng);

  Schedule w;
  const std::size_t num_slots = std::max<std::size_t>(2, hosts / 3);
  for (std::size_t s = 0; s < num_slots; ++s) {
    SlotPlan slot;
    slot.first_start = rng.uniform() * millis(2);
    // Slots are dealt to racks evenly; a slot's jobs run on its home rack,
    // and a cross-rack job also on another rack of the home rack's group.
    const std::size_t home = home_racks.next();
    for (int j = 0; j < kJobsPerSlot; ++j) {
      JobPlan job;
      const bool cross_rack = spans_racks.next();
      const std::size_t other =
          cross_rack ? other_rack_in_group(home, racks.size(), rng) : home;
      const int k = 2 + static_cast<int>(rng.below(3));  // 2..4 hosts
      std::vector<std::uint32_t> chosen;
      for (int i = 0; i < k; ++i) {
        const auto& rk = racks[i % 2 == 0 ? home : other];
        chosen.push_back(rk[rng.below(rk.size())]);
      }
      std::vector<std::uint32_t> uniq;
      for (std::uint32_t h : chosen) {
        if (std::find(uniq.begin(), uniq.end(), h) == uniq.end()) uniq.push_back(h);
      }
      if (uniq.size() < 2) uniq.push_back((uniq[0] + 1) % hosts);
      job.channels = std::min<int>(
          4, static_cast<int>(cl.host(HostId{uniq[0]}).nic_nodes.size()));
      for (std::uint32_t h : uniq) {
        for (int c = 0; c < job.channels; ++c) {
          job.nics.push_back(cl.host(HostId{h}).nic_nodes[static_cast<std::size_t>(c)]);
        }
      }
      for (int it = 0; it < kItersPerJob; ++it) {
        IterationPlan ip;
        ip.bytes = 8_MB + rng.below(56) * 1_MB;
        for (std::size_t e = 0; e < job.nics.size(); ++e) {
          ip.ecmp_keys.push_back(rng.engine()());
        }
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
  // One background flow per rack group, between two of its racks.
  for (std::size_t base = 0; base < racks.size(); base += kRackGroup) {
    const std::size_t r0 = base + rng.below(std::min(kRackGroup, racks.size() - base));
    const auto& from = racks[r0];
    const auto& to = racks[other_rack_in_group(r0, racks.size(), rng)];
    w.background.emplace_back(cl.host(HostId{from[rng.below(from.size())]}).nic_nodes[0],
                              cl.host(HostId{to[rng.below(to.size())]}).nic_nodes[0]);
  }
  return w;
}

std::pair<NodeId, NodeId> ring_edge(const JobPlan& job, std::size_t i) {
  const std::size_t n = job.nics.size();
  const NodeId src = job.nics[i];
  NodeId dst = job.nics[(i + job.channels) % n];
  if (src == dst) dst = job.nics[(i + 1) % n];
  return {src, dst};
}

struct State;

/// Drives one slot's job sequence.
struct SlotRunner {
  State* st = nullptr;
  std::uint64_t slot_no = 0;
  std::uint64_t jobs_run = 0;  ///< jobs started so far (cycling the plan)
  std::size_t iter_idx = 0;
  std::size_t outstanding = 0;

  void start_iteration();
  void iteration_done();
};

struct State {
  cluster::Cluster cluster;
  sim::EventLoop loop;
  std::unique_ptr<net::Network> net;
  Schedule schedule;
  std::vector<SlotRunner> runners;
  std::vector<FlowId> background;
  double prewarm_s = 0.0;

  Run* run = nullptr;
  Digest* digest = nullptr;
  std::vector<double> virt_fct_ms;  ///< flow completion times, digest prefix
  bool stopping = false;            ///< no new iterations or fault episodes
  /// Per flow id: 1 live, 2 completed, 3 cancelled by the schedule.
  std::vector<std::uint8_t> flow_state;

  void started(FlowId id) {
    if (flow_state.size() <= id.get()) flow_state.resize(id.get() + 1, 0);
    flow_state[id.get()] = 1;
    run->add_attempted();
    run->add_ops();
  }
  void completed(FlowId id, std::uint64_t lid, Time created, Time at) {
    if (id.get() >= flow_state.size() || flow_state[id.get()] != 1) {
      run->fail("netsim_churn: flow completed twice or was never started");
      return;
    }
    flow_state[id.get()] = 2;
    run->add_ops();
    if (!digest->complete()) {
      digest->record(lid, at);
      virt_fct_ms.push_back((at - created) * 1e3);
    }
  }
};

void SlotRunner::start_iteration() {
  if (st->stopping) return;
  const std::vector<JobPlan>& jobs = st->schedule.slots[slot_no].jobs;
  const JobPlan& job = jobs[jobs_run % jobs.size()];
  const IterationPlan& ip = job.iterations[iter_idx];
  net::Network& net = *st->net;
  outstanding = job.nics.size();
  FlowId first;
  // One coalesced solve for the whole ring launch.
  net.begin_batch();
  for (std::size_t i = 0; i < job.nics.size(); ++i) {
    net::FlowSpec spec;
    std::tie(spec.src, spec.dst) = ring_edge(job, i);
    spec.size = ip.bytes;
    spec.ecmp_key = ip.ecmp_keys[i];
    const std::uint64_t lid = (slot_no << 48) | (jobs_run << 32) | (iter_idx << 16) | i;
    const Time created = st->loop.now();
    spec.on_complete = [this, lid, created](FlowId id, Time at) {
      st->completed(id, lid, created, at);
      if (--outstanding == 0) iteration_done();
    };
    FlowId id;
    {
      Span span(Layer::kNetStartFlow);
      id = net.start_flow(std::move(spec));
    }
    st->started(id);
    if (i == 0) first = id;
  }
  {
    Span span(Layer::kNetBatchClose);
    net.end_batch();
  }
  if (ip.pause_pulse) {
    State* s = st;
    auto gate = [s, first](bool pause) {
      if (!s->net->flow_active(first)) return;
      {
        Span span(Layer::kNetPauseResume);
        if (pause) {
          s->net->pause_flow(first);
        } else {
          s->net->resume_flow(first);
        }
      }
      s->run->add_attempted();
      s->run->add_ops();
    };
    const Time t0 = st->loop.now() + ip.pause_after;
    st->loop.schedule_at(t0, [gate] { gate(true); });
    st->loop.schedule_at(t0 + ip.pause_len, [gate] { gate(false); });
  }
}

void SlotRunner::iteration_done() {
  if (++iter_idx == kItersPerJob) {
    iter_idx = 0;
    ++jobs_run;
  }
  st->loop.schedule_after(millis(1), [this] { start_iteration(); });
}

std::unique_ptr<State> build(Run& run, std::uint64_t seed) {
  auto st = std::make_unique<State>();
  st->run = &run;
  const bool smoke = run.smoke();
  st->cluster = cluster::make_scaled_sim_cluster(smoke ? 768 : 8192);
  st->schedule = make_schedule(st->cluster, seed);
  st->net = std::make_unique<net::Network>(st->loop, st->cluster.topology());
  net::Network& net = *st->net;

  std::size_t lifetime = st->schedule.background.size();
  std::size_t peak = lifetime;
  for (const SlotPlan& slot : st->schedule.slots) {
    std::size_t slot_peak = 0;
    for (const JobPlan& job : slot.jobs) {
      slot_peak = std::max(slot_peak, job.nics.size());
      lifetime += job.iterations.size() * job.nics.size();
    }
    peak += slot_peak;
  }
  net.reserve_flows(peak, lifetime);

  const double t0 = work_clock().now();
  const net::Routing& routing = net.routing();
  for (const auto& [src, dst] : st->schedule.background) routing.paths(src, dst);
  for (const SlotPlan& slot : st->schedule.slots) {
    for (const JobPlan& job : slot.jobs) {
      for (std::size_t i = 0; i < job.nics.size(); ++i) {
        const auto [src, dst] = ring_edge(job, i);
        routing.paths(src, dst);
      }
    }
  }
  st->prewarm_s = work_clock().now() - t0;

  for (const auto& [src, dst] : st->schedule.background) {
    st->background.push_back(net.start_flow(
        {.src = src, .dst = dst, .background_demand = gbps(40), .on_complete = {}}));
  }

  State* s = st.get();
  st->runners.resize(st->schedule.slots.size());
  for (std::size_t i = 0; i < st->runners.size(); ++i) {
    st->runners[i] = SlotRunner{s, i, 0, 0, 0};
    st->loop.schedule_at(st->schedule.slots[i].first_start,
                         [s, i] { s->runners[i].start_iteration(); });
  }

  // Link faults: down/degrade episodes on leaf-spine links, each paired with
  // a restore. Restores always apply, so every stalled flow finishes at drain.
  workload::FaultPlan::RandomOptions fo;
  fo.horizon = kFaultHorizon;
  fo.targets = workload::fabric_links(st->cluster);
  fo.episodes = static_cast<int>(kFaultEpisodesPerSecond * kFaultHorizon);
  fo.degrade_prob = 0.5;
  fo.min_outage = millis(1);
  fo.max_outage = millis(10);
  const workload::FaultPlan plan =
      workload::FaultPlan::random(seed * 0x9e3779b97f4a7c15ull + 0xfa, fo);
  for (const workload::FaultEvent& ev : plan.events()) {
    st->loop.schedule_at(ev.at, [s, ev] {
      net::LinkState state = net::LinkState::kUp;
      if (ev.kind == workload::FaultEvent::Kind::kLinkDown) state = net::LinkState::kDown;
      if (ev.kind == workload::FaultEvent::Kind::kLinkDegrade) {
        state = net::LinkState::kDegraded;
      }
      if (s->stopping && state != net::LinkState::kUp) return;
      {
        Span span(Layer::kNetLinkState);
        s->net->set_link_state(ev.link, state, ev.fraction);
      }
      s->run->add_attempted();
      s->run->add_ops();
    });
  }
  return st;
}

}  // namespace

void run_netsim_churn(Run& run) {
  const std::uint64_t episode_ops = run.smoke() ? 2000 : kEpisodeOps;
  while (run.next_episode()) {
    std::unique_ptr<State> st = run.build([&run] { return build(run, run.episode_seed()); });
    net::Network& net = *st->net;
    Digest digest(episode_ops / 4);
    st->digest = &digest;
    run.watch_network(&net);

    const NetCounters before = NetCounters::read(net);
    const Time v0 = st->loop.now();
    run.begin_work();
    run.step_until_ops(st->loop, episode_ops);
    run.end_work();
    const Time v1 = st->loop.now();
    const NetCounters after = NetCounters::read(net);

    // Drain: no new iterations or faults; in-flight flows, pulses and
    // restores run out, then the schedule cancels its background flows.
    st->stopping = true;
    st->loop.run();
    for (FlowId id : st->background) {
      net.cancel_flow(id);
      st->flow_state[id.get()] = 3;
    }
    for (std::uint8_t state : st->flow_state) {
      if (state == 1) run.fail("netsim_churn: flow still active at drain");
    }
    if (net.active_flow_count() != 0) run.fail("netsim_churn: network not empty at drain");

    if (run.first_episode()) {
      report_net(run, before, after);
      run.metric("routing.prewarm_s", st->prewarm_s, "s");
      sort_samples(st->virt_fct_ms);
      run.metric("virt_fct_ms_p50", percentile_sorted(st->virt_fct_ms, 50.0), "ms");
      run.metric("virt_fct_ms_p99", percentile_sorted(st->virt_fct_ms, 99.0), "ms");
      run.metric("virt_work_ms", (v1 - v0) * 1e3, "ms");
    }
    run.digest(digest);
  }
}

}  // namespace bench

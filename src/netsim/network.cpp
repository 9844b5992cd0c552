#include "netsim/network.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

namespace mccs::net {
namespace {

constexpr double kRateEpsilon = 1e-9;  // bytes/s below which a rate is "zero"

}  // namespace

/// Weighted max-min fair allocation with per-flow caps (progressive filling),
/// scoped to one bottleneck component. `residual` and `weight_on_link` are
/// link-indexed scratch arrays owned by the caller; only entries on the
/// flows' paths are read or written, so the caller can reuse them across
/// calls without O(link_count) re-initialisation. The caller loads those
/// links' `residual` capacity; their `weight_on_link` is zeroed here.
///
/// Returns true on a clean solve. A pathological capacity state (an
/// unconstrained flow, or an iteration that cannot fix anything) pins the
/// remaining unfixed flows at rate zero, appends their slots to
/// `unsatisfied`, and returns false — degrading those flows instead of
/// aborting the service. Each round of the fill adds one to `rounds`.
bool Network::max_min_allocate(std::vector<AllocFlow>& flows,
                               std::vector<Bandwidth>& residual,
                               std::vector<double>& weight_on_link,
                               std::vector<std::uint32_t>& unsatisfied,
                               std::uint64_t& rounds) {
  auto pin_unfixed_at_zero = [&flows, &unsatisfied] {
    for (AllocFlow& f : flows) {
      if (f.fixed) continue;
      f.rate = 0.0;
      f.fixed = true;
      unsatisfied.push_back(f.slot);
    }
    return false;
  };
  if (flows.empty()) return true;

  // Per-link unfixed weight sums.
  for (const AllocFlow& f : flows) {
    for (LinkId l : f.path) weight_on_link[l.get()] = 0.0;
  }
  for (const AllocFlow& f : flows) {
    for (LinkId l : f.path) weight_on_link[l.get()] += f.weight;
  }

  std::size_t unfixed = flows.size();
  while (unfixed > 0) {
    ++rounds;
    // Find the tightest constraint: either a link's fair share-per-weight or
    // a flow's own cap-per-weight (the cap acts as a private pseudo-link).
    double best_share = std::numeric_limits<double>::infinity();
    for (const AllocFlow& f : flows) {
      if (f.fixed) continue;
      for (LinkId l : f.path) {
        const double w = weight_on_link[l.get()];
        if (w > 0.0) {
          best_share = std::min(best_share, std::max(residual[l.get()], 0.0) / w);
        }
      }
      if (std::isfinite(f.cap)) best_share = std::min(best_share, f.cap / f.weight);
    }
    if (!std::isfinite(best_share)) return pin_unfixed_at_zero();

    // Fix every unfixed flow that is bound by this share: flows whose cap is
    // reached, and flows crossing a link whose residual-per-weight equals it.
    bool fixed_any = false;
    for (AllocFlow& f : flows) {
      if (f.fixed) continue;
      bool bound = std::isfinite(f.cap) && f.cap / f.weight <= best_share * (1 + 1e-12);
      if (!bound) {
        for (LinkId l : f.path) {
          const double w = weight_on_link[l.get()];
          if (w > 0.0 &&
              std::max(residual[l.get()], 0.0) / w <= best_share * (1 + 1e-12)) {
            bound = true;
            break;
          }
        }
      }
      if (!bound) continue;
      f.rate = best_share * f.weight;
      f.fixed = true;
      fixed_any = true;
      --unfixed;
      for (LinkId l : f.path) {
        residual[l.get()] -= f.rate;
        weight_on_link[l.get()] -= f.weight;
      }
    }
    if (!fixed_any) return pin_unfixed_at_zero();
  }
  return true;
}

void Network::reserve_flows(std::size_t concurrent, std::size_t lifetime) {
  hot_remaining_.reserve(concurrent);
  hot_rate_.reserve(concurrent);
  hot_last_update_.reserve(concurrent);
  hot_mark_.reserve(concurrent);
  param_.reserve(concurrent);
  cold_.reserve(concurrent);
  link_pos_.reserve(concurrent);
  live_next_.reserve(concurrent);
  live_prev_.reserve(concurrent);
  free_slots_.reserve(concurrent);
  comp_flows_.reserve(concurrent);
  comp_links_.reserve(topo_->link_count());
  batch_seed_links_.reserve(topo_->link_count());
  id_to_slot_.reserve(lifetime);
}

void Network::set_telemetry(telemetry::Telemetry* t) {
  telemetry_ = t;
  if (t != nullptr) {
    solves_counter_ = &t->metrics().counter("netsim_solves_total");
    coalesced_counter_ = &t->metrics().counter("netsim_coalesced_flows_total");
    // The members are authoritative from construction; a late attach (the
    // Fabric wires telemetry right after constructing the network) catches
    // the registry up so both views agree.
    if (solves_counter_->value() < stats_.solves) {
      solves_counter_->increment(stats_.solves - solves_counter_->value());
    }
    if (coalesced_counter_->value() < coalesced_flows_total_) {
      coalesced_counter_->increment(coalesced_flows_total_ -
                                    coalesced_counter_->value());
    }
  } else {
    solves_counter_ = nullptr;
    coalesced_counter_ = nullptr;
  }
}

Network::StorageFootprint Network::flow_state_footprint() {
  StorageFootprint f;
  f.hot = sizeof(Bytes) + sizeof(Bandwidth) + sizeof(Time) +
          sizeof(std::uint64_t);
  f.param = sizeof(FlowParam);
  f.cold = sizeof(FlowCold);
  return f;
}

std::uint32_t Network::acquire_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(param_.size());
    hot_remaining_.push_back(0.0);
    hot_rate_.push_back(0.0);
    hot_last_update_.push_back(0.0);
    hot_mark_.push_back(0);
    param_.emplace_back();
    cold_.emplace_back();
    link_pos_.emplace_back();
    live_next_.push_back(kNoSlot);
    live_prev_.push_back(kNoSlot);
  }
  // Link at the tail. Ids are monotone, so tail insertion keeps the live
  // list in ascending-id order — active_flows() walks it sorted for free.
  live_next_[slot] = kNoSlot;
  live_prev_[slot] = live_tail_;
  if (live_tail_ != kNoSlot) {
    live_next_[live_tail_] = slot;
  } else {
    live_head_ = slot;
  }
  live_tail_ = slot;
  ++live_count_;
  return slot;
}

void Network::release_slot(std::uint32_t slot) {
  const std::uint32_t prev = live_prev_[slot];
  const std::uint32_t next = live_next_[slot];
  (prev != kNoSlot ? live_next_[prev] : live_head_) = next;
  (next != kNoSlot ? live_prev_[next] : live_tail_) = prev;
  --live_count_;
  id_to_slot_[param_[slot].seq] = kNoSlot;
  // Drop the cold section's owned state (the on_complete closure in
  // particular) so a recycled slot cannot leak or observe a prior tenant.
  MCCS_ASSERT(cold_[slot].cohort == kNoCohort);
  cold_[slot].spec = FlowSpec{};
  cold_[slot].completion = {};
  cold_[slot].completion_at = kNoCompletion;
  param_[slot].path = {};
  free_slots_.push_back(slot);
}

FlowId Network::start_flow(FlowSpec spec) {
  MCCS_EXPECTS(spec.src != spec.dst);
  MCCS_EXPECTS(spec.background_demand > 0.0 || spec.size > 0);
  MCCS_EXPECTS(spec.weight > 0.0);

  const std::uint32_t id = next_flow_id_++;
  const PathView route =
      spec.route.valid() ? routing_.by_route_id(spec.src, spec.dst, spec.route)
                         : routing_.by_ecmp(spec.src, spec.dst, spec.ecmp_key);

  const std::uint32_t slot = acquire_slot();
  MCCS_ASSERT(id_to_slot_.size() == id);
  id_to_slot_.push_back(slot);

  hot_remaining_[slot] = static_cast<double>(spec.size);
  hot_rate_[slot] = 0.0;
  hot_last_update_[slot] = loop_->now();
  hot_mark_[slot] = 0;

  FlowParam& p = param_[slot];
  p.path = route;
  p.rate_cap = spec.rate_cap;
  p.weight = spec.weight;
  p.background_demand = spec.background_demand;
  p.seq = id;
  p.started = false;
  p.paused = false;

  FlowCold& c = cold_[slot];
  c.created = loop_->now();
  const Time latency = spec.start_latency;
  c.spec = std::move(spec);

  if (latency > 0.0) {
    // A latent flow waits in an activation cohort. With coalescing, latent
    // flows sharing one exact activation instant (a collective launch posts
    // its chunk flows in one handler with one start latency) share one: its
    // event sits at the seq position the first member's own activation
    // would have held, so ordering against other same-instant events is
    // unchanged, and the cohort solves once. Keyed by the bit pattern of the
    // instant, so membership is exact-FP, never epsilon. Without coalescing
    // no cohort stays open, so every latent flow gets one of its own.
    const Time at = loop_->now() + latency;
    std::uint64_t key = 0;
    static_assert(sizeof(key) == sizeof(at));
    std::memcpy(&key, &at, sizeof(key));
    const auto open = std::lower_bound(
        open_activations_.begin(), open_activations_.end(), key,
        [](const auto& o, std::uint64_t k) { return o.first < k; });
    std::uint32_t idx;
    if (open != open_activations_.end() && open->first == key) {
      idx = open->second;
    } else {
      idx = open_cohort(at);
      if (options_.coalesce) open_activations_.insert(open, {key, idx});
    }
    add_member(idx, slot);
  } else {
    p.started = true;
    insert_into_index(slot);
    reallocate(p.path);
  }
  return FlowId{id};
}

std::uint32_t Network::open_cohort(Time at) {
  std::uint32_t idx;
  if (!free_cohorts_.empty()) {
    idx = free_cohorts_.back();
    free_cohorts_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(cohorts_.size());
    cohorts_.emplace_back();
  }
  cohorts_[idx].event =
      loop_->schedule_at(at, [this, idx] { fire_cohort(idx); });
  return idx;
}

void Network::add_member(std::uint32_t idx, std::uint32_t slot) {
  cohorts_[idx].members.push_back(param_[slot].seq);
  ++cohorts_[idx].live;
  cold_[slot].cohort = idx;
}

void Network::leave_cohort(std::uint32_t slot) {
  const std::uint32_t idx = cold_[slot].cohort;
  if (idx == kNoCohort) return;
  cold_[slot].cohort = kNoCohort;
  if (--cohorts_[idx].live == 0) close_cohort(idx);
}

void Network::close_cohort(std::uint32_t idx) {
  Cohort& co = cohorts_[idx];
  loop_->cancel(co.event);  // a no-op once it fired
  std::erase_if(open_activations_,
                [idx](const auto& o) { return o.second == idx; });
  co.members.clear();
  co.live = 0;
  co.event = {};
  free_cohorts_.push_back(idx);
}

void Network::fire_cohort(std::uint32_t idx) {
  // Members fire in enrollment order: start order (== ascending id, the
  // order per-flow activations would fire in) for an activation cohort, the
  // solve's (instant, id) order for a completion cohort. Completion
  // callbacks may cancel or pause later members (those leave, and the walk
  // skips them) and may open cohorts, which can grow the pool, so the walk
  // re-indexes it. Fired members still count in `live`, so no leave can
  // close this record before the walk and its batch-close solve are done.
  begin_batch();
  for (std::size_t i = 0; i < cohorts_[idx].members.size(); ++i) {
    const std::uint32_t id = cohorts_[idx].members[i];
    const std::uint32_t slot = slot_of(id);
    if (slot == kNoSlot || cold_[slot].cohort != idx) continue;  // left
    cold_[slot].cohort = kNoCohort;
    FlowParam& p = param_[slot];
    if (p.started) {
      complete_flow(id);
      continue;
    }
    p.started = true;
    hot_last_update_[slot] = loop_->now();
    if (p.paused) continue;  // paused while latent; resume_flow picks it up
    insert_into_index(slot);
    reallocate(p.path);
  }
  end_batch();
  close_cohort(idx);
}

void Network::schedule_pending_completions() {
  // One list feeds both modes, in (instant, flow id) order. It arrives label
  // by label (each sub-component applies on its own, and labels come in seed
  // order), so it is sorted here. Events at distinct instants never contend
  // for queue position, and same-instant events fire in schedule order, so
  // breaking ties by id makes a solve's same-instant completions fire in
  // ascending flow id whichever labels derived them. With coalescing, flows
  // sharing a bit-identical instant (a symmetric cascade: equal sizes, equal
  // rates) share one cohort event instead of N, and the cohort fires its
  // members in that same order; the common case — every instant distinct —
  // costs one per-flow event each, as without coalescing.
  std::sort(pending_completions_.begin(), pending_completions_.end(),
            [](const PendingCompletion& a, const PendingCompletion& b) {
              return a.bits != b.bits ? a.bits < b.bits : a.id < b.id;
            });
  const std::size_t n = pending_completions_.size();
  for (std::size_t i = 0; i < n;) {
    const PendingCompletion& first = pending_completions_[i];
    const Time at = cold_[first.slot].completion_at;
    std::size_t j = i + 1;
    while (options_.coalesce && j < n &&
           pending_completions_[j].bits == first.bits) {
      ++j;
    }
    if (j == i + 1) {
      const std::uint32_t id = first.id;
      cold_[first.slot].completion =
          loop_->schedule_at(at, [this, id] { complete_flow(id); });
      i = j;
      continue;
    }
    const std::uint32_t idx = open_cohort(at);
    for (; i < j; ++i) add_member(idx, pending_completions_[i].slot);
  }
  pending_completions_.clear();
}

void Network::cancel_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id.get());
  if (slot == kNoSlot) return;
  loop_->cancel(cold_[slot].completion);
  leave_cohort(slot);
  const bool was_allocated = allocatable(slot);
  if (was_allocated) remove_from_index(slot);
  emit_flow_span(slot, /*completed=*/false);
  // The routed path outlives the slot, so the view stays valid as a seed.
  const PathView path = param_[slot].path;
  release_slot(slot);
  // A latent or paused flow had rate 0 and constrained nobody.
  if (was_allocated) reallocate(path);
}

void Network::pause_flow(FlowId id) {
  const std::uint32_t slot = checked_slot(id.get());
  FlowParam& p = param_[slot];
  if (p.paused) return;
  p.paused = true;
  if (!p.started) return;  // latent: was never allocated
  touch(slot, loop_->now());
  remove_from_index(slot);
  hot_rate_[slot] = 0.0;
  loop_->cancel(cold_[slot].completion);
  cold_[slot].completion = {};
  cold_[slot].completion_at = kNoCompletion;
  leave_cohort(slot);
  reallocate(p.path);
}

void Network::resume_flow(FlowId id) {
  const std::uint32_t slot = checked_slot(id.get());
  FlowParam& p = param_[slot];
  if (!p.paused) return;
  p.paused = false;
  if (!p.started) return;  // activation will insert it
  hot_last_update_[slot] = loop_->now();
  insert_into_index(slot);
  reallocate(p.path);
}

Bandwidth Network::flow_rate(FlowId id) const {
  return hot_rate_[checked_slot(id.get())];
}

Bytes Network::flow_remaining(FlowId id) const {
  const std::uint32_t slot = checked_slot(id.get());
  // Lazy progress: integrate the stored counter forward to now on read.
  double rem = hot_remaining_[slot];
  if (allocatable(slot) && param_[slot].background_demand <= 0.0) {
    rem -= hot_rate_[slot] * (loop_->now() - hot_last_update_[slot]);
  }
  return static_cast<Bytes>(std::ceil(std::max(rem, 0.0)));
}

PathView Network::flow_path(FlowId id) const {
  return param_[checked_slot(id.get())].path;
}

const FlowSpec& Network::flow_spec(FlowId id) const {
  return cold_[checked_slot(id.get())].spec;
}

std::vector<FlowId> Network::active_flows() const {
  std::vector<FlowId> out;
  out.reserve(live_count_);
  for (std::uint32_t s = live_head_; s != kNoSlot; s = live_next_[s]) {
    out.push_back(FlowId{param_[s].seq});
  }
  return out;
}

void Network::set_link_state(LinkId id, LinkState state, double capacity_fraction) {
  MCCS_EXPECTS(id.get() < links_.size());
  double scale = 1.0;
  switch (state) {
    case LinkState::kUp:
      scale = 1.0;
      break;
    case LinkState::kDegraded:
      MCCS_EXPECTS(capacity_fraction > 0.0 && capacity_fraction <= 1.0);
      scale = capacity_fraction;
      break;
    case LinkState::kDown:
      scale = 0.0;
      break;
  }
  if (link_states_[id.get()] == state && capacity_scale_[id.get()] == scale) return;
  link_states_[id.get()] = state;
  capacity_scale_[id.get()] = scale;
  // The link is its own seed: every flow crossing it (and their bottleneck
  // component) re-solves; everyone else keeps their rates and events.
  const LinkId seed = id;
  reallocate(PathView{&seed, 1});
}

void Network::insert_into_index(std::uint32_t slot) {
  const FlowParam& p = param_[slot];
  const bool normal = p.background_demand <= 0.0;
  const Bandwidth rate = hot_rate_[slot];
  std::vector<std::uint32_t>& pos = link_pos_[slot];
  pos.clear();  // capacity is recycled with the slot
  for (std::uint32_t k = 0; k < p.path.size(); ++k) {
    LinkIndex& li = links_[p.path[k].get()];
    pos.push_back(static_cast<std::uint32_t>(li.flows.size()));
    li.flows.push_back(LinkIndex::Member{slot, k});
    li.throughput += rate;
    if (normal) ++li.normal_count;
  }
}

void Network::remove_from_index(std::uint32_t slot) {
  const FlowParam& p = param_[slot];
  const bool normal = p.background_demand <= 0.0;
  const Bandwidth rate = hot_rate_[slot];
  const std::vector<std::uint32_t>& pos = link_pos_[slot];
  MCCS_ASSERT(pos.size() == p.path.size());
  for (std::uint32_t k = 0; k < p.path.size(); ++k) {
    LinkIndex& li = links_[p.path[k].get()];
    const std::uint32_t i = pos[k];
    MCCS_ASSERT(i < li.flows.size() && li.flows[i].slot == slot);
    // O(1) swap-remove at the backpointer position — the same position a
    // linear scan would find, so member order (and therefore the FP
    // accumulation order of the throughput refresh) evolves identically.
    const LinkIndex::Member moved = li.flows.back();
    li.flows[i] = moved;
    if (moved.slot != slot) link_pos_[moved.slot][moved.pos] = i;
    li.flows.pop_back();
    li.throughput -= rate;
    if (normal) {
      MCCS_ASSERT(li.normal_count > 0);
      --li.normal_count;
    }
  }
}

void Network::collect_component(PathView seed) {
  ++epoch_;
  comp_flows_.clear();
  comp_links_.clear();
  comps_.clear();
  auto mark_link = [this](LinkId l) {
    link_mark_[l.get()] = epoch_;
    comp_links_.push_back(l.get());
    // Effective capacity folds in the administrative link state: degraded
    // links keep a fraction, down links contribute zero (their flows come
    // out of the solve at rate zero and simply stall — no completion event).
    residual_[l.get()] = topo_->link(l).capacity * capacity_scale_[l.get()];
  };
  // BFS over links from `start` under a fresh sub-component label: any flow
  // on a reached link joins it and contributes its own links to the
  // frontier. Sub-components share no link, so each BFS reaches only links
  // no earlier one did, and the flows it reaches form one contiguous range
  // of comp_flows_.
  auto discover = [this, &mark_link](LinkId start, bool dirty) {
    const auto begin = static_cast<std::uint32_t>(comp_flows_.size());
    const std::size_t from = comp_links_.size();
    mark_link(start);
    for (std::size_t i = from; i < comp_links_.size(); ++i) {
      for (const LinkIndex::Member m : links_[comp_links_[i]].flows) {
        if (hot_mark_[m.slot] == epoch_) continue;
        hot_mark_[m.slot] = epoch_;
        const FlowParam& p = param_[m.slot];
        comp_flows_.push_back(std::uint64_t{p.seq} << 32 | m.slot);
        for (LinkId l : p.path) {
          if (link_mark_[l.get()] != epoch_) mark_link(l);
        }
      }
    }
    // Ascending id within the label matches across collection modes and
    // solve groupings bit for bit (the solver's floating-point results
    // depend on per-link accumulation order). The packed key sorts by id
    // without a lookup. Labels share no link, so their relative order
    // reaches no rate and nothing sorts across them.
    std::sort(comp_flows_.begin() + begin, comp_flows_.end());
    comps_.push_back(
        SubComp{begin, static_cast<std::uint32_t>(comp_flows_.size()), dirty});
  };
  // Seed links are always included (even if now memberless, which yields an
  // empty label) so their index throughput is refreshed after a removal.
  for (LinkId l : seed) {
    if (link_mark_[l.get()] != epoch_) discover(l, /*dirty=*/true);
  }
  if (!options_.incremental) {
    // Every marked link's members are visited, so an unvisited allocatable
    // flow's first link is unmarked and starts a component of its own.
    for (std::uint32_t s = live_head_; s != kNoSlot; s = live_next_[s]) {
      if (allocatable(s) && hot_mark_[s] != epoch_) {
        discover(param_[s].path.front(), /*dirty=*/false);
      }
    }
  }
}

void Network::reallocate(PathView seed) {
  if (batch_depth_ > 0) {
    // Deferred: fold the seed into the batch's dirty-link union (the seed
    // views point at the routing's path arena or at set_link_state's stack
    // slot, so the links are copied out here, synchronously) and solve once
    // at batch close. Zero virtual time elapses before that solve, so the
    // skipped intermediate rate states would have transferred zero bytes and
    // their completion events would all be superseded — the coalesced solve
    // is semantically identical (DESIGN.md §15).
    MCCS_CHECK(loop_->now() == batch_time_,
               "virtual time advanced inside a solve batch");
    for (LinkId l : seed) {
      if (batch_link_mark_[l.get()] != batch_epoch_) {
        batch_link_mark_[l.get()] = batch_epoch_;
        batch_seed_links_.push_back(l);
      }
    }
    ++batch_pending_;
    return;
  }
  solve_now(seed);
}

void Network::solve_now(PathView seed) {
  timing_ = stats_.solves++ % kTimedSolveStride == 0;
  if (timing_) {
    ++stats_.timed;
    lap_start_ = std::chrono::steady_clock::now();
  }
  if (solves_counter_ != nullptr) solves_counter_->increment();
  collect_component(seed);
  lap(stats_.discover_s);
  allocate_component();  // laps the solve, schedule and refresh phases
  timing_ = false;
}

void Network::begin_batch() {
  if (!options_.coalesce) return;
  if (batch_depth_++ == 0) {
    batch_time_ = loop_->now();
    ++batch_epoch_;
    MCCS_ASSERT(batch_seed_links_.empty() && batch_pending_ == 0);
  }
}

void Network::end_batch() {
  if (!options_.coalesce) return;
  MCCS_CHECK(batch_depth_ > 0, "end_batch without a matching begin_batch");
  if (--batch_depth_ > 0) return;  // nested close: the outermost one solves
  if (batch_pending_ == 0) return;  // empty batch: nothing changed, no solve
  MCCS_CHECK(loop_->now() == batch_time_,
             "virtual time advanced inside a solve batch");
  ++batches_total_;
  coalesced_flows_total_ += batch_pending_;
  if (coalesced_counter_ != nullptr) {
    coalesced_counter_->increment(batch_pending_);
  }
  batch_pending_ = 0;
  // The union seed lives in batch_seed_links_ for the duration of the solve
  // (nothing appends while the depth is zero); one component discovery from
  // the union covers every flow any deferred mutation could have re-rated.
  solve_now(PathView{batch_seed_links_.data(), batch_seed_links_.size()});
  batch_seed_links_.clear();
}

void Network::allocate_component() {
  const Time now = loop_->now();
  stats_.flows += comp_flows_.size();
  stats_.links += comp_links_.size();
  stats_.labels += comps_.size();

  // Solve each discovery-labelled sub-component on its own. A multi-link
  // seed — a completed or cancelled flow's path, a failed link, a batch's
  // dirty-link union — can gather flows that share no link with each other.
  // A joint solve of such a set is NOT arithmetically the separate solves:
  // max_min_allocate binds every flow whose share is within a 1e-12 relative
  // tolerance of the round's best share, so one sub-component's bottleneck
  // could fix another's flows at a near-equal rate. Solving each
  // sub-component alone makes its rates a function of its own content only,
  // which is what lets a batch's union solve reproduce the per-mutation
  // solves bit for bit (DESIGN.md §15). Label order is irrelevant: the
  // sub-components touch disjoint entries of the shared link-indexed scratch
  // (residual_, loaded at discovery, and weight_scratch_) and disjoint flows,
  // so each label is filled, solved and applied before the next. Each flow
  // list is filled from the label's id-sorted range, the order the solver's
  // floating point depends on. Background flows take their demand with
  // strict priority first, sharing capacity weighted by demand if
  // oversubscribed; normal flows max-min share the remainder.
  //
  // Apply: a flow in a clean sub-component whose rate is bitwise unchanged
  // keeps its rate, its un-integrated progress, and its already-scheduled
  // completion event — the lazy fast path that lets an untouched bottleneck
  // component cost nothing (a component whose flow set did not change
  // re-derives the identical bits: the solve iterates flows in ascending id
  // order, so its arithmetic depends only on the component's content, never
  // on the seed that found it). Exact comparison, not an epsilon: a
  // tolerance would let a flow keep running at a stale near-equal rate, and
  // *which* intermediate rate it kept would depend on how the mutations
  // that produced this state were grouped into solves — breaking the
  // batched/unbatched completion-time identity that solve coalescing is
  // built on.
  //
  // touch() runs BEFORE the fast-path continue for every flow in a dirty
  // sub-component. Progress integration r*(t1-t0) + r*(t2-t1) is not bitwise
  // equal to r*(t2-t0) in floating point, so *where* the integration
  // interval is split must itself be identical across solve groupings.
  // Touching every dirty-component flow pins the split points to "instants
  // at which this flow's component contained a mutated link" — a pure
  // function of the mutation timeline, not of whether a same-instant
  // up-then-back rate excursion was observed (one solve per mutation) or
  // coalesced away (one batched solve sees no net change), and not of
  // whether collection was component-scoped or global (reference mode
  // collects clean components too; their flows must keep their anchors).
  // Dirty-component flows also RE-DERIVE their completion event from the
  // fresh anchor even when the rate is unchanged: `t0 + rem(t0)/r` and
  // `t1 + rem(t1)/r` name the same mathematical instant but round
  // differently, so keeping an event computed from an older anchor while
  // the other grouping re-derives it (because it observed a transient
  // up-then-back rate excursion) would split the completion by one ulp.
  // The extra cost is two loads and a store per dirty flow, inside a loop
  // that already visits it, plus one event reschedule per dirty flow.
  unsatisfied_scratch_.clear();
  bool solved = true;
  for (const SubComp& sc : comps_) {
    if (sc.begin == sc.end) continue;  // a memberless seed link's label
    alloc_background_.clear();
    alloc_normal_.clear();
    for (std::uint32_t k = sc.begin; k < sc.end; ++k) {
      const auto s = static_cast<std::uint32_t>(comp_flows_[k]);  // the slot
      const FlowParam& p = param_[s];
      if (p.background_demand > 0.0) {
        alloc_background_.push_back(
            AllocFlow{s, p.path, p.background_demand, p.background_demand});
      } else {
        alloc_normal_.push_back(AllocFlow{s, p.path, p.weight, p.rate_cap});
      }
    }
    const bool bg_ok =
        max_min_allocate(alloc_background_, residual_, weight_scratch_,
                         unsatisfied_scratch_, stats_.rounds);
    const bool normal_ok =
        max_min_allocate(alloc_normal_, residual_, weight_scratch_,
                         unsatisfied_scratch_, stats_.rounds);
    solved = solved && bg_ok && normal_ok;

    for (const AllocFlow& a : alloc_background_) hot_rate_[a.slot] = a.rate;
    for (const AllocFlow& a : alloc_normal_) {
      const std::uint32_t s = a.slot;
      if (sc.dirty || a.rate != hot_rate_[s]) {
        touch(s, now);  // integrate at the old rate first
      }
      if (!sc.dirty && a.rate == hot_rate_[s]) continue;
      hot_rate_[s] = a.rate;
      FlowCold& c = cold_[s];
      loop_->cancel(c.completion);
      c.completion = {};
      leave_cohort(s);
      // Completion-instant clamp: a flow whose completion is already queued
      // at this very instant IS finished — see FlowCold::completion_at.
      // Forcing remaining to zero here makes the re-derived completion land
      // at `now` again instead of one ulp later from quotient-rounding
      // residue.
      if (c.completion_at == now) hot_remaining_[s] = 0.0;
      // `now + eta` is bit for bit the instant schedule_after(eta) would
      // compute, so flows that would have completed in one same-instant
      // cascade of per-flow events share one instant here. A stalled flow
      // (rate ~ 0, bytes left) gets no completion.
      if (hot_remaining_[s] <= 0.0) {
        c.completion_at = now + 0.0;  // already delivered: complete "now"
      } else if (hot_rate_[s] > kRateEpsilon) {
        c.completion_at = now + hot_remaining_[s] / hot_rate_[s];
      } else {
        c.completion_at = kNoCompletion;
        continue;
      }
      PendingCompletion pc{0, param_[s].seq, s};
      static_assert(sizeof(pc.bits) == sizeof(c.completion_at));
      std::memcpy(&pc.bits, &c.completion_at, sizeof(pc.bits));
      pending_completions_.push_back(pc);
    }
  }
  if (!solved) {
    ++allocation_error_count_;
    if (allocation_error_handler_) {
      AllocationError err;
      err.at = now;
      err.flows.reserve(unsatisfied_scratch_.size());
      for (std::uint32_t s : unsatisfied_scratch_) {
        err.flows.push_back(FlowId{param_[s].seq});
      }
      std::sort(err.flows.begin(), err.flows.end());
      // Fresh event: the handler may mutate the flow set (cancel the
      // offending flows, start replacements) without re-entering this solve.
      loop_->schedule_after(0.0, [this, err = std::move(err)] {
        if (allocation_error_handler_) allocation_error_handler_(err);
      });
    }
  }
  lap(stats_.solve_s);
  // Completions go on the loop as fresh events (never completed inline, for
  // re-entrancy), after the error report: it precedes any completion due at
  // this instant.
  stats_.completions += pending_completions_.size();
  schedule_pending_completions();
  lap(stats_.schedule_s);

  // Refresh the touched links' monitored throughput from their members'
  // fresh rates (exact recomputation, so incremental updates cannot drift).
  // The utilization sampler integrates the *outgoing* rate over the interval
  // it was in force before the new one replaces it, and (enabled mode only)
  // drops a counter sample on the timeline when the rate actually changed.
  //
  // Each link's refresh reads only that link, so the links go in discovery
  // order, unsorted. That order depends on the seed that reached the
  // component, and reaches only the key order of the link_gbps sample: the
  // timeline merges a same-instant sample over the same link set into the
  // previous one in any key order (Timeline::counter; NetsimBatch.SameInstant-
  // SolvesFromDifferentSeedsShareOneLinkSample).
  const bool record = telemetry_ != nullptr && telemetry_->enabled();
  if (record) counter_scratch_.clear();
  for (std::uint32_t l : comp_links_) {
    LinkIndex& li = links_[l];
    Bandwidth total = 0.0;
    for (const LinkIndex::Member m : li.flows) total += hot_rate_[m.slot];
    link_bytes_[l] += li.throughput * (now - link_sample_time_[l]);
    link_sample_time_[l] = now;
    if (record && total != li.throughput) {
      if (link_track_ < 0) {
        link_track_ = telemetry_->timeline().track("netsim", "links");
        link_counter_names_.resize(links_.size());
        for (std::size_t i = 0; i < links_.size(); ++i) {
          link_counter_names_[i] = "link" + std::to_string(i);
        }
        counter_scratch_.reserve(links_.size());
      }
      counter_scratch_.push_back(
          {link_counter_names_[l].c_str(), total * 8.0 / 1e9});
    }
    li.throughput = total;
  }
  if (record && !counter_scratch_.empty()) {
    // All links whose allocated rate changed in this reallocation, batched
    // into one "link_gbps" sample (a series per link in the counter chart).
    // Coalesced across same-virtual-instant cascades touching the same link
    // set: only the final rates of the burst survive.
    link_sample_event_ = telemetry_->timeline().counter(
        link_track_, "link_gbps", now, counter_scratch_.data(),
        counter_scratch_.data() + counter_scratch_.size(), link_sample_event_);
  }
  lap(stats_.refresh_s);
}

void Network::emit_flow_span(std::uint32_t slot, bool completed) {
  if (telemetry_ == nullptr || !telemetry_->enabled()) return;
  const FlowCold& c = cold_[slot];
  if (param_[slot].background_demand > 0.0) return;  // background flows never end
  telemetry::Timeline& tl = telemetry_->timeline();
  if (flow_track_ < 0) flow_track_ = tl.track("netsim", "flows");
  // Lean on purpose (endpoints ride on the matching transport chunk_send
  // span): flow completion is the hottest netsim recording site.
  tl.span(flow_track_, "netsim",
          completed ? "flow" : "flow_cancelled", c.created, loop_->now(),
          {{"app", static_cast<std::int64_t>(c.spec.app.get())},
           {"bytes", static_cast<std::uint64_t>(c.spec.size)}});
}

void Network::complete_flow(std::uint32_t id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return;
  hot_remaining_[slot] = 0.0;
  remove_from_index(slot);
  emit_flow_span(slot, /*completed=*/true);
  FlowSpec spec = std::move(cold_[slot].spec);
  const PathView path = param_[slot].path;  // routed: survives the slot
  release_slot(slot);
  reallocate(path);
  if (spec.on_complete) spec.on_complete(FlowId{id}, loop_->now());
}

}  // namespace mccs::net

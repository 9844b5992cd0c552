#include "mccs/transport_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "netsim/routing.h"

namespace mccs::svc {
namespace {

/// Extra start latency of a re-posted chunk: linear backoff per retry
/// attempt, capped at 16x.
Time retry_backoff(int attempts) { return micros(100) * std::min(attempts, 16); }

}  // namespace

TransportEngine::TransportEngine(ServiceContext& ctx, HostId host, int nic_index)
    : ctx_(&ctx), host_(host), nic_index_(nic_index) {
  MCCS_EXPECTS(ctx_->telemetry != nullptr);
  telemetry::MetricsRegistry& reg = ctx_->telemetry->metrics();
  const telemetry::Labels labels{{"host", std::to_string(host_.get())},
                                 {"nic", std::to_string(nic_index_)}};
  deadline_checks_ = &reg.counter("transport_deadline_checks", labels);
  retries_ = &reg.counter("transport_retries", labels);
  escalations_ = &reg.counter("transport_escalations", labels);
  send_latency_us_ = &reg.histogram(
      "transport_send_latency_us",
      {50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0, 20000.0, 100000.0}, labels);
}

bool TrafficSchedule::open_at(Time t) const {
  if (unrestricted()) return true;
  const double phase = std::fmod(std::max(t - t0, 0.0), period);
  for (const Window& w : allowed) {
    if (phase >= w.begin && phase < w.end) return true;
  }
  return false;
}

Time TrafficSchedule::next_open(Time t) const {
  if (unrestricted() || open_at(t)) return t;
  const double phase = std::fmod(std::max(t - t0, 0.0), period);
  Time best = kTimeInfinity;
  for (const Window& w : allowed) {
    const double delta = w.begin >= phase ? w.begin - phase : w.begin + period - phase;
    best = std::min(best, t + delta);
  }
  return best;  // kTimeInfinity if no windows at all (fully blocked)
}

Time TrafficSchedule::next_boundary(Time t) const {
  if (unrestricted()) return kTimeInfinity;
  const double phase = std::fmod(std::max(t - t0, 0.0), period);
  Time best = t + (period - phase);  // period wrap is always a boundary
  for (const Window& w : allowed) {
    for (double edge : {w.begin, w.end}) {
      const double delta = edge > phase ? edge - phase : edge + period - phase;
      if (delta > 1e-12) best = std::min(best, t + delta);
    }
  }
  return best;
}

void TransportEngine::post_send(ChunkTransfer transfer) {
  MCCS_EXPECTS(transfer.on_done);
  const AppId app = transfer.app;
  const std::uint64_t sid = next_send_id_++;
  Inflight send;
  send.transfer = std::move(transfer);
  send.posted = ctx_->loop->now();
  inflight_.emplace(sid, std::move(send));

  auto it = gates_.find(app.get());
  AppGate* gate = it == gates_.end() ? nullptr : &it->second;
  if (gate != nullptr && !gate->schedule.open_at(ctx_->loop->now())) {
    gate->waiting.push_back(sid);
    arm_timer(app, *gate);
    return;
  }
  start_flow(sid, gate);
}

void TransportEngine::start_flow(std::uint64_t sid, AppGate* gate) {
  Inflight& s = inflight_.at(sid);
  const ChunkTransfer& t = s.transfer;
  const cluster::Cluster& cl = *ctx_->cluster;
  net::FlowSpec spec;
  spec.src = cl.nic_node_of_gpu(t.src_gpu);
  spec.dst = cl.nic_node_of_gpu(t.dst_gpu);
  spec.size = std::max<Bytes>(t.bytes, 1);  // zero-byte steps still sync
  if (s.attempts == 0) {
    spec.route = t.route;
    spec.ecmp_key = t.ecmp_key;
  } else {
    // Retry: abandon the connection's pinned route and re-hash the ECMP
    // placement — the cheapest way off a dead path. Deterministic per
    // (connection key, attempt).
    spec.route = RouteId{};
    spec.ecmp_key = net::Routing::ecmp_hash(
        t.ecmp_key + static_cast<std::uint64_t>(s.attempts));
  }
  spec.app = t.app;
  spec.start_latency = ctx_->config.network_hop_latency +
                       ctx_->config.transport_step_overhead +
                       retry_backoff(s.attempts);
  spec.on_complete = [this, sid](FlowId, Time) { finish_send(sid); };

  s.flow = ctx_->network->start_flow(std::move(spec));
  s.watermark = std::max<Bytes>(t.bytes, 1);
  if (gate != nullptr) {
    gate->active_sends.push_back(sid);
    arm_timer(t.app, *gate);  // pause this flow at the next window close
  }
  arm_deadline(sid);
}

void TransportEngine::finish_send(std::uint64_t sid) {
  auto it = inflight_.find(sid);
  MCCS_ASSERT(it != inflight_.end());
  Inflight s = std::move(it->second);
  inflight_.erase(it);
  ctx_->loop->cancel(s.deadline);
  auto git = gates_.find(s.transfer.app.get());
  if (git != gates_.end()) {
    auto& v = git->second.active_sends;
    v.erase(std::remove(v.begin(), v.end(), sid), v.end());
  }
  if (ctx_->telemetry->enabled()) {
    const Time now = ctx_->loop->now();
    if (track_ < 0) {
      track_ = ctx_->telemetry->timeline().track(
          "host " + std::to_string(host_.get()),
          "transport nic " + std::to_string(nic_index_));
    }
    // src_gpu is implied by the track (this host's NIC) plus the proxy-layer
    // span; keeping the arg list lean matters — this is the hottest engine
    // recording site.
    ctx_->telemetry->timeline().span(
        track_, "transport", "chunk_send", s.posted, now,
        {{"app", static_cast<std::uint64_t>(s.transfer.app.get())},
         {"dst_gpu", static_cast<std::uint64_t>(s.transfer.dst_gpu.get())},
         {"bytes", s.transfer.bytes},
         {"attempts", static_cast<std::int64_t>(s.attempts)}});
    send_latency_us_->observe((now - s.posted) * 1e6);
  }
  s.transfer.on_done();
}

void TransportEngine::arm_deadline(std::uint64_t sid) {
  const double slack = ctx_->config.chunk_deadline_slack;
  if (slack <= 0.0) return;  // detection disabled: zero healthy-path cost
  Inflight& s = inflight_.at(sid);
  // Analytic lower bound: the flow's fixed start latency plus serialization
  // at the nominal bottleneck capacity of its current path (full capacity on
  // purpose — the bound must not loosen when the fault itself degrades it).
  Bandwidth bottleneck = std::numeric_limits<Bandwidth>::infinity();
  for (LinkId l : ctx_->network->flow_path(s.flow)) {
    bottleneck =
        std::min(bottleneck, ctx_->network->topology().link(l).capacity);
  }
  const double bytes = static_cast<double>(std::max<Bytes>(s.transfer.bytes, 1));
  Time bound = ctx_->config.network_hop_latency +
               ctx_->config.transport_step_overhead + retry_backoff(s.attempts);
  if (std::isfinite(bottleneck) && bottleneck > 0.0) bound += bytes / bottleneck;
  s.deadline_dt = std::max(slack * bound, ctx_->config.chunk_deadline_floor);
  s.deadline =
      ctx_->loop->schedule_after(s.deadline_dt, [this, sid] { on_deadline(sid); });
}

void TransportEngine::on_deadline(std::uint64_t sid) {
  auto it = inflight_.find(sid);
  if (it == inflight_.end()) return;
  Inflight& s = it->second;
  s.deadline = {};
  deadline_checks_->increment();
  if (!ctx_->network->flow_active(s.flow)) return;  // completing this instant

  auto git = gates_.find(s.transfer.app.get());
  const bool gated =
      git != gates_.end() && git->second.gated_closed;
  const Bytes remaining = ctx_->network->flow_remaining(s.flow);
  if (gated || remaining < s.watermark) {
    // Progress (or deliberately paused by QoS): re-arm and keep watching.
    // Firing here never perturbs simulated flow state, so enabling detection
    // does not change healthy-path results.
    s.watermark = remaining;
    s.deadline = ctx_->loop->schedule_after(s.deadline_dt,
                                            [this, sid] { on_deadline(sid); });
    return;
  }

  // A full deadline window with zero progress: retry on a re-hashed path.
  ++s.attempts;
  retries_->increment();
  if (ctx_->telemetry->enabled()) {
    if (track_ < 0) {
      track_ = ctx_->telemetry->timeline().track(
          "host " + std::to_string(host_.get()),
          "transport nic " + std::to_string(nic_index_));
    }
    ctx_->telemetry->timeline().instant(
        track_, "transport", "retry", ctx_->loop->now(),
        {{"app", static_cast<std::uint64_t>(s.transfer.app.get())},
         {"dst_gpu", static_cast<std::uint64_t>(s.transfer.dst_gpu.get())},
         {"attempts", static_cast<std::int64_t>(s.attempts)}});
  }
  const bool escalate = s.attempts > ctx_->config.transport_max_retries &&
                        ctx_->on_transport_stall != nullptr;
  StallReport report;
  if (escalate) {
    report.app = s.transfer.app;
    report.host = host_;
    report.src_gpu = s.transfer.src_gpu;
    report.dst_gpu = s.transfer.dst_gpu;
    report.bytes = s.transfer.bytes;
    report.attempts = s.attempts;
    report.path = ctx_->network->flow_path(s.flow).to_path();
  }
  {
    // The retry's cancel + re-hashed restart are one mutation epoch; the
    // restarted flow is latent (backoff), so when several sends re-hash at
    // the same instant their restarts also share one activation cohort.
    net::Network::SolveBatch batch(*ctx_->network);
    ctx_->network->cancel_flow(s.flow);
    AppGate* gate = git == gates_.end() ? nullptr : &git->second;
    if (gate != nullptr) {
      auto& v = gate->active_sends;
      v.erase(std::remove(v.begin(), v.end(), sid), v.end());
    }
    start_flow(sid, gate);
  }
  if (escalate) {
    escalations_->increment();
    if (ctx_->telemetry->enabled()) {
      ctx_->telemetry->timeline().instant(
          track_, "transport", "stall_report", ctx_->loop->now(),
          {{"app", static_cast<std::uint64_t>(report.app.get())},
           {"src_gpu", static_cast<std::uint64_t>(report.src_gpu.get())},
           {"dst_gpu", static_cast<std::uint64_t>(report.dst_gpu.get())},
           {"attempts", static_cast<std::int64_t>(report.attempts)}});
    }
    ctx_->on_transport_stall(report);
  }
}

std::size_t TransportEngine::abort_app(AppId app) {
  auto git = gates_.find(app.get());
  if (git != gates_.end()) {
    ctx_->loop->cancel(git->second.timer);
    gates_.erase(git);
  }
  std::size_t dropped = 0;
  // One batch epoch for the mass cancel: the tenant's flows leave the
  // network at one instant, so the survivors' rates re-solve once, not once
  // per cancelled flow.
  net::Network::SolveBatch batch(*ctx_->network);
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.transfer.app != app) {
      ++it;
      continue;
    }
    ctx_->loop->cancel(it->second.deadline);
    // Waiting (gated) sends have no flow yet; their id stays invalid.
    if (it->second.flow.valid() && ctx_->network->flow_active(it->second.flow)) {
      ctx_->network->cancel_flow(it->second.flow);
    }
    it = inflight_.erase(it);
    ++dropped;
  }
  return dropped;
}

void TransportEngine::set_schedule(AppId app, TrafficSchedule schedule) {
  AppGate& gate = gates_[app.get()];
  gate.schedule = std::move(schedule);
  on_boundary(app);  // apply immediately and arm the timer
}

void TransportEngine::clear_schedule(AppId app) {
  auto it = gates_.find(app.get());
  if (it == gates_.end()) return;
  AppGate& gate = it->second;
  ctx_->loop->cancel(gate.timer);
  // Release everything that was held back — resumes and restarts share one
  // same-instant batch epoch (the restarted flows are latent, so they join
  // an activation cohort; the resumes re-solve once here).
  net::Network::SolveBatch batch(*ctx_->network);
  if (gate.gated_closed) {
    for (std::uint64_t sid : gate.active_sends) {
      auto sit = inflight_.find(sid);
      if (sit == inflight_.end()) continue;
      const FlowId f = sit->second.flow;
      if (ctx_->network->flow_active(f)) ctx_->network->resume_flow(f);
    }
  }
  std::deque<std::uint64_t> waiting = std::move(gate.waiting);
  gates_.erase(it);
  for (std::uint64_t sid : waiting) start_flow(sid, nullptr);
}

void TransportEngine::arm_timer(AppId app, AppGate& gate) {
  if (ctx_->loop->pending(gate.timer)) return;
  // Only keep a timer while there is something to gate: pending sends, or
  // in-flight flows that must pause at the next close. Otherwise the event
  // loop would never drain.
  if (gate.waiting.empty() && gate.active_sends.empty()) return;
  Time boundary = gate.schedule.next_boundary(ctx_->loop->now());
  if (boundary >= kTimeInfinity) return;
  // Guarantee strictly-future firing: floating-point folding can place the
  // boundary at (or epsilon before) `now`, which would livelock the loop.
  boundary = std::max(boundary, ctx_->loop->now() + nanos(100));
  gate.timer = ctx_->loop->schedule_at(boundary, [this, app] { on_boundary(app); });
}

void TransportEngine::on_boundary(AppId app) {
  auto it = gates_.find(app.get());
  if (it == gates_.end()) return;
  AppGate& gate = it->second;
  const bool open = gate.schedule.open_at(ctx_->loop->now());

  // A window boundary gates every in-flight flow of the tenant at one
  // instant: batch the pause/resume burst (and any releases below) into one
  // re-solve.
  net::Network::SolveBatch batch(*ctx_->network);

  // Pause or resume in-flight flows to track the window state.
  gate.active_sends.erase(
      std::remove_if(gate.active_sends.begin(), gate.active_sends.end(),
                     [this](std::uint64_t sid) {
                       auto sit = inflight_.find(sid);
                       return sit == inflight_.end() ||
                              !ctx_->network->flow_active(sit->second.flow);
                     }),
      gate.active_sends.end());
  for (std::uint64_t sid : gate.active_sends) {
    const FlowId f = inflight_.at(sid).flow;
    if (open) {
      ctx_->network->resume_flow(f);
    } else {
      ctx_->network->pause_flow(f);
    }
  }
  gate.gated_closed = !open;

  if (open) {
    std::deque<std::uint64_t> waiting = std::move(gate.waiting);
    gate.waiting.clear();
    for (std::uint64_t sid : waiting) start_flow(sid, &gate);
  }
  arm_timer(app, gate);
}

}  // namespace mccs::svc

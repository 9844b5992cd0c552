#include "workload/fault_plan.h"

#include <algorithm>

#include "mccs/fabric.h"

namespace mccs::workload {
namespace {

// splitmix64: small, seedable, and stable across platforms — the plan must
// be a pure function of (seed, options) everywhere the chaos sweep runs.
std::uint64_t next_u64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t& state) {
  return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

FaultPlan& FaultPlan::link_down(Time at, LinkId link) {
  MCCS_EXPECTS(at >= 0.0 && link.valid());
  events_.push_back(FaultEvent{at, FaultEvent::Kind::kLinkDown, link, 0.0, {}});
  return *this;
}

FaultPlan& FaultPlan::link_degrade(Time at, LinkId link, double fraction) {
  MCCS_EXPECTS(at >= 0.0 && link.valid());
  MCCS_EXPECTS(fraction > 0.0 && fraction <= 1.0);
  events_.push_back(
      FaultEvent{at, FaultEvent::Kind::kLinkDegrade, link, fraction, {}});
  return *this;
}

FaultPlan& FaultPlan::link_restore(Time at, LinkId link) {
  MCCS_EXPECTS(at >= 0.0 && link.valid());
  events_.push_back(
      FaultEvent{at, FaultEvent::Kind::kLinkRestore, link, 1.0, {}});
  return *this;
}

FaultPlan& FaultPlan::kill_app(Time at, AppId app) {
  MCCS_EXPECTS(at >= 0.0 && app.valid());
  events_.push_back(FaultEvent{at, FaultEvent::Kind::kKillApp, {}, 1.0, app});
  return *this;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const RandomOptions& options) {
  MCCS_EXPECTS(options.link_count > 0 || !options.targets.empty());
  MCCS_EXPECTS(options.horizon > 0.0);
  MCCS_EXPECTS(options.min_outage > 0.0 &&
               options.max_outage >= options.min_outage);
  std::uint64_t state = seed * 0x2545f4914f6cdd1dull + 1;
  FaultPlan plan;

  auto draw_link = [&]() -> LinkId {
    if (!options.targets.empty()) {
      return options.targets[next_u64(state) % options.targets.size()];
    }
    return LinkId{static_cast<std::uint32_t>(next_u64(state) %
                                             options.link_count)};
  };

  // Draw episodes first; emission happens after per-link overlap merging.
  struct Episode {
    LinkId link{};
    Time at = 0.0;
    Time restore = 0.0;
    bool down = false;       ///< hard down (vs degrade)
    double fraction = 1.0;   ///< degrade only
  };
  std::vector<Episode> episodes;

  for (int e = 0; e < options.episodes; ++e) {
    Episode ep;
    ep.link = draw_link();
    const Time outage =
        options.min_outage +
        uniform(state) * (options.max_outage - options.min_outage);
    // The episode (fault + restore) fits strictly inside the horizon.
    const Time span = std::max(options.horizon - outage, 0.0);
    ep.at = uniform(state) * span;
    ep.restore = ep.at + outage;
    if (uniform(state) < options.degrade_prob) {
      // Surviving fraction in [0.05, 0.5]: harsh enough to matter, alive
      // enough that flows keep trickling (exercises the watermark path).
      ep.down = false;
      ep.fraction = 0.05 + 0.45 * uniform(state);
    } else {
      ep.down = true;
    }
    episodes.push_back(ep);
  }

  // Flap bursts: trains of short outages on one link, spaced so consecutive
  // flaps never overlap (each down is genuinely followed by its restore).
  for (int b = 0; b < options.flap_bursts; ++b) {
    const LinkId link = draw_link();
    const int flaps = std::max(options.flaps_per_burst, 1);
    const Time flap = options.min_outage;
    const Time burst_span = flap * 2.0 * static_cast<double>(flaps);
    const Time start =
        uniform(state) * std::max(options.horizon - burst_span, 0.0);
    for (int f = 0; f < flaps; ++f) {
      Episode ep;
      ep.link = link;
      ep.at = start + flap * 2.0 * static_cast<double>(f);
      ep.restore = ep.at + flap;
      ep.down = true;
      episodes.push_back(ep);
    }
  }

  // Merge overlapping episodes per link: without this, an inner episode's
  // restore resurrects the link mid-outage of the outer one and the outer
  // restore then targets an already-up link. Merged, every link's event
  // sequence strictly alternates fault / restore.
  std::sort(episodes.begin(), episodes.end(),
            [](const Episode& a, const Episode& b) {
              if (a.link.get() != b.link.get()) return a.link < b.link;
              return a.at < b.at;
            });
  std::vector<Episode> merged;
  for (const Episode& ep : episodes) {
    if (!merged.empty() && merged.back().link == ep.link &&
        ep.at <= merged.back().restore) {
      Episode& prev = merged.back();
      prev.restore = std::max(prev.restore, ep.restore);
      if (ep.down) prev.down = true;  // down beats degrade
      if (!prev.down) prev.fraction = std::min(prev.fraction, ep.fraction);
      continue;
    }
    merged.push_back(ep);
  }
  for (const Episode& ep : merged) {
    if (ep.down) {
      plan.link_down(ep.at, ep.link);
    } else {
      plan.link_degrade(ep.at, ep.link, ep.fraction);
    }
    plan.link_restore(ep.restore, ep.link);
  }

  const int kill_draws = std::max(options.max_kills, 0);
  for (int k = 0; k < kill_draws && !options.killable.empty(); ++k) {
    if (uniform(state) >= options.kill_prob) continue;
    const std::size_t victim = next_u64(state) % options.killable.size();
    plan.kill_app(uniform(state) * options.horizon, options.killable[victim]);
  }

  std::sort(plan.events_.begin(), plan.events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

void FaultPlan::schedule(svc::Fabric& fabric) const {
  // Fault events sharing an exact timestamp (a correlated failure epoch —
  // e.g. one switch taking several links down at once) apply through one
  // loop event inside one solve batch, in tape order: every administrative
  // change lands, and the affected bottleneck components re-solve once at
  // epoch close instead of once per event. kill_app's own batch nests under
  // the epoch's.
  svc::Fabric* f = &fabric;
  std::size_t i = 0;
  while (i < events_.size()) {
    std::size_t j = i + 1;
    while (j < events_.size() && events_[j].at == events_[i].at) ++j;
    const Time at = std::max(events_[i].at, fabric.loop().now());
    std::vector<FaultEvent> epoch(events_.begin() + static_cast<std::ptrdiff_t>(i),
                                  events_.begin() + static_cast<std::ptrdiff_t>(j));
    fabric.loop().schedule_at(at, [f, epoch = std::move(epoch)] {
      net::Network::SolveBatch batch(f->network());
      for (const FaultEvent& e : epoch) {
        switch (e.kind) {
          case FaultEvent::Kind::kLinkDown:
            f->network().set_link_state(e.link, net::LinkState::kDown);
            break;
          case FaultEvent::Kind::kLinkDegrade:
            f->network().set_link_state(e.link, net::LinkState::kDegraded,
                                        e.fraction);
            break;
          case FaultEvent::Kind::kLinkRestore:
            f->network().set_link_state(e.link, net::LinkState::kUp);
            break;
          case FaultEvent::Kind::kKillApp:
            f->kill_app(e.app);
            break;
        }
      }
    });
    i = j;
  }
}

}  // namespace mccs::workload

#pragma once
// Scripted fault injection: a time-ordered list of link failures,
// degradations, restorations, and tenant kills that tests, workloads, and
// benchmarks schedule against a Fabric before (or while) running it. Plans
// are plain data — building one has no side effects; schedule() registers
// one event-loop callback per fault, so injection composes with any
// workload without touching its code.
//
// random() builds a seeded chaos script with a termination guarantee: every
// link-down / degrade is paired with a restore inside the horizon, so a
// collective stalled on a dead link always regains a working path (NIC
// uplinks in the testbed have no path diversity — without the restore a
// run could legitimately never finish).

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace mccs::svc {
class Fabric;
}

namespace mccs::workload {

struct FaultEvent {
  enum class Kind { kLinkDown, kLinkDegrade, kLinkRestore, kKillApp };
  Time at = 0.0;
  Kind kind = Kind::kLinkDown;
  LinkId link{};          ///< link events only
  double fraction = 1.0;  ///< kLinkDegrade: surviving capacity fraction (0,1]
  AppId app{};            ///< kKillApp only
};

class FaultPlan {
 public:
  /// Fluent builders; events may be added in any order.
  FaultPlan& link_down(Time at, LinkId link);
  FaultPlan& link_degrade(Time at, LinkId link, double fraction);
  FaultPlan& link_restore(Time at, LinkId link);
  FaultPlan& kill_app(Time at, AppId app);

  struct RandomOptions {
    Time horizon = millis(100);  ///< all events land strictly inside [0, horizon)
    std::size_t link_count = 0;  ///< candidate links: ids in [0, link_count)
    /// Explicit candidate links (overrides link_count sampling when
    /// non-empty). Lets a churn harness target links its tenants actually
    /// cross — by the time an event fires the tenant may already have
    /// departed, which the consumer must treat as a no-op, never an abort.
    std::vector<LinkId> targets;
    int episodes = 3;            ///< link fault episodes (down/degrade + restore)
    double degrade_prob = 0.5;   ///< degrade (vs hard down) per episode
    Time min_outage = micros(500);
    Time max_outage = millis(5);
    /// Flap bursts: rapid down/up trains on one link (failed-set churn).
    /// Each burst contributes `flaps_per_burst` short outages back to back.
    int flap_bursts = 0;
    int flaps_per_burst = 4;
    std::vector<AppId> killable;  ///< tenants eligible for a kill
    double kill_prob = 0.25;      ///< chance the plan kills one of them
    int max_kills = 1;            ///< independent kill draws
  };

  /// Deterministic seeded chaos plan (same seed + options => same plan).
  ///
  /// Per-link episode windows never interleave: when two drawn episodes
  /// overlap on the same link they are merged (earliest fault, latest
  /// restore, down beats degrade). Without the merge, an inner episode's
  /// restore would resurrect the link mid-outage of the outer one — the
  /// outer restore then fires against an already-up link, and under churn
  /// composition a consumer tracking outage state sees a restore with no
  /// matching fault. Merged plans keep the invariant: each link's events
  /// strictly alternate fault, restore, fault, restore, ...
  static FaultPlan random(std::uint64_t seed, const RandomOptions& options);

  /// Register every event on the fabric's loop (at max(at, now)). Call once;
  /// the plan object may be destroyed afterwards (events are copied).
  void schedule(svc::Fabric& fabric) const;

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace mccs::workload

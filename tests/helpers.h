#pragma once
// Shared test utilities: synchronous wrappers that drive the event loop
// until asynchronous service operations (communicator bootstrap, collective
// completion) finish.

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mccs/fabric.h"
#include "policy/flow_assign.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MCCS_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MCCS_UNDER_SANITIZER 1
#endif
#endif

namespace mccs::test {

/// Counts the test binary's calls to operator new (alloc_counter.cpp) while
/// it is alive. One at a time. Sanitizer builds (MCCS_UNDER_SANITIZER)
/// allocate through their runtime's own interceptors as well, so a test
/// asserts no absolute count there.
class AllocationCounter {
 public:
  AllocationCounter();
  ~AllocationCounter();
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  /// Allocations since construction.
  [[nodiscard]] std::uint64_t count() const;
};

/// Create a communicator over `gpus` (rank r = gpus[r]) for one app and run
/// the loop until every rank's service installed it.
inline CommId create_comm(svc::Fabric& fabric, AppId app,
                          const std::vector<GpuId>& gpus) {
  const svc::UniqueId uid = fabric.new_unique_id();
  int ready = 0;
  CommId comm;
  for (std::size_t r = 0; r < gpus.size(); ++r) {
    svc::Shim& shim = fabric.connect(app, gpus[r]);
    shim.comm_init_rank(uid, static_cast<int>(gpus.size()), static_cast<int>(r),
                        [&ready, &comm](CommId id) {
                          comm = id;
                          ++ready;
                        });
  }
  const bool ok = fabric.loop().run_while_pending(
      [&] { return ready == static_cast<int>(gpus.size()); });
  MCCS_CHECK(ok, "communicator bootstrap did not complete");
  return comm;
}

/// Per-rank context for collective tests.
struct RankCtx {
  svc::Shim* shim = nullptr;
  gpu::Stream* stream = nullptr;
};

/// Connect shims and create one app stream per rank.
inline std::vector<RankCtx> make_ranks(svc::Fabric& fabric, AppId app,
                                       const std::vector<GpuId>& gpus) {
  std::vector<RankCtx> out;
  out.reserve(gpus.size());
  for (GpuId g : gpus) {
    svc::Shim& shim = fabric.connect(app, g);
    out.push_back(RankCtx{&shim, &shim.create_app_stream()});
  }
  return out;
}

/// Run the loop until `remaining` drops to zero (collective completions
/// decrement it) or the loop drains; returns true on success.
///
/// Guarded by a wall-clock deadline: a bug that keeps the loop busy forever
/// (a retry storm, a livelocked timer) would otherwise hang the whole test
/// binary. On timeout the fabric's telemetry snapshot (pending events,
/// metrics including the transport retry counters, link states, flows,
/// per-communicator progress) is printed to stderr and the await fails
/// instead of hanging.
inline bool await_until(svc::Fabric& fabric, const std::function<bool()>& done,
                        std::chrono::seconds wall_budget = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + wall_budget;
  std::uint64_t steps = 0;
  bool timed_out = false;
  fabric.loop().run_while_pending([&] {
    if (done()) return true;
    // Check the wall clock every 4096 events — cheap enough to leave on.
    if ((++steps & 0xFFFu) == 0 &&
        std::chrono::steady_clock::now() >= deadline) {
      timed_out = true;
      return true;
    }
    return false;
  });
  if (timed_out && !done()) {
    std::cerr << "test::await: wall-clock deadline (" << wall_budget.count()
              << "s) exceeded\n";
    std::cerr << fabric.telemetry_snapshot() << "\n";
    return false;
  }
  return done();
}

inline bool await(svc::Fabric& fabric, const int& remaining,
                  std::chrono::seconds wall_budget = std::chrono::seconds(30)) {
  return await_until(fabric, [&remaining] { return remaining == 0; },
                     wall_budget);
}

/// Fill a device buffer with a deterministic per-rank pattern.
template <class T>
void fill_pattern(svc::Fabric& fabric, gpu::DevicePtr ptr, std::size_t count,
                  int rank, int salt = 0) {
  auto span = fabric.gpus().typed<T>(ptr, count);
  for (std::size_t i = 0; i < count; ++i) {
    span[i] = static_cast<T>((rank + 1) * 1000 + static_cast<int>(i % 977) + salt);
  }
}

/// The one-shot assign_flows oracle over the fabric's live communicators:
/// ascending ids (list_communicators' order), their installed strategies,
/// the given failed links, reserved routes and high-priority apps — what
/// the controller's warm assigner must reproduce bit for bit.
inline std::unordered_map<std::uint32_t, policy::RouteMap> oracle_routes(
    svc::Fabric& fabric, const std::vector<LinkId>& failed_links,
    const std::unordered_set<std::uint32_t>& reserved_routes = {},
    const std::unordered_set<std::uint32_t>& priority_apps = {}) {
  const std::vector<svc::CommInfo> infos = fabric.list_communicators();
  std::vector<policy::AssignItem> items;
  items.reserve(infos.size());
  for (const svc::CommInfo& info : infos) {
    policy::AssignItem item;
    item.comm = info.id;
    item.app = info.app;
    item.gpus_by_rank = &info.gpus;
    item.strategy = &fabric.strategy_of(info.id);
    item.high_priority = priority_apps.count(info.app.get()) > 0;
    items.push_back(item);
  }
  policy::AssignOptions options;
  options.reserved_routes = reserved_routes;
  for (LinkId l : failed_links) options.failed_links.insert(l.get());
  return policy::assign_flows(items, fabric.cluster(),
                              fabric.network().routing(), options);
}

inline std::uint64_t oracle_digest(
    svc::Fabric& fabric, const std::vector<LinkId>& failed_links,
    const std::unordered_set<std::uint32_t>& reserved_routes = {},
    const std::unordered_set<std::uint32_t>& priority_apps = {}) {
  return policy::assignment_digest(
      oracle_routes(fabric, failed_links, reserved_routes, priority_apps));
}

/// assignment_digest of the routes every live communicator has installed.
inline std::uint64_t installed_digest(svc::Fabric& fabric) {
  std::unordered_map<std::uint32_t, policy::RouteMap> installed;
  for (const svc::CommInfo& info : fabric.list_communicators()) {
    installed[info.id.get()] = fabric.strategy_of(info.id).routes;
  }
  return policy::assignment_digest(installed);
}

}  // namespace mccs::test

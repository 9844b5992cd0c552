#pragma once
// Cluster model: the inventory of hosts, GPUs and NICs, their locality
// (rack / pod), and how they attach to a network Topology.
//
// NICs are the topology endpoints: each NIC is a host-kind node with its own
// uplink, so per-vNIC rate limits (the testbed emulates two 50 Gbps vNICs
// per host, §6.1) and multi-NIC hosts (8 NICs/host in the 768-GPU
// simulation, §6.5) fall out of link capacities instead of special cases.
// GPU i of a host sends through NIC (i mod nics_per_host), mirroring the
// paper's one-NIC-per-GPU pairing.

#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "netsim/topology.h"

namespace mccs::cluster {

struct HostInfo {
  HostId id;
  RackId rack;
  PodId pod;
  std::vector<GpuId> gpus;        ///< cluster-global GPU ids, local order
  std::vector<NodeId> nic_nodes;  ///< topology endpoint per NIC, local order
};

class Cluster {
 public:
  Cluster() = default;

  [[nodiscard]] const net::Topology& topology() const { return topo_; }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] std::size_t gpu_count() const { return gpu_to_host_.size(); }

  [[nodiscard]] const HostInfo& host(HostId id) const {
    MCCS_EXPECTS(id.get() < hosts_.size());
    return hosts_[id.get()];
  }

  [[nodiscard]] HostId host_of_gpu(GpuId gpu) const {
    MCCS_EXPECTS(gpu.get() < gpu_to_host_.size());
    return gpu_to_host_[gpu.get()];
  }

  /// Index of a GPU within its host.
  [[nodiscard]] int local_index(GpuId gpu) const {
    const HostInfo& h = host(host_of_gpu(gpu));
    for (std::size_t i = 0; i < h.gpus.size(); ++i) {
      if (h.gpus[i] == gpu) return static_cast<int>(i);
    }
    MCCS_CHECK(false, "gpu not found on its host");
    return -1;
  }

  /// Index, within its host, of the NIC this GPU's traffic leaves through.
  [[nodiscard]] int nic_index_of_gpu(GpuId gpu) const {
    const HostInfo& h = host(host_of_gpu(gpu));
    return local_index(gpu) % static_cast<int>(h.nic_nodes.size());
  }

  /// The topology endpoint this GPU's traffic leaves through.
  [[nodiscard]] NodeId nic_node_of_gpu(GpuId gpu) const {
    return host(host_of_gpu(gpu))
        .nic_nodes[static_cast<std::size_t>(nic_index_of_gpu(gpu))];
  }

  [[nodiscard]] RackId rack_of_gpu(GpuId gpu) const {
    return host(host_of_gpu(gpu)).rack;
  }

  [[nodiscard]] bool same_host(GpuId a, GpuId b) const {
    return host_of_gpu(a) == host_of_gpu(b);
  }

  [[nodiscard]] std::vector<GpuId> all_gpus() const {
    std::vector<GpuId> out;
    out.reserve(gpu_to_host_.size());
    for (std::uint32_t i = 0; i < gpu_to_host_.size(); ++i) out.push_back(GpuId{i});
    return out;
  }

  // --- construction (used by the builders below) -----------------------------

  net::Topology& mutable_topology() { return topo_; }

  HostId add_host(RackId rack, PodId pod, int num_gpus,
                  std::vector<NodeId> nic_nodes) {
    MCCS_EXPECTS(num_gpus > 0 && !nic_nodes.empty());
    HostInfo h;
    h.id = HostId{static_cast<std::uint32_t>(hosts_.size())};
    h.rack = rack;
    h.pod = pod;
    h.nic_nodes = std::move(nic_nodes);
    for (int g = 0; g < num_gpus; ++g) {
      const GpuId gid{static_cast<std::uint32_t>(gpu_to_host_.size())};
      h.gpus.push_back(gid);
      gpu_to_host_.push_back(h.id);
    }
    hosts_.push_back(std::move(h));
    return hosts_.back().id;
  }

 private:
  net::Topology topo_;
  std::vector<HostInfo> hosts_;
  std::vector<HostId> gpu_to_host_;
};

// --- builders ----------------------------------------------------------------

struct SpineLeafSpec {
  int num_spines = 2;
  int num_leaves = 2;
  int hosts_per_leaf = 2;
  int gpus_per_host = 2;
  int nics_per_host = 2;
  Bandwidth nic_link = gbps(50);     ///< per-NIC uplink to the leaf
  Bandwidth fabric_link = gbps(50);  ///< each leaf<->spine link
};

/// Two-tier Clos (spine-leaf) fabric; every leaf connects to every spine.
Cluster make_spine_leaf(const SpineLeafSpec& spec);

/// The paper's 4-node testbed (Fig. 5a): 2 racks x 2 hosts, 2 GPUs and two
/// 50 Gbps vNICs per host, 2 spine paths of 50 Gbps — oversubscription 2.
Cluster make_testbed();

/// The paper's 768-GPU simulation fabric (§6.5): 16 spines, 24 leaves,
/// 4 hosts per leaf, 8 GPUs + 8 NICs per host, all links 200 Gbps.
Cluster make_large_sim_cluster();

/// Scaled-up two-tier Clos fabrics for the 8k/32k-endpoint simulations
/// (ROADMAP item 5): same 8-GPU/8-NIC hosts and 200 Gbps links as the
/// paper's §6.5 fabric, widened spine/leaf tiers. Supported sizes:
///   768   -> the §6.5 fabric (16 spines x 24 leaves x 4 hosts)
///   4096  -> 16 spines x 32 leaves x 16 hosts   (zero-alloc guard scale)
///   8192  -> 32 spines x 64 leaves x 16 hosts
///   32768 -> 64 spines x 128 leaves x 32 hosts  (~82k directed links)
Cluster make_scaled_sim_cluster(int num_gpus);

/// Fig. 7's scenario: `num_switches` switches wired as a ring, one host per
/// switch; used to showcase ring-direction reconfiguration around a
/// background flow.
Cluster make_switch_ring(int num_switches, int gpus_per_host, int nics_per_host,
                         Bandwidth link_bw);

struct FatTreeSpec {
  int num_pods = 2;
  int spines_per_pod = 2;   ///< pod-local (aggregation) switches
  int leaves_per_pod = 2;   ///< one rack per leaf
  int num_cores = 2;        ///< core switches interconnecting the pods
  int hosts_per_leaf = 2;
  int gpus_per_host = 4;
  int nics_per_host = 4;
  Bandwidth nic_link = gbps(100);
  Bandwidth pod_link = gbps(100);   ///< leaf <-> pod spine
  Bandwidth core_link = gbps(100);  ///< pod spine <-> core
};

/// Three-tier fat-tree (leaf / pod-spine / core): the topology where the
/// locality policy's pod grouping matters — cross-pod traffic pays an extra
/// oversubscribed tier beyond cross-rack traffic.
Cluster make_fat_tree(const FatTreeSpec& spec);

}  // namespace mccs::cluster

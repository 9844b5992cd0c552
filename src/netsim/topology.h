#pragma once
// Datacenter topology graph: hosts and switches connected by directed links
// with fixed capacities. Rack / pod labels on hosts drive the locality-aware
// policies; switch tiers (leaf / spine) exist so benches can model
// oversubscribed Clos fabrics like the paper's testbed (oversubscription 2)
// and the 768-GPU simulation fabric.

#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace mccs::net {

enum class NodeKind { kHost, kLeafSwitch, kSpineSwitch, kGenericSwitch };

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::kGenericSwitch;
  std::string name;
  // Locality labels; only meaningful for hosts.
  RackId rack;
  PodId pod;
};

struct Link {
  LinkId id;
  NodeId src;
  NodeId dst;
  Bandwidth capacity = 0.0;
  Time propagation_delay = 0.0;
};

/// Immutable once built; the Network and Routing layers hold const references.
class Topology {
 public:
  /// Pre-size the node/link stores. Optional — builders constructing 32k-GPU
  /// fabrics call this so construction does not rehash/regrow repeatedly.
  void reserve(std::size_t nodes, std::size_t links) {
    nodes_.reserve(nodes);
    out_links_.reserve(nodes);
    in_links_.reserve(nodes);
    links_.reserve(links);
  }

  NodeId add_host(std::string name, RackId rack = RackId{}, PodId pod = PodId{}) {
    return add_node(NodeKind::kHost, std::move(name), rack, pod);
  }

  NodeId add_switch(NodeKind kind, std::string name) {
    MCCS_EXPECTS(kind != NodeKind::kHost);
    return add_node(kind, std::move(name), RackId{}, PodId{});
  }

  /// Add a unidirectional link.
  LinkId add_link(NodeId src, NodeId dst, Bandwidth capacity,
                  Time propagation_delay = micros(1)) {
    MCCS_EXPECTS(src.get() < nodes_.size() && dst.get() < nodes_.size());
    MCCS_EXPECTS(capacity > 0.0);
    const LinkId id{static_cast<std::uint32_t>(links_.size())};
    links_.push_back(Link{id, src, dst, capacity, propagation_delay});
    out_links_[src.get()].push_back(id);
    in_links_[dst.get()].push_back(id);
    return id;
  }

  /// Add a full-duplex link (two unidirectional links); returns {fwd, rev}.
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b, Bandwidth capacity,
                                            Time propagation_delay = micros(1)) {
    return {add_link(a, b, capacity, propagation_delay),
            add_link(b, a, capacity, propagation_delay)};
  }

  [[nodiscard]] const Node& node(NodeId id) const {
    MCCS_EXPECTS(id.get() < nodes_.size());
    return nodes_[id.get()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    MCCS_EXPECTS(id.get() < links_.size());
    return links_[id.get()];
  }
  [[nodiscard]] const std::vector<LinkId>& out_links(NodeId id) const {
    MCCS_EXPECTS(id.get() < out_links_.size());
    return out_links_[id.get()];
  }
  [[nodiscard]] const std::vector<LinkId>& in_links(NodeId id) const {
    MCCS_EXPECTS(id.get() < in_links_.size());
    return in_links_[id.get()];
  }

  /// Link from src to dst, if one exists (the last one added, should a
  /// builder ever add parallel links). Scans src's out-links.
  [[nodiscard]] LinkId find_link(NodeId src, NodeId dst) const {
    const std::vector<LinkId>& outs = out_links(src);
    for (auto it = outs.rbegin(); it != outs.rend(); ++it) {
      if (links_[it->get()].dst == dst) return *it;
    }
    return LinkId{};
  }

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] std::vector<NodeId> hosts() const {
    std::vector<NodeId> out;
    for (const Node& n : nodes_) {
      if (n.kind == NodeKind::kHost) out.push_back(n.id);
    }
    return out;
  }

 private:
  NodeId add_node(NodeKind kind, std::string name, RackId rack, PodId pod) {
    const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
    nodes_.push_back(Node{id, kind, std::move(name), rack, pod});
    out_links_.emplace_back();
    in_links_.emplace_back();
    return id;
  }

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::vector<std::vector<LinkId>> in_links_;
};

}  // namespace mccs::net

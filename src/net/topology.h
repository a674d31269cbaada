#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/require.h"

namespace choreo::net {

using NodeId = std::size_t;
using LinkId = std::size_t;

/// Role of a node in the multi-tier datacenter tree (Fig 5 of the paper).
enum class NodeKind { Host, Tor, Agg, Core };

const char* to_string(NodeKind kind);

struct Node {
  NodeId id = 0;
  NodeKind kind = NodeKind::Host;
  std::string name;
  /// Rack index for hosts and ToR switches (-1 for agg/core).
  int rack = -1;
  /// Pod / subtree index (-1 when not applicable).
  int pod = -1;
  /// Region index for two-tier-core topologies (-1 when not applicable).
  int region = -1;
};

/// A directed capacitated link. Physical cables are represented as two
/// directed links (one per direction) so that full-duplex traffic does not
/// contend with itself.
struct Link {
  LinkId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  double capacity_bps = 0.0;
  double delay_s = 0.0;
  /// The opposite-direction twin created by add_duplex_link.
  LinkId reverse = 0;
};

/// A datacenter network graph: nodes (hosts and switches) and directed links.
///
/// The topology is static once built; simulators and routers hold references
/// to it. Background load and rate limits live in higher layers (flowsim,
/// cloud) — the topology only describes physical connectivity and capacity.
class Topology {
 public:
  NodeId add_node(NodeKind kind, std::string name, int rack = -1, int pod = -1);

  /// Stamps the region of an existing node (used by multi-region builders).
  void set_node_region(NodeId id, int region) {
    CHOREO_REQUIRE(id < nodes_.size());
    nodes_[id].region = region;
  }

  /// Adds a pair of directed links (a->b and b->a) with the same capacity and
  /// delay. Returns the id of the a->b direction; its twin is `reverse`.
  LinkId add_duplex_link(NodeId a, NodeId b, double capacity_bps, double delay_s);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Node& node(NodeId id) const {
    CHOREO_REQUIRE(id < nodes_.size());
    return nodes_[id];
  }
  const Link& link(LinkId id) const {
    CHOREO_REQUIRE(id < links_.size());
    return links_[id];
  }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }

  /// Links departing from `node`.
  const std::vector<LinkId>& out_links(NodeId node) const {
    CHOREO_REQUIRE(node < out_.size());
    return out_[node];
  }

  /// All node ids of a given kind, in creation order.
  std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
};

/// Parameters for the generic multi-rooted tree of Fig 5.
struct TreeParams {
  std::size_t pods = 2;            ///< aggregation subtrees
  std::size_t racks_per_pod = 2;   ///< ToR switches per pod
  std::size_t hosts_per_rack = 4;  ///< physical machines per rack
  std::size_t aggs_per_pod = 2;    ///< aggregation switches per pod (ECMP width)
  std::size_t cores = 2;           ///< core switches (every agg uplinks to all)
  double host_link_bps = 1e9;      ///< host <-> ToR
  double agg_link_bps = 10e9;      ///< ToR <-> agg
  double core_link_bps = 10e9;     ///< agg <-> core
  double link_delay_s = 20e-6;     ///< per-link propagation delay
};

/// Builds a multi-rooted tree: hosts -> ToR -> agg (per pod) -> core.
/// Shortest host-to-host routes then have link counts 2 (same rack),
/// 4 (same pod) or 6 (across pods), matching the even hop counts the paper
/// observes (§3.3.1); VM co-location adds the 1-hop case at the cloud layer.
Topology make_multi_rooted_tree(const TreeParams& p);

/// A datacenter with two core tiers: `regions` copies of the Fig 5 tree whose
/// core switches are joined through super-core switches. Shortest
/// host-to-host routes have link counts 2 (same rack), 4 (same pod),
/// 6 (same region) or 8 (across regions) — exactly the even hop counts the
/// paper measures on EC2 in Fig 8 (the 1-hop case is VM co-location, which
/// the cloud layer adds).
struct RegionalTreeParams {
  std::size_t regions = 2;
  std::size_t super_cores = 2;
  TreeParams region;             ///< shape of each region's subtree
  double super_link_bps = 40e9;  ///< region core <-> super-core links
};
Topology make_regional_tree(const RegionalTreeParams& p);

/// Fig 3(a): n sender/receiver pairs sharing one bottleneck link.
/// Senders attach to switch L, receivers to switch R, L->R is the shared
/// link. Every link is `link_bps` (1 Gbit/s in the paper).
struct SharedLinkTopology {
  Topology topo;
  std::vector<NodeId> senders;
  std::vector<NodeId> receivers;
  LinkId shared_link = 0;  ///< the L->R bottleneck
};
SharedLinkTopology make_shared_link(std::size_t pairs, double link_bps = 1e9,
                                    double delay_s = 20e-6);

/// Fig 3(b): senders on one rack, receivers on another, ToRs joined through
/// an aggregate switch. Host links are `host_bps` (1 Gbit/s), ToR<->agg links
/// are `agg_bps` (10 Gbit/s).
struct TwoRackTopology {
  Topology topo;
  std::vector<NodeId> senders;
  std::vector<NodeId> receivers;
  LinkId sender_uplink = 0;  ///< sender ToR -> aggregate
};
TwoRackTopology make_two_rack_cloud(std::size_t pairs, double host_bps = 1e9,
                                    double agg_bps = 10e9, double delay_s = 20e-6);

}  // namespace choreo::net

#include "net/topology.h"

#include <sstream>

namespace choreo::net {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::Host: return "host";
    case NodeKind::Tor: return "tor";
    case NodeKind::Agg: return "agg";
    case NodeKind::Core: return "core";
  }
  return "?";
}

NodeId Topology::add_node(NodeKind kind, std::string name, int rack, int pod) {
  const NodeId id = nodes_.size();
  nodes_.push_back(Node{id, kind, std::move(name), rack, pod, -1});
  out_.emplace_back();
  return id;
}

LinkId Topology::add_duplex_link(NodeId a, NodeId b, double capacity_bps, double delay_s) {
  CHOREO_REQUIRE(a < nodes_.size() && b < nodes_.size());
  CHOREO_REQUIRE(a != b);
  CHOREO_REQUIRE(capacity_bps > 0.0);
  CHOREO_REQUIRE(delay_s >= 0.0);
  const LinkId fwd = links_.size();
  const LinkId rev = fwd + 1;
  links_.push_back(Link{fwd, a, b, capacity_bps, delay_s, rev});
  links_.push_back(Link{rev, b, a, capacity_bps, delay_s, fwd});
  out_[a].push_back(fwd);
  out_[b].push_back(rev);
  return fwd;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.kind == kind) out.push_back(n.id);
  }
  return out;
}

Topology make_multi_rooted_tree(const TreeParams& p) {
  CHOREO_REQUIRE(p.pods >= 1 && p.racks_per_pod >= 1 && p.hosts_per_rack >= 1);
  CHOREO_REQUIRE(p.aggs_per_pod >= 1 && p.cores >= 1);
  Topology t;

  std::vector<NodeId> cores;
  for (std::size_t c = 0; c < p.cores; ++c) {
    std::ostringstream name;
    name << "core" << c;
    cores.push_back(t.add_node(NodeKind::Core, name.str()));
  }

  int rack_index = 0;
  for (std::size_t pod = 0; pod < p.pods; ++pod) {
    std::vector<NodeId> aggs;
    for (std::size_t a = 0; a < p.aggs_per_pod; ++a) {
      std::ostringstream name;
      name << "agg" << pod << "." << a;
      const NodeId agg = t.add_node(NodeKind::Agg, name.str(), -1, static_cast<int>(pod));
      aggs.push_back(agg);
      for (NodeId core : cores) {
        t.add_duplex_link(agg, core, p.core_link_bps, p.link_delay_s);
      }
    }
    for (std::size_t r = 0; r < p.racks_per_pod; ++r, ++rack_index) {
      std::ostringstream name;
      name << "tor" << pod << "." << r;
      const NodeId tor = t.add_node(NodeKind::Tor, name.str(), rack_index, static_cast<int>(pod));
      for (NodeId agg : aggs) {
        t.add_duplex_link(tor, agg, p.agg_link_bps, p.link_delay_s);
      }
      for (std::size_t h = 0; h < p.hosts_per_rack; ++h) {
        std::ostringstream hname;
        hname << "host" << pod << "." << r << "." << h;
        const NodeId host =
            t.add_node(NodeKind::Host, hname.str(), rack_index, static_cast<int>(pod));
        t.add_duplex_link(host, tor, p.host_link_bps, p.link_delay_s);
      }
    }
  }
  return t;
}

Topology make_regional_tree(const RegionalTreeParams& p) {
  CHOREO_REQUIRE(p.regions >= 1 && p.super_cores >= 1);
  const TreeParams& rp = p.region;
  CHOREO_REQUIRE(rp.pods >= 1 && rp.racks_per_pod >= 1 && rp.hosts_per_rack >= 1);
  CHOREO_REQUIRE(rp.aggs_per_pod >= 1 && rp.cores >= 1);
  Topology t;

  std::vector<NodeId> super_cores;
  if (p.regions > 1) {
    for (std::size_t s = 0; s < p.super_cores; ++s) {
      std::ostringstream name;
      name << "super" << s;
      super_cores.push_back(t.add_node(NodeKind::Core, name.str()));
    }
  }

  int rack_index = 0;
  int pod_index = 0;
  for (std::size_t region = 0; region < p.regions; ++region) {
    std::vector<NodeId> cores;
    for (std::size_t c = 0; c < rp.cores; ++c) {
      std::ostringstream name;
      name << "core" << region << "." << c;
      const NodeId core = t.add_node(NodeKind::Core, name.str());
      cores.push_back(core);
      for (NodeId sc : super_cores) {
        t.add_duplex_link(core, sc, p.super_link_bps, rp.link_delay_s);
      }
    }
    for (std::size_t pod = 0; pod < rp.pods; ++pod, ++pod_index) {
      std::vector<NodeId> aggs;
      for (std::size_t a = 0; a < rp.aggs_per_pod; ++a) {
        std::ostringstream name;
        name << "agg" << region << "." << pod << "." << a;
        const NodeId agg = t.add_node(NodeKind::Agg, name.str(), -1, pod_index);
        aggs.push_back(agg);
        for (NodeId core : cores) {
          t.add_duplex_link(agg, core, rp.core_link_bps, rp.link_delay_s);
        }
      }
      for (std::size_t r = 0; r < rp.racks_per_pod; ++r, ++rack_index) {
        std::ostringstream name;
        name << "tor" << region << "." << pod << "." << r;
        const NodeId tor =
            t.add_node(NodeKind::Tor, name.str(), rack_index, pod_index);
        for (NodeId agg : aggs) {
          t.add_duplex_link(tor, agg, rp.agg_link_bps, rp.link_delay_s);
        }
        for (std::size_t h = 0; h < rp.hosts_per_rack; ++h) {
          std::ostringstream hname;
          hname << "host" << region << "." << pod << "." << r << "." << h;
          const NodeId host =
              t.add_node(NodeKind::Host, hname.str(), rack_index, pod_index);
          t.add_duplex_link(host, tor, rp.host_link_bps, rp.link_delay_s);
        }
      }
    }
  }
  // Stamp regions on pod-bearing nodes (hosts, ToRs, aggs).
  const int pods_per_region = static_cast<int>(rp.pods);
  for (const Node& n : t.nodes()) {
    if (n.pod >= 0) t.set_node_region(n.id, n.pod / pods_per_region);
  }
  return t;
}

SharedLinkTopology make_shared_link(std::size_t pairs, double link_bps, double delay_s) {
  CHOREO_REQUIRE(pairs >= 1);
  SharedLinkTopology out;
  Topology& t = out.topo;
  const NodeId left = t.add_node(NodeKind::Tor, "L", 0);
  const NodeId right = t.add_node(NodeKind::Tor, "R", 1);
  out.shared_link = t.add_duplex_link(left, right, link_bps, delay_s);
  for (std::size_t i = 0; i < pairs; ++i) {
    std::ostringstream sn, rn;
    sn << "S" << (i + 1);
    rn << "R" << (i + 1);
    const NodeId s = t.add_node(NodeKind::Host, sn.str(), 0);
    const NodeId r = t.add_node(NodeKind::Host, rn.str(), 1);
    t.add_duplex_link(s, left, link_bps, delay_s);
    t.add_duplex_link(r, right, link_bps, delay_s);
    out.senders.push_back(s);
    out.receivers.push_back(r);
  }
  return out;
}

TwoRackTopology make_two_rack_cloud(std::size_t pairs, double host_bps, double agg_bps,
                                    double delay_s) {
  CHOREO_REQUIRE(pairs >= 1);
  TwoRackTopology out;
  Topology& t = out.topo;
  const NodeId agg = t.add_node(NodeKind::Agg, "A");
  const NodeId tor_s = t.add_node(NodeKind::Tor, "torS", 0, 0);
  const NodeId tor_r = t.add_node(NodeKind::Tor, "torR", 1, 1);
  out.sender_uplink = t.add_duplex_link(tor_s, agg, agg_bps, delay_s);
  t.add_duplex_link(tor_r, agg, agg_bps, delay_s);
  for (std::size_t i = 0; i < pairs; ++i) {
    std::ostringstream sn, rn;
    sn << "S" << (i + 1);
    rn << "R" << (i + 1);
    const NodeId s = t.add_node(NodeKind::Host, sn.str(), 0, 0);
    const NodeId r = t.add_node(NodeKind::Host, rn.str(), 1, 1);
    t.add_duplex_link(s, tor_s, host_bps, delay_s);
    t.add_duplex_link(r, tor_r, host_bps, delay_s);
    out.senders.push_back(s);
    out.receivers.push_back(r);
  }
  return out;
}

}  // namespace choreo::net

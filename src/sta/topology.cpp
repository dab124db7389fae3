#include "sta/topology.hpp"

#include <algorithm>

namespace tmm {

StaTopology StaTopology::build(const TimingGraph& g) {
  StaTopology t;
  t.graph_version = g.structure_version();
  const std::size_t n = g.num_nodes();
  t.num_nodes = n;

  // Materializes the graph's adjacency + topological order once, up
  // front — check lists included — so nothing in the parallel passes
  // ever triggers a lazy (mutable, unsynchronized) cache rebuild.
  const std::vector<NodeId>& topo = g.topo_order();

  // CSR adjacency: count, prefix-sum, fill. Iterating arcs in id order
  // appends each node's arcs in ascending id — the same order
  // TimingGraph::rebuild_adjacency produces.
  t.fanin_offsets.assign(n + 1, 0);
  t.fanout_offsets.assign(n + 1, 0);
  const std::size_t num_arcs = g.num_arcs();
  for (ArcId a = 0; a < num_arcs; ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead) continue;
    ++t.fanin_offsets[arc.to + 1];
    ++t.fanout_offsets[arc.from + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    t.fanin_offsets[i + 1] += t.fanin_offsets[i];
    t.fanout_offsets[i + 1] += t.fanout_offsets[i];
  }
  t.fanin_arcs.resize(t.fanin_offsets[n]);
  t.fanout_arcs.resize(t.fanout_offsets[n]);
  std::vector<std::uint32_t> fi = t.fanin_offsets;
  std::vector<std::uint32_t> fo = t.fanout_offsets;
  for (ArcId a = 0; a < num_arcs; ++a) {
    const GraphArc& arc = g.arc(a);
    if (arc.dead) continue;
    t.fanin_arcs[fi[arc.to]++] = a;
    t.fanout_arcs[fo[arc.from]++] = a;
  }

  // Longest-path levels over the topological order. A node killed by
  // delta_set_node_dead stays in the cached order but is neither
  // counted nor listed, so level_nodes holds exactly the live nodes.
  std::vector<std::uint32_t> level(n, 0);
  std::uint32_t max_level = 0;
  std::size_t num_live = 0;
  for (const NodeId v : topo) {
    std::uint32_t lv = 0;
    for (const ArcId a : t.fanin(v)) {
      const std::uint32_t lu = level[g.arc(a).from];
      lv = std::max(lv, lu + 1);
    }
    level[v] = lv;
    if (g.node(v).dead) continue;
    max_level = std::max(max_level, lv);
    ++num_live;
  }
  const std::size_t num_levels = num_live == 0 ? 0 : max_level + 1u;
  t.level_offsets.assign(num_levels + 1, 0);
  for (const NodeId v : topo)
    if (!g.node(v).dead) ++t.level_offsets[level[v] + 1];
  for (std::size_t l = 0; l < num_levels; ++l)
    t.level_offsets[l + 1] += t.level_offsets[l];
  t.level_nodes.resize(num_live);
  {
    std::vector<std::uint32_t> cursor(t.level_offsets.begin(),
                                      t.level_offsets.end() - 1);
    // Ascending node-id iteration fills each level in ascending order.
    for (NodeId v = 0; v < n; ++v) {
      if (g.node(v).dead) continue;
      t.level_nodes[cursor[level[v]]++] = v;
    }
  }

  // Data pins of live checks, ascending.
  for (NodeId v = 0; v < n; ++v)
    if (!g.checks_of(v).empty()) t.check_pins.push_back(v);
  return t;
}

}  // namespace tmm

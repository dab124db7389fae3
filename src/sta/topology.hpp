#pragma once
// Data-oriented view of a TimingGraph for the levelized STA passes
// (docs/PERFORMANCE.md, "Levelized propagation").
//
// StaTopology flattens the graph's per-node adjacency vectors into CSR
// arrays (one offsets array + one contiguous arc-id array per
// direction, ascending arc id within each node — the same visitation
// order as TimingGraph::fanin/fanout, which is what keeps results
// independent of the thread count and equal to run_incremental's
// graph-adjacency relaxations) and groups live nodes into topological
// levels:
//
//   level(v) = 0                          for nodes with no live fanin
//   level(v) = 1 + max over live arcs u->v of level(u)
//
// Longest-path levels guarantee every fanin of a level-L node sits in
// a level < L, so relaxing one level at a time with a barrier between
// levels reads only finalized values — no tie-break is ever exercised.
// Within a level, level_nodes is ascending by node id (deterministic
// chunking; writes are per-node so order within a level is irrelevant
// to results).
//
// check_pins lists the data pins of live check arcs so check seeding
// can hand each pin's checks (TimingGraph::checks_of, ascending check
// id) to one task: all writes of a pin's seeds land on that pin alone.
//
// The struct is a pure function of the graph structure; Sta caches one
// instance keyed on TimingGraph::structure_version().

#include <cstdint>
#include <span>
#include <vector>

#include "sta/timing_graph.hpp"
#include "util/types.hpp"

namespace tmm {

struct StaTopology {
  /// structure_version() of the graph this was built from.
  std::uint64_t graph_version = 0;
  std::size_t num_nodes = 0;

  // CSR adjacency over live delay arcs (offsets are indexed by node id;
  // dead nodes have empty ranges).
  std::vector<std::uint32_t> fanin_offsets;   ///< num_nodes + 1
  std::vector<ArcId> fanin_arcs;              ///< ascending id per node
  std::vector<std::uint32_t> fanout_offsets;  ///< num_nodes + 1
  std::vector<ArcId> fanout_arcs;             ///< ascending id per node

  // Levelization over live nodes: level_nodes[level_offsets[l] ..
  // level_offsets[l+1]) is level l, ascending node id.
  std::vector<std::uint32_t> level_offsets;  ///< num_levels + 1
  std::vector<NodeId> level_nodes;

  /// Data pins of live checks, ascending and duplicate-free.
  std::vector<NodeId> check_pins;

  std::size_t num_levels() const noexcept {
    return level_offsets.empty() ? 0 : level_offsets.size() - 1;
  }
  std::span<const NodeId> level(std::size_t l) const noexcept {
    return {level_nodes.data() + level_offsets[l],
            level_nodes.data() + level_offsets[l + 1]};
  }
  std::span<const ArcId> fanin(NodeId n) const noexcept {
    return {fanin_arcs.data() + fanin_offsets[n],
            fanin_arcs.data() + fanin_offsets[n + 1]};
  }
  std::span<const ArcId> fanout(NodeId n) const noexcept {
    return {fanout_arcs.data() + fanout_offsets[n],
            fanout_arcs.data() + fanout_offsets[n + 1]};
  }

  /// Build from the graph's live structure. Calls g.topo_order()
  /// (throws on a cycle) and leaves the graph's lazy caches
  /// materialized.
  static StaTopology build(const TimingGraph& g);
};

}  // namespace tmm

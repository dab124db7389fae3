#pragma once
// Serial and parallel merging (Fig. 9): remove pins predicted timing-
// insensitive from an ILM graph, splicing in re-characterized composite
// arcs, then collapse parallel duplicate arcs into worst-case envelopes.
//
// Merging a pin is refused (the pin is kept regardless of prediction)
// when removal could change boundary timing structurally:
//   - boundary ports, flip-flop data/clock pins, check endpoints;
//   - pins electrically tied to a primary-output net (their downstream
//     load is a boundary constraint, not a constant — the paper's
//     "pins connected to some output net are also remained");
//   - pins with more than one fanin: the analysis engine merges the
//     worst slew over fanins at such pins, and per-path composition
//     cannot reproduce that coupling, so removal would not be
//     timing-safe (single-fanin pins compose exactly);
//   - high-fanout pins whose removal would blow up the arc count.

#include <unordered_map>
#include <vector>

#include "macro/compose.hpp"
#include "sta/aocv.hpp"
#include "sta/timing_graph.hpp"

namespace tmm {

struct MergeConfig {
  IndexSelectionConfig index;
  /// Refuse to merge a pin when fanin * fanout exceeds this.
  std::size_t max_fan_product = 8;
  /// Only merge pins with a single fanin (slew-exact composition);
  /// disabling this trades accuracy for size (exposed for ablation).
  bool single_fanin_only = true;
  /// Timing mode the model is generated for: when AOCV is enabled, the
  /// per-stage depth derates are baked into the re-characterized
  /// tables (merged arcs are marked `baked_derate`, so the analysis
  /// engine never derates them twice).
  AocvConfig aocv;
};

struct MergeStats {
  std::size_t pins_removed = 0;
  std::size_t serial_arcs_created = 0;
  std::size_t parallel_arcs_merged = 0;
  std::size_t refused = 0;  ///< predicted-removable pins kept for safety
};

/// True if the node may legally be merged away: not protected, and not
/// refused for fan limit or launch adjacency. The size-growth refusal
/// depends on the arcs a merge has spliced so far and is left to it.
bool mergeable(const TimingGraph& g, NodeId n, const MergeConfig& cfg);

/// Remove every node with keep[n] == false that is legally mergeable.
/// `keep` is indexed by node id of `g`.
MergeStats merge_insensitive_pins(TimingGraph& g, const std::vector<bool>& keep,
                                  const MergeConfig& cfg = {});

/// Collapse parallel duplicate delay arcs (same from/to) into envelopes.
std::size_t merge_parallel_arcs(TimingGraph& g, const MergeConfig& cfg = {});

/// True if the live graph has two non-launch delay arcs with the same
/// (from, to, sense) key — i.e. merge_parallel_arcs would fold
/// something even before any pin is removed. MergeDelta requires this
/// to be false (see below).
bool has_parallel_duplicate_arcs(const TimingGraph& g);

/// Single-pin merge with undo, for the what-if loop of timing-
/// sensitivity evaluation: runs the full merge's per-pin step (refusal
/// rule, splice, chain materialization, parallel-duplicate fold) on the
/// graph's delta_* mutators, so the result equals
/// merge_insensitive_pins({pin}) arc for arc, and restores the graph
/// byte-equivalently afterwards, keeping the cached adjacency and
/// topological order valid throughout. One MergeDelta per scratch graph
/// amortizes the pristine duplicate-key index across pins.
///
/// Not applicable (applicable() == false, apply() refuses) when the
/// pristine graph already has parallel duplicate arcs: a full merge
/// would fold those independently of the removed pin, so the delta
/// could not match it; callers fall back to the copy + full-merge path.
class MergeDelta {
 public:
  explicit MergeDelta(TimingGraph& g);

  bool applicable() const noexcept { return !graph_has_duplicates_; }

  /// Remove `pin`. Returns false (graph untouched) when the pin is
  /// refused by the merge legality/size rules or the delta is not
  /// applicable. Must not be called while a delta is applied.
  bool apply(NodeId pin, const MergeConfig& cfg);

  /// Restore the graph to its pre-apply state (no-op when nothing is
  /// applied).
  void undo();

  bool applied() const noexcept { return applied_; }

  /// Nodes whose fanin or fanout arc set the last apply() changed (the
  /// removed pin plus its former neighbors); empty when refused. Feed
  /// this to Sta::run_incremental.
  const std::vector<NodeId>& touched() const noexcept { return touched_; }

 private:
  TimingGraph* g_;
  bool graph_has_duplicates_ = false;
  /// (from, to, sense) key -> the unique live pristine non-launch arc.
  std::unordered_map<std::uint64_t, ArcId> pristine_keys_;
  NodeId pin_ = kInvalidId;
  bool applied_ = false;
  std::size_t base_arcs_ = 0;
  std::size_t base_tables_ = 0;
  std::vector<ArcId> killed_;  ///< pre-existing arcs killed by the delta
  std::vector<NodeId> touched_;
};

}  // namespace tmm

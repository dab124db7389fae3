#pragma once
// Timing sensitivity evaluation (Section 4.1, Fig. 5, Eq. 1-2).
//
// For each candidate pin A of an ILM graph: remove A (splice in the
// re-characterized composite arcs the macro generator would use),
// re-run timing under each of several random boundary-constraint sets,
// and average the relative change of boundary slew / arrival / required
// arrival / slack. TS == 0 means merging A is timing-free; TS > 0
// quantifies how much accuracy merging A costs.

#include <span>

#include "macro/merge.hpp"
#include "sta/constraints.hpp"

namespace tmm {

struct TsConfig {
  /// Number of random boundary-constraint sets (the |C| of Eq. 1).
  std::size_t num_constraint_sets = 3;
  ConstraintGenConfig constraint_gen;
  MergeConfig merge;
  bool cppr = true;
  /// Advanced timing mode under which sensitivities are evaluated (the
  /// framework's generality lever: TS adapts to the given delay model).
  AocvConfig aocv;
  std::uint64_t seed = 0x7153;
  /// Worker threads for the per-pin evaluation loop (pins are
  /// independent; results are deterministic regardless of the count).
  /// 0 = auto: TMM_THREADS when set, else the hardware concurrency
  /// (util::TaskPool::default_threads()). Each worker's scratch STA
  /// engine runs at one thread — parallelism here is across pins.
  std::size_t threads = 1;
  /// Incremental per-pin path: one reusable scratch graph per worker
  /// (MergeDelta apply/undo) and worklist re-propagation over the dirty
  /// cone (Sta::run_incremental) instead of a graph copy + full merge +
  /// full propagation per pin. Results are bit-identical to the full
  /// path; automatically falls back to it (with a warning) when the ILM
  /// has pre-existing parallel duplicate arcs.
  bool incremental = true;
};

struct TsResult {
  /// TS per node (Eq. 1); exactly 0 for pins not evaluated.
  std::vector<double> ts;
  std::size_t evaluated_pins = 0;
  std::size_t skipped_unmergeable = 0;
  /// Degradation accounting (docs/ROBUSTNESS.md): pins whose per-pin
  /// re-analysis failed are conservatively scored fully sensitive
  /// (TS = 1, i.e. kept in the model) instead of aborting the design;
  /// constraint sets whose reference run failed are dropped from the
  /// |C| average. Either being nonzero marks the design `degraded`.
  std::size_t failed_pins = 0;
  std::size_t skipped_sets = 0;
  /// First failure diagnostic (empty when failed_pins + skipped_sets == 0).
  std::string first_failure;
  double eval_seconds = 0.0;
};

/// Evaluate TS for every node with candidates[n] == true. Pins that are
/// not legally mergeable are skipped (they are kept regardless, so their
/// sensitivity never matters). `ilm` must not contain owned tables yet
/// (i.e. be a fresh ILM), because evaluation copies it per pin.
TsResult evaluate_timing_sensitivity(const TimingGraph& ilm,
                                     const std::vector<bool>& candidates,
                                     const TsConfig& cfg);

/// Eq. 2 aggregation helper: mean relative difference of one boundary
/// quantity between two snapshots (exposed for tests).
double mean_relative_diff(std::span<const double> after,
                          std::span<const double> before);

}  // namespace tmm

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "sensitivity/ts_eval.hpp"
#include "sta/propagation.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace tmm {
namespace {

AocvConfig test_aocv() {
  AocvConfig a;
  a.enabled = true;
  return a;
}

// Exact (bitwise) equality of two snapshots: the incremental TS path
// feeds GNN training labels, so "close" is not good enough.
void expect_snapshot_bits_equal(const BoundarySnapshot& got,
                                const BoundarySnapshot& want) {
  ASSERT_EQ(got.num_ports, want.num_ports);
  auto eq = [](const std::vector<double>& x, const std::vector<double>& y,
               const char* what) {
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(std::memcmp(&x[i], &y[i], sizeof(double)), 0)
          << what << "[" << i << "]: " << x[i] << " vs " << y[i];
  };
  eq(got.slew, want.slew, "slew");
  eq(got.at, want.at, "at");
  eq(got.rat, want.rat, "rat");
  eq(got.slack, want.slack, "slack");
}

// Field-by-field equality of two graphs, including the lazily cached
// adjacency and topological order (the delta contract keeps them valid
// across apply/undo instead of invalidating).
void expect_graph_equal(const TimingGraph& a, const TimingGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  ASSERT_EQ(a.num_checks(), b.num_checks());
  EXPECT_EQ(a.num_owned_tables(), b.num_owned_tables());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.node(n).dead, b.node(n).dead) << "node " << n;
    EXPECT_EQ(a.fanin(n), b.fanin(n)) << "fanin of " << n;
    EXPECT_EQ(a.fanout(n), b.fanout(n)) << "fanout of " << n;
    EXPECT_EQ(a.checks_of(n), b.checks_of(n)) << "checks of " << n;
  }
  for (ArcId i = 0; i < a.num_arcs(); ++i) {
    const GraphArc& x = a.arc(i);
    const GraphArc& y = b.arc(i);
    EXPECT_EQ(x.from, y.from) << "arc " << i;
    EXPECT_EQ(x.to, y.to) << "arc " << i;
    EXPECT_EQ(x.kind, y.kind) << "arc " << i;
    EXPECT_EQ(x.sense, y.sense) << "arc " << i;
    EXPECT_EQ(x.is_launch, y.is_launch) << "arc " << i;
    EXPECT_EQ(x.dead, y.dead) << "arc " << i;
    EXPECT_EQ(x.baked_derate, y.baked_derate) << "arc " << i;
    EXPECT_EQ(x.wire_delay_ps, y.wire_delay_ps) << "arc " << i;
    EXPECT_EQ(x.delay, y.delay) << "arc " << i;
    EXPECT_EQ(x.out_slew, y.out_slew) << "arc " << i;
  }
  EXPECT_EQ(a.topo_order(), b.topo_order());
}

// Bitwise equality of two table sets (null only for wire arcs).
void expect_tables_bits_equal(const ElRf<Lut>* x, const ElRf<Lut>* y,
                              const char* what, ArcId a) {
  ASSERT_EQ(x == nullptr, y == nullptr) << what << " of arc " << a;
  if (x == nullptr) return;
  auto bits = [](std::span<const double> v) {
    std::vector<std::uint64_t> out(v.size());
    if (!v.empty()) std::memcpy(out.data(), v.data(), v.size_bytes());
    return out;
  };
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      const Lut& p = (*x)(el, rf);
      const Lut& q = (*y)(el, rf);
      EXPECT_EQ(bits(p.slew_index()), bits(q.slew_index())) << what << a;
      EXPECT_EQ(bits(p.load_index()), bits(q.load_index())) << what << a;
      EXPECT_EQ(bits(p.values()), bits(q.values())) << what << a;
    }
}

// Arc-for-arc equality of a delta-merged graph with the full merge of
// the same pin: endpoints, sense, liveness, baked derates and every
// table value.
void expect_same_merge(const TimingGraph& delta, const TimingGraph& full) {
  ASSERT_EQ(delta.num_nodes(), full.num_nodes());
  ASSERT_EQ(delta.num_arcs(), full.num_arcs());
  for (NodeId n = 0; n < delta.num_nodes(); ++n)
    EXPECT_EQ(delta.node(n).dead, full.node(n).dead) << "node " << n;
  for (ArcId i = 0; i < delta.num_arcs(); ++i) {
    const GraphArc& x = delta.arc(i);
    const GraphArc& y = full.arc(i);
    EXPECT_EQ(x.from, y.from) << "arc " << i;
    EXPECT_EQ(x.to, y.to) << "arc " << i;
    EXPECT_EQ(x.kind, y.kind) << "arc " << i;
    EXPECT_EQ(x.sense, y.sense) << "arc " << i;
    EXPECT_EQ(x.dead, y.dead) << "arc " << i;
    EXPECT_EQ(x.baked_derate, y.baked_derate) << "arc " << i;
    expect_tables_bits_equal(x.delay, y.delay, "delay", i);
    expect_tables_bits_equal(x.out_slew, y.out_slew, "out_slew", i);
  }
}

// Graph copy + full merge of the single pin `pin`.
TimingGraph full_merge_of(const TimingGraph& ilm, NodeId pin,
                          const MergeConfig& mcfg) {
  TimingGraph scratch = ilm;
  std::vector<bool> keep(ilm.num_nodes(), true);
  keep[pin] = false;
  merge_insensitive_pins(scratch, keep, mcfg);
  return scratch;
}

// From-scratch what-if result for removing `pin`: graph copy + full
// merge + full propagation — the path the incremental engine must
// reproduce bit for bit.
BoundarySnapshot full_path_snapshot(const TimingGraph& merged,
                                    const Sta::Options& opt,
                                    const BoundaryConstraints& bc) {
  Sta sta(merged, opt);
  sta.run(bc);
  return sta.boundary_snapshot();
}

/// Randomized equivalence harness: random graphs x random single-pin
/// removals x random constraint sets; run_incremental snapshots must
/// exactly equal from-scratch runs, and undo must restore the graph
/// byte-equivalently each round.
void run_equivalence(const Design& d, bool use_ilm, bool cppr, bool aocv,
                     std::uint64_t seed, std::size_t num_pins,
                     std::size_t num_sets) {
  SCOPED_TRACE(testing::Message() << "cppr=" << cppr << " aocv=" << aocv
                                  << " ilm=" << use_ilm << " seed=" << seed);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = use_ilm ? extract_ilm(flat).graph : flat;
  ASSERT_FALSE(has_parallel_duplicate_arcs(g));
  Sta::Options opt;
  opt.cppr = cppr;
  if (aocv) opt.aocv = test_aocv();
  MergeConfig mcfg;
  mcfg.aocv = opt.aocv;

  Rng rng(seed);
  std::vector<BoundaryConstraints> sets;
  for (std::size_t c = 0; c < num_sets; ++c)
    sets.push_back(random_constraints(g.primary_inputs().size(),
                                      g.primary_outputs().size(), {}, rng));
  std::vector<NodeId> cands;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg)) cands.push_back(n);
  ASSERT_FALSE(cands.empty());

  g.topo_order();  // materialize caches before the pristine copy
  const TimingGraph pristine = g;
  MergeDelta delta(g);
  ASSERT_TRUE(delta.applicable());
  std::vector<Sta> engines;
  engines.reserve(sets.size());
  for (std::size_t c = 0; c < sets.size(); ++c) {
    engines.emplace_back(g, opt);
    engines.back().run(sets[c]);
    engines.back().set_reference();
  }

  BoundarySnapshot snap;
  std::size_t removed_count = 0;
  for (std::size_t k = 0; k < num_pins; ++k) {
    const NodeId pin = cands[rng() % cands.size()];
    SCOPED_TRACE(testing::Message() << "pin " << pin);
    const bool removed = delta.apply(pin, mcfg);
    removed_count += removed ? 1 : 0;
    const TimingGraph full = full_merge_of(pristine, pin, mcfg);
    expect_same_merge(g, full);
    for (std::size_t c = 0; c < sets.size(); ++c) {
      engines[c].run_incremental(sets[c], delta.touched());
      engines[c].snapshot_into(snap);
      expect_snapshot_bits_equal(snap, full_path_snapshot(full, opt, sets[c]));
    }
    delta.undo();
    expect_graph_equal(g, pristine);
  }
  // The harness must actually exercise removals, not only refusals.
  EXPECT_GT(removed_count, 0u);
}

TEST(StaIncremental, EquivalentOnTinyDesignAllModes) {
  const Design d = test::make_tiny_design("inc_tiny", 101);
  for (const bool cppr : {false, true})
    for (const bool aocv : {false, true})
      run_equivalence(d, /*use_ilm=*/false, cppr, aocv, 0x11 + cppr + 2 * aocv,
                      /*num_pins=*/8, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnTinyIlm) {
  const Design d = test::make_tiny_design("inc_tiny_ilm", 102);
  for (const bool cppr : {false, true})
    run_equivalence(d, /*use_ilm=*/true, cppr, /*aocv=*/false, 0x21 + cppr,
                    /*num_pins=*/8, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnSmallIlmCppr) {
  const Design d = test::make_small_design("inc_small", 103);
  run_equivalence(d, /*use_ilm=*/true, /*cppr=*/true, /*aocv=*/false, 0x31,
                  /*num_pins=*/6, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnSmallIlmAocv) {
  const Design d = test::make_small_design("inc_small_aocv", 104);
  run_equivalence(d, /*use_ilm=*/true, /*cppr=*/true, /*aocv=*/true, 0x41,
                  /*num_pins=*/6, /*num_sets=*/2);
}

TEST(StaIncremental, EquivalentOnBufferChain) {
  const Design d = test::make_buffer_chain(12);
  run_equivalence(d, /*use_ilm=*/false, /*cppr=*/true, /*aocv=*/false, 0x51,
                  /*num_pins=*/10, /*num_sets=*/2);
}

TEST(StaIncremental, RunIncrementalRequiresReference) {
  const Design d = test::make_tiny_design("inc_guard", 105);
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g, Sta::Options{});
  const std::vector<NodeId> none;
  EXPECT_THROW(sta.run_incremental({}, none), std::logic_error);
}

TEST(StaIncremental, EmptyDirtySetReproducesReference) {
  const Design d = test::make_tiny_design("inc_empty", 106);
  const TimingGraph g = build_timing_graph(d);
  Rng rng(7);
  const BoundaryConstraints bc = random_constraints(
      g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);
  Sta sta(g, Sta::Options{});
  sta.run(bc);
  const BoundarySnapshot ref = sta.boundary_snapshot();
  sta.set_reference();
  const std::vector<NodeId> none;
  const StaIncrementalStats st = sta.run_incremental(bc, none);
  EXPECT_EQ(st.fwd_recomputed, 0u);
  EXPECT_EQ(st.bwd_recomputed, 0u);
  expect_snapshot_bits_equal(sta.boundary_snapshot(), ref);
}

TEST(MergeDelta, ApplyUndoRoundTripIsByteEquivalent) {
  const Design d = test::make_small_design("delta_rt", 107);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  MergeConfig mcfg;
  std::vector<NodeId> cands;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg)) cands.push_back(n);
  ASSERT_FALSE(cands.empty());
  g.topo_order();
  const TimingGraph pristine = g;
  MergeDelta delta(g);
  ASSERT_TRUE(delta.applicable());
  std::size_t applied = 0;
  for (const NodeId pin : cands) {
    if (delta.apply(pin, mcfg)) {
      ++applied;
      EXPECT_FALSE(delta.touched().empty());
      EXPECT_TRUE(g.node(pin).dead);
    }
    delta.undo();
    expect_graph_equal(g, pristine);
  }
  EXPECT_GT(applied, 0u);
}

TEST(MergeDelta, RefusedPinLeavesGraphUntouched) {
  const Design d = test::make_tiny_design("delta_refuse", 108);
  TimingGraph g = build_timing_graph(d);
  g.topo_order();
  const std::size_t arcs = g.num_arcs();
  MergeDelta delta(g);
  // A primary input is never mergeable.
  const NodeId pi = g.primary_inputs()[0];
  MergeConfig mcfg;
  EXPECT_FALSE(delta.apply(pi, mcfg));
  EXPECT_FALSE(delta.applied());
  EXPECT_TRUE(delta.touched().empty());
  EXPECT_EQ(g.num_arcs(), arcs);
  delta.undo();  // no-op
  EXPECT_EQ(g.num_arcs(), arcs);
}

TEST(MergeDelta, ApplyTwiceWithoutUndoThrows) {
  const Design d = test::make_small_design("delta_twice", 109);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  MergeConfig mcfg;
  NodeId pin = kInvalidId;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg) && !g.fanin(n).empty() && !g.fanout(n).empty()) {
      pin = n;
      break;
    }
  ASSERT_NE(pin, kInvalidId);
  g.topo_order();
  MergeDelta delta(g);
  ASSERT_TRUE(delta.apply(pin, mcfg));
  EXPECT_THROW(delta.apply(pin, mcfg), std::logic_error);
  delta.undo();
}

TEST(TsIncremental, EvaluateTimingSensitivityBitIdentical) {
  for (const bool cppr : {false, true}) {
    SCOPED_TRACE(testing::Message() << "cppr=" << cppr);
    const Design d = test::make_small_design("ts_inc", 110);
    const TimingGraph flat = build_timing_graph(d);
    const IlmResult ilm = extract_ilm(flat);
    std::vector<bool> cands(ilm.graph.num_nodes(), true);
    TsConfig cfg;
    cfg.num_constraint_sets = 2;
    cfg.cppr = cppr;
    cfg.threads = 2;
    cfg.incremental = true;
    const TsResult inc = evaluate_timing_sensitivity(ilm.graph, cands, cfg);
    cfg.incremental = false;
    const TsResult full = evaluate_timing_sensitivity(ilm.graph, cands, cfg);
    ASSERT_EQ(inc.ts.size(), full.ts.size());
    ASSERT_EQ(inc.evaluated_pins, full.evaluated_pins);
    std::size_t nonzero = 0;
    for (std::size_t n = 0; n < inc.ts.size(); ++n) {
      EXPECT_EQ(std::memcmp(&inc.ts[n], &full.ts[n], sizeof(double)), 0)
          << "ts[" << n << "]: " << inc.ts[n] << " vs " << full.ts[n];
      nonzero += inc.ts[n] != 0.0 ? 1 : 0;
    }
    // The comparison must be about real sensitivities, not all zeros.
    EXPECT_GT(nonzero, 0u);
  }
}

TEST(TsEval, MeanRelativeDiffSizeMismatchIsMaxPenalty) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_EQ(mean_relative_diff(a, b), 1.0);
  EXPECT_EQ(mean_relative_diff(b, a), 1.0);
  EXPECT_EQ(mean_relative_diff(a, a), 0.0);
}

}  // namespace
}  // namespace tmm

// Targeted equivalence test for the sense-split chain materialization:
// a hand-built chain through a non-unate gate (XOR) is merged away and
// the macro must reproduce the engine's per-transition timing even when
// rise and fall boundary conditions differ strongly.

#include <gtest/gtest.h>

#include "macro/evaluate.hpp"
#include "macro/merge.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

/// Boundary constraints with strongly asymmetric rise/fall values.
BoundaryConstraints asymmetric_constraints() {
  BoundaryConstraints bc = nominal_constraints(2, 1);
  bc.pi[0].at(kLate, kRise) = 40.0;
  bc.pi[0].at(kLate, kFall) = 5.0;
  bc.pi[0].slew(kLate, kRise) = 45.0;
  bc.pi[0].slew(kLate, kFall) = 4.0;
  bc.pi[0].at(kEarly, kRise) = 35.0;
  bc.pi[0].at(kEarly, kFall) = 2.0;
  bc.pi[0].slew(kEarly, kRise) = 30.0;
  bc.pi[0].slew(kEarly, kFall) = 3.0;
  bc.pi[1].at(kLate, kRise) = 12.0;
  bc.pi[1].at(kLate, kFall) = 60.0;
  bc.pi[1].slew(kLate, kRise) = 8.0;
  bc.pi[1].slew(kLate, kFall) = 55.0;
  return bc;
}

TEST(NonUnateMerge, SenseSplitReproducesPerTransitionTiming) {
  const Design d = test::make_nonunate_design();
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph merged = build_timing_graph(d);
  std::vector<bool> keep(merged.num_nodes(), false);
  const MergeStats stats = merge_insensitive_pins(merged, keep);
  EXPECT_GT(stats.pins_removed, 0u);

  // A merged chain through the XOR must exist as a pos/neg arc pair.
  std::size_t pos_arcs = 0;
  std::size_t neg_arcs = 0;
  for (ArcId a = 0; a < merged.num_arcs(); ++a) {
    const auto& arc = merged.arc(a);
    if (arc.dead || arc.kind != GraphArcKind::kCell) continue;
    if (arc.sense == ArcSense::kPositiveUnate) ++pos_arcs;
    if (arc.sense == ArcSense::kNegativeUnate) ++neg_arcs;
  }
  EXPECT_GT(pos_arcs, 0u);
  EXPECT_GT(neg_arcs, 0u);

  const BoundaryConstraints bc = asymmetric_constraints();
  Sta fs(flat, Sta::Options{});
  Sta ms(merged, Sta::Options{});
  fs.run(bc);
  ms.run(bc);
  const NodeId out = d.primary_outputs()[0];
  for (unsigned el = 0; el < kNumEl; ++el) {
    for (unsigned rf = 0; rf < kNumRf; ++rf) {
      EXPECT_NEAR(ms.timing(out).at(el, rf), fs.timing(out).at(el, rf), 0.2)
          << "el=" << el << " rf=" << rf;
    }
  }
  // Sanity: the asymmetric inputs really produce different rise/fall
  // arrivals at the output (otherwise this test would prove nothing).
  EXPECT_GT(std::abs(fs.timing(out).at(kLate, kRise) -
                     fs.timing(out).at(kLate, kFall)),
            1.0);
}

TEST(NonUnateMerge, UnateChainsStaySingleArc) {
  // A pure buffer chain (positive-unate end to end) must merge into a
  // single positive-unate arc — the sense split only triggers for
  // genuinely non-unate chains.
  const Design d = test::make_buffer_chain(4);
  TimingGraph merged = build_timing_graph(d);
  std::vector<bool> keep(merged.num_nodes(), false);
  merge_insensitive_pins(merged, keep);
  for (ArcId a = 0; a < merged.num_arcs(); ++a) {
    const auto& arc = merged.arc(a);
    if (arc.dead || arc.kind != GraphArcKind::kCell) continue;
    EXPECT_EQ(arc.sense, ArcSense::kPositiveUnate);
  }
}

}  // namespace
}  // namespace tmm

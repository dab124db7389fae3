// Parameterized property sweeps across random designs: the invariants
// every substrate must hold regardless of seed or shape.

#include <gtest/gtest.h>

#include <cmath>

#include "flow/framework.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

struct Shape {
  std::uint64_t seed;
  std::size_t pis;
  std::size_t flops;
  std::size_t levels;
  std::size_t per_level;
};

class DesignSweep : public ::testing::TestWithParam<Shape> {
 protected:
  Design make() const {
    const Shape& s = GetParam();
    DesignGenConfig cfg;
    cfg.name = "p" + std::to_string(s.seed);
    cfg.seed = s.seed;
    cfg.num_data_inputs = s.pis;
    cfg.num_outputs = s.pis;
    cfg.num_flops = s.flops;
    cfg.levels = s.levels;
    cfg.gates_per_level = s.per_level;
    return generate_design(test::shared_library(), cfg);
  }
};

TEST_P(DesignSweep, GraphIsAcyclicAndConsistent) {
  const Design d = make();
  const TimingGraph g = build_timing_graph(d);
  EXPECT_NO_THROW(g.topo_order());
  // Topological order must respect every live arc.
  std::vector<std::size_t> position(g.num_nodes(), 0);
  const auto& order = g.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const auto& arc = g.arc(a);
    if (arc.dead) continue;
    EXPECT_LT(position[arc.from], position[arc.to]);
  }
}

TEST_P(DesignSweep, AtRespectsArcDelaysPointwise) {
  const Design d = make();
  const TimingGraph g = build_timing_graph(d);
  Sta sta(g);
  Rng rng(GetParam().seed + 1);
  sta.run(random_constraints(d.primary_inputs().size(),
                             d.primary_outputs().size(), {}, rng));
  // Late arrivals satisfy at(to) >= at(from) + delay for every arc and
  // compatible transition (the relaxation is a fixed point).
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const auto& arc = g.arc(a);
    if (arc.dead) continue;
    const auto& tf = sta.timing(arc.from);
    const auto& tt = sta.timing(arc.to);
    if (arc.kind == GraphArcKind::kWire) {
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        if (!std::isfinite(tf.at(kLate, rf))) continue;
        EXPECT_GE(tt.at(kLate, rf) + 1e-9,
                  tf.at(kLate, rf) + arc.wire_delay_ps);
      }
    }
  }
}

TEST_P(DesignSweep, IlmIsBoundaryExact) {
  const Design d = make();
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  Rng rng(GetParam().seed + 2);
  std::vector<BoundaryConstraints> sets;
  sets.push_back(random_constraints(d.primary_inputs().size(),
                                    d.primary_outputs().size(), {}, rng));
  const AccuracyReport rep = evaluate_accuracy(flat, ilm.graph, sets, true);
  EXPECT_LT(rep.max_err_ps, 1e-6);
  EXPECT_EQ(rep.structural_mismatches, 0u);
}

TEST_P(DesignSweep, FullMergeStaysInPaperErrorRegime) {
  const Design d = make();
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n)
    if (is_cppr_crucial(ilm.graph, n)) keep[n] = true;
  merge_insensitive_pins(ilm.graph, keep);
  Rng rng(GetParam().seed + 3);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < 2; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  const AccuracyReport rep = evaluate_accuracy(flat, ilm.graph, sets, true);
  EXPECT_EQ(rep.structural_mismatches, 0u);
  // Sense-split chain materialization keeps even the most aggressive
  // merge within a fraction of a picosecond.
  EXPECT_LT(rep.max_err_ps, 0.5) << "seed " << GetParam().seed;
}

TEST_P(DesignSweep, MergePreservesBoundaryPortsAndChecksEndpoints) {
  const Design d = make();
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  const std::size_t checks_before = [&] {
    std::size_t c = 0;
    for (const auto& chk : ilm.graph.checks())
      if (!chk.dead) ++c;
    return c;
  }();
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  merge_insensitive_pins(ilm.graph, keep);
  std::size_t checks_after = 0;
  for (const auto& chk : ilm.graph.checks())
    if (!chk.dead) ++checks_after;
  EXPECT_EQ(checks_before, checks_after);
  for (NodeId p : ilm.graph.primary_inputs()) {
    if (p != kInvalidId) {
      EXPECT_FALSE(ilm.graph.node(p).dead);
    }
  }
  for (NodeId p : ilm.graph.primary_outputs()) {
    if (p != kInvalidId) {
      EXPECT_FALSE(ilm.graph.node(p).dead);
    }
  }
}

TEST_P(DesignSweep, FilterNeverDropsLastStagePins) {
  const Design d = make();
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  const FilterResult fr = filter_insensitive_pins(ilm.graph);
  for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n) {
    if (ilm.graph.node(n).dead) continue;
    if (is_last_stage(ilm.graph, n)) {
      EXPECT_TRUE(fr.remained[n]);
    }
  }
}

TEST_P(DesignSweep, SlewOnlyMatchesFullStaLateSlews) {
  const Design d = make();
  const TimingGraph g = build_timing_graph(d);
  const double pi_slew = 10.0;
  const double po_load = 4.0;
  const auto quick = propagate_slew_only(g, pi_slew, po_load);

  BoundaryConstraints bc = nominal_constraints(
      d.primary_inputs().size(), d.primary_outputs().size());
  for (auto& pi : bc.pi)
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) pi.slew(el, rf) = pi_slew;
  for (auto& po : bc.po) po.load_ff = po_load;
  Sta sta(g);
  sta.run(bc);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const double full = std::max(sta.timing(n).slew(kLate, kRise),
                                 sta.timing(n).slew(kLate, kFall));
    if (!std::isfinite(full) || !std::isfinite(quick[n])) {
      EXPECT_EQ(std::isfinite(full), std::isfinite(quick[n]));
      continue;
    }
    EXPECT_EQ(quick[n], full) << g.node(n).name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DesignSweep,
    ::testing::Values(Shape{101, 4, 12, 4, 10}, Shape{102, 8, 24, 5, 18},
                      Shape{103, 12, 40, 6, 30}, Shape{104, 6, 64, 7, 24},
                      Shape{105, 16, 32, 8, 40}, Shape{106, 10, 100, 5, 50}));

// ---- end-to-end invariants over the trained flow ----------------------

TEST(RegressionMode, TrainsAndGeneratesAccurateModels) {
  FlowConfig cfg;
  cfg.cppr = true;
  cfg.regression = true;
  cfg.data.ts.num_constraint_sets = 2;
  cfg.train.epochs = 120;
  Framework fw(cfg);
  std::vector<Design> training;
  training.push_back(test::make_tiny_design("r0", 80));
  training.push_back(test::make_small_design("r1", 81));
  const TrainingSummary sum = fw.train(training);
  EXPECT_GT(sum.positives, 0u);
  EXPECT_GT(fw.ts_scale(), 0.0);

  const Design d = test::make_small_design("r2", 82);
  const DesignResult r = fw.run_design(d);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
  EXPECT_LT(r.acc.max_err_ps, 1.0);
  EXPECT_LT(r.gen.model_pins, r.gen.ilm_pins);
}

TEST(RegressionMode, MseLossGradientsMatchFiniteDifferences) {
  Matrix logits(4, 1);
  logits(0, 0) = 0.3f;
  logits(1, 0) = -1.2f;
  logits(2, 0) = 2.0f;
  logits(3, 0) = 0.0f;
  const std::vector<float> targets{0.9f, 0.0f, 0.4f, 0.1f};
  const std::vector<unsigned char> mask{1, 1, 1, 1};
  Matrix grad;
  mse_on_sigmoid(logits, targets, mask, 2.0f, grad);
  for (std::size_t i = 0; i < 4; ++i) {
    const float eps = 1e-3f;
    Matrix lp = logits;
    lp(i, 0) += eps;
    Matrix lm = logits;
    lm(i, 0) -= eps;
    Matrix dummy;
    const double up = mse_on_sigmoid(lp, targets, mask, 2.0f, dummy);
    const double dn = mse_on_sigmoid(lm, targets, mask, 2.0f, dummy);
    EXPECT_NEAR(grad(i, 0), (up - dn) / (2 * eps), 1e-4);
  }
}

TEST(FlowHeadline, GnnModelMatchesPaperAccuracyRegime) {
  // The paper's headline: max boundary errors well below 0.1 ps while
  // the model shrinks the ILM substantially.
  FlowConfig cfg;
  cfg.cppr = true;
  cfg.data.ts.num_constraint_sets = 2;
  cfg.train.epochs = 120;
  Framework fw(cfg);
  std::vector<Design> training;
  training.push_back(test::make_tiny_design("h0", 90));
  training.push_back(test::make_small_design("h1", 91));
  fw.train(training);
  const Design d = test::make_small_design("h2", 92);
  const DesignResult r = fw.run_design(d);
  EXPECT_LT(r.acc.max_err_ps, 0.1);
  EXPECT_LT(r.gen.model_pins, r.gen.ilm_pins * 3 / 4);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
}

}  // namespace
}  // namespace tmm

#include <gtest/gtest.h>

#include "macro/evaluate.hpp"
#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "macro/model_io.hpp"
#include "obs/metrics.hpp"
#include "sensitivity/ts_eval.hpp"
#include "sta/propagation.hpp"
#include "test_helpers.hpp"

#include <cstdint>
#include <memory>
#include <sstream>
#include <type_traits>

namespace tmm {
namespace {

std::vector<BoundaryConstraints> eval_sets(const Design& d, std::uint64_t seed,
                                           int n = 3) {
  Rng rng(seed);
  std::vector<BoundaryConstraints> sets;
  for (int i = 0; i < n; ++i)
    sets.push_back(random_constraints(d.primary_inputs().size(),
                                      d.primary_outputs().size(), {}, rng));
  return sets;
}

TEST(Merge, ChainCollapsesToFewNodes) {
  const Design d = test::make_buffer_chain(6);
  TimingGraph g = build_timing_graph(d);
  const std::size_t before = g.num_live_nodes();
  std::vector<bool> keep(g.num_nodes(), false);  // merge everything legal
  const MergeStats stats = merge_insensitive_pins(g, keep);
  EXPECT_GT(stats.pins_removed, 0u);
  EXPECT_LT(g.num_live_nodes(), before);
  // The PO-net driver is load-variant and must survive, as must ports.
  EXPECT_GE(g.num_live_nodes(), 3u);
  EXPECT_NO_THROW(g.topo_order());
}

TEST(Merge, FullMergeKeepsChainTimingTight) {
  const Design d = test::make_buffer_chain(6);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph merged = build_timing_graph(d);
  std::vector<bool> keep(merged.num_nodes(), false);
  merge_insensitive_pins(merged, keep);
  const auto sets = eval_sets(d, 9);
  const AccuracyReport rep = evaluate_accuracy(flat, merged, sets, false);
  EXPECT_EQ(rep.structural_mismatches, 0u);
  EXPECT_LT(rep.max_err_ps, 0.6);  // re-sampling error only
}

TEST(Merge, ProtectedPinsSurvive) {
  const Design d = test::make_small_design();
  TimingGraph g = build_timing_graph(d);
  std::vector<bool> keep(g.num_nodes(), false);
  merge_insensitive_pins(g, keep);
  for (NodeId p : g.primary_inputs()) EXPECT_FALSE(g.node(p).dead);
  for (NodeId p : g.primary_outputs()) EXPECT_FALSE(g.node(p).dead);
  for (const auto& c : g.checks()) {
    if (c.dead) continue;
    EXPECT_FALSE(g.node(c.clock).dead);
    EXPECT_FALSE(g.node(c.data).dead);
  }
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.node(n).dead) continue;
    if (!g.node(n).attached_po_loads.empty()) {
      EXPECT_FALSE(g.node(n).dead);
    }
  }
}

TEST(Merge, KeepFlagIsHonored) {
  const Design d = test::make_buffer_chain(4);
  TimingGraph g = build_timing_graph(d);
  // Keep one interior gate-input pin explicitly.
  NodeId kept_interior = kInvalidId;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto& node = g.node(n);
    if (node.role == NodeRole::kInternal && node.attached_po_loads.empty() &&
        !g.fanin(n).empty() && !g.fanout(n).empty()) {
      kept_interior = n;
      break;
    }
  }
  ASSERT_NE(kept_interior, kInvalidId);
  std::vector<bool> keep(g.num_nodes(), false);
  keep[kept_interior] = true;
  merge_insensitive_pins(g, keep);
  EXPECT_FALSE(g.node(kept_interior).dead);
}

class MergeOnDesign : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeOnDesign, IlmThenFullMergeStaysAccurate) {
  const Design d = test::make_small_design("m", GetParam());
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  const std::size_t ilm_nodes = ilm.graph.num_live_nodes();
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  const MergeStats stats = merge_insensitive_pins(ilm.graph, keep);
  EXPECT_GT(stats.pins_removed, 0u);
  EXPECT_LT(ilm.graph.num_live_nodes(), ilm_nodes);

  // Merging *everything* legal is the worst case the TS metric guards
  // against (per-path slews replace worst-slew merging at removed
  // multi-fanin pins); the structure must stay sound and the error
  // bounded, but tight accuracy is the job of the TS/GNN keep-set,
  // which the flow tests cover.
  const auto sets = eval_sets(d, GetParam() * 13 + 1);
  for (bool cppr : {false, true}) {
    const AccuracyReport rep =
        evaluate_accuracy(flat, ilm.graph, sets, cppr);
    EXPECT_EQ(rep.structural_mismatches, 0u) << "cppr=" << cppr;
    EXPECT_LT(rep.max_err_ps, 100.0) << "cppr=" << cppr;
  }
}

TEST_P(MergeOnDesign, MergedGraphRemainsAcyclicAndConsistent) {
  const Design d = test::make_small_design("m", GetParam());
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  merge_insensitive_pins(ilm.graph, keep);
  EXPECT_NO_THROW(ilm.graph.topo_order());
  for (ArcId a = 0; a < ilm.graph.num_arcs(); ++a) {
    const auto& arc = ilm.graph.arc(a);
    if (arc.dead) continue;
    EXPECT_FALSE(ilm.graph.node(arc.from).dead);
    EXPECT_FALSE(ilm.graph.node(arc.to).dead);
    if (arc.kind == GraphArcKind::kCell) {
      ASSERT_NE(arc.delay, nullptr);
      ASSERT_NE(arc.out_slew, nullptr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeOnDesign, ::testing::Values(1, 2, 3));

TEST(MergeParallel, EnvelopesDuplicateArcs) {
  const Library& lib = test::shared_library();
  const ArcSpec& fast = lib.cell(lib.cell_id("BUF_X4")).arcs[0];
  const ArcSpec& slow = lib.cell(lib.cell_id("BUF_X1")).arcs[0];
  TimingGraph g;
  GraphNode a;
  a.name = "a";
  GraphNode b;
  b.name = "b";
  const NodeId na = g.add_node(a);
  const NodeId nb = g.add_node(b);
  g.add_cell_arc(na, nb, fast.sense, &fast.delay, &fast.out_slew);
  g.add_cell_arc(na, nb, slow.sense, &slow.delay, &slow.out_slew);
  const std::size_t merged = merge_parallel_arcs(g);
  EXPECT_EQ(merged, 1u);
  EXPECT_EQ(g.num_live_arcs(), 1u);
}

TEST(Merge, ModelIoRoundTripPreservesTiming) {
  const Design d = test::make_small_design("io", 5);
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  merge_insensitive_pins(ilm.graph, keep);

  MacroModel model;
  model.design_name = "io";
  model.graph = std::move(ilm.graph);

  std::stringstream ss;
  const std::size_t bytes = write_macro_model(model, ss);
  EXPECT_GT(bytes, 100u);
  EXPECT_EQ(bytes, macro_model_size_bytes(model));
  const MacroModel back = read_macro_model(ss);
  EXPECT_EQ(back.design_name, "io");
  EXPECT_EQ(back.graph.num_live_nodes(), model.graph.num_live_nodes());
  EXPECT_EQ(back.graph.num_live_arcs(), model.graph.num_live_arcs());

  const auto sets = eval_sets(d, 55);
  const AccuracyReport rep =
      evaluate_accuracy(model.graph, back.graph, sets, true);
  EXPECT_EQ(rep.structural_mismatches, 0u);
  EXPECT_LT(rep.max_err_ps, 1e-5);  // text precision only
}

// --- Byte-identity gate ---------------------------------------------------
//
// FNV-1a-64 of the written model (and of the TS label bits that chose its
// keep-set) for fixed designs and timing modes. Any change to refusal
// rules, splice order, chain materialization or parallel folding — in the
// full merge or in the MergeDelta path TS labelling runs — moves these.

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t model_hash(const TimingGraph& g) {
  MacroModel model;
  model.design_name = "golden";
  model.graph = g;
  std::ostringstream os;
  write_macro_model(model, os);
  const std::string s = os.str();
  return fnv1a(s.data(), s.size());
}

struct GoldenCase {
  std::uint64_t seed;
  bool cppr;
  bool aocv;
  std::uint64_t ts_hash;
  std::uint64_t model_hash;
};

TEST(MergeGolden, TsLabelledModelsAreByteIdentical) {
  const GoldenCase cases[] = {
      {1, false, false, 0xb57c4df937387e94ull,
       0xac04a6543e896347ull},
      {1, true, false, 0x444605cc532769f0ull,
       0xac04a6543e896347ull},
      {1, true, true, 0xf4ba01295522e8faull,
       0x6b9ec7e0cace9b3full},
      {2, false, false, 0x9136f36c17025585ull,
       0x7557ea14b14415aeull},
      {2, true, false, 0x3c3c7a3681957ffull,
       0x7557ea14b14415aeull},
      {2, true, true, 0xed3ac1dba1201cd4ull,
       0x7557ea14b14415aeull},
      {3, false, false, 0x4a6e1114f04228edull,
       0x5560de384cd5f195ull},
      {3, true, false, 0x4a6e1114f04228edull,
       0x5560de384cd5f195ull},
      {3, true, true, 0xe674f6189bd24fafull,
       0x5127b555de7c1f33ull},
  };
  for (const GoldenCase& gc : cases) {
    SCOPED_TRACE(testing::Message() << "seed=" << gc.seed << " cppr="
                                    << gc.cppr << " aocv=" << gc.aocv);
    const Design d = test::make_small_design("golden", gc.seed);
    IlmResult ilm = extract_ilm(build_timing_graph(d));
    TsConfig ts_cfg;
    ts_cfg.cppr = gc.cppr;
    ts_cfg.aocv.enabled = gc.aocv;
    ts_cfg.merge.aocv = ts_cfg.aocv;
    const std::vector<bool> all(ilm.graph.num_nodes(), true);
    const TsResult ts = evaluate_timing_sensitivity(ilm.graph, all, ts_cfg);
    const std::uint64_t ts_hash =
        fnv1a(ts.ts.data(), ts.ts.size() * sizeof(double));

    std::vector<bool> keep(ilm.graph.num_nodes());
    for (NodeId n = 0; n < keep.size(); ++n) keep[n] = ts.ts[n] > 0.0;
    const MergeStats stats =
        merge_insensitive_pins(ilm.graph, keep, ts_cfg.merge);
    EXPECT_GT(stats.pins_removed, 0u);
    EXPECT_EQ(ts_hash, gc.ts_hash) << std::hex << "0x" << ts_hash;
    EXPECT_EQ(model_hash(ilm.graph), gc.model_hash)
        << std::hex << "0x" << model_hash(ilm.graph);
  }
}

TEST(MergeGolden, FullMergeModelsAreByteIdentical) {
  // Everything legal merged away: the worst case for the size rule and
  // the parallel fold; AOCV bakes depth derates into every chain.
  const std::uint64_t want[3][2] = {
      {0xc88b29301d9bd322ull, 0x827f9a568fa44933ull},
      {0x196f5bc3601fdf29ull, 0xce1d2c7608b691a9ull},
      {0x48f3ec3f7407d244ull, 0xe814a8de5688153aull}};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const bool aocv : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " aocv=" << aocv);
      IlmResult ilm =
          extract_ilm(build_timing_graph(test::make_small_design("m", seed)));
      MergeConfig cfg;
      cfg.aocv.enabled = aocv;
      std::vector<bool> keep(ilm.graph.num_nodes(), false);
      merge_insensitive_pins(ilm.graph, keep, cfg);
      EXPECT_EQ(model_hash(ilm.graph), want[seed - 1][aocv])
          << std::hex << "0x" << model_hash(ilm.graph);
    }
  }
  // Sense-split (non-unate) chain materialization.
  TimingGraph g = build_timing_graph(test::make_nonunate_design());
  std::vector<bool> keep(g.num_nodes(), false);
  merge_insensitive_pins(g, keep);
  EXPECT_EQ(model_hash(g), 0x75decdea0f753838ull) << std::hex << "0x" << model_hash(g);
}

/// Per-reason refusal counters, read as deltas over one full merge.
struct RefusalCounts {
  std::uint64_t total, fan, launch, size;
  static RefusalCounts now() {
    return {obs::counter("merge.refused").value(),
            obs::counter("merge.refused.fan_limit").value(),
            obs::counter("merge.refused.launch_adjacent").value(),
            obs::counter("merge.refused.size_growth").value()};
  }
  RefusalCounts operator-(const RefusalCounts& o) const {
    return {total - o.total, fan - o.fan, launch - o.launch, size - o.size};
  }
};

/// Pins a full merge may remove: live internal pins that are not clock or
/// flip-flop pins, drive no primary-output net and end no timing check.
std::size_t merge_candidates(const TimingGraph& g) {
  std::size_t count = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const GraphNode& node = g.node(n);
    if (!node.dead && node.role == NodeRole::kInternal &&
        !node.is_ff_clock && !node.is_ff_data && !node.is_clock_root &&
        node.attached_po_loads.empty() && g.checks_of(n).empty())
      ++count;
  }
  return count;
}

TEST(Merge, RefusesHighFanProductPins) {
  const Design d = test::make_small_design("fp", 8);
  const TimingGraph flat = build_timing_graph(d);
  IlmResult ilm = extract_ilm(flat);
  MergeConfig tight;
  tight.max_fan_product = 1;
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  const RefusalCounts before = RefusalCounts::now();
  const MergeStats s1 = merge_insensitive_pins(ilm.graph, keep, tight);
  const RefusalCounts r = RefusalCounts::now() - before;
  EXPECT_GT(r.fan, 0u);
  EXPECT_EQ(r.fan + r.launch + r.size, s1.refused);

  IlmResult ilm2 = extract_ilm(flat);
  MergeConfig loose;
  loose.max_fan_product = 16;
  std::vector<bool> keep2(ilm2.graph.num_nodes(), false);
  const MergeStats s2 = merge_insensitive_pins(ilm2.graph, keep2, loose);
  EXPECT_GT(s2.pins_removed, s1.pins_removed);
}

TEST(Merge, RefusalCountersSplitByReason) {
  for (const std::size_t fan_product : {1u, 8u, 16u}) {
    SCOPED_TRACE(testing::Message() << "max_fan_product=" << fan_product);
    IlmResult ilm =
        extract_ilm(build_timing_graph(test::make_small_design("fp", 8)));
    MergeConfig cfg;
    cfg.max_fan_product = fan_product;
    std::vector<bool> keep(ilm.graph.num_nodes(), false);
    const std::size_t candidates = merge_candidates(ilm.graph);
    const RefusalCounts before = RefusalCounts::now();
    const MergeStats stats = merge_insensitive_pins(ilm.graph, keep, cfg);
    const RefusalCounts d = RefusalCounts::now() - before;
    EXPECT_GT(stats.refused, 0u);
    // Each candidate is either removed or refused, and counted once.
    EXPECT_LE(stats.refused + stats.pins_removed, candidates);
    EXPECT_EQ(d.total, stats.refused);
    EXPECT_EQ(d.fan + d.launch + d.size, stats.refused);
    // A fan-product limit of 1 refuses every multi-arc pin for fan limit.
    if (fan_product == 1) {
      EXPECT_GT(d.fan, 0u);
    }
  }
}

TEST(Merge, RefusedCountsEachSurvivingCandidateOnce) {
  // Refused pins are re-visited every merge round; the count is per pin.
  IlmResult ilm =
      extract_ilm(build_timing_graph(test::make_small_design("fp", 8)));
  std::vector<bool> keep(ilm.graph.num_nodes(), false);
  const std::size_t candidates = merge_candidates(ilm.graph);
  const MergeStats stats = merge_insensitive_pins(ilm.graph, keep);
  const std::size_t surviving = merge_candidates(ilm.graph);
  EXPECT_GT(stats.pins_removed, 0u);
  EXPECT_GT(surviving, 0u);
  EXPECT_EQ(stats.refused, surviving);
  EXPECT_EQ(stats.pins_removed + surviving, candidates);
}

TEST(Merge, ModelsSurviveVectorGrowthAndCopies) {
  // Merged models own their re-characterized tables; neither a vector
  // growing nor the death of a copy's source may leave arcs pointing at
  // freed tables.
  static_assert(std::is_nothrow_move_constructible_v<MacroModel>);
  std::vector<MacroModel> models;
  std::vector<std::string> want;
  std::vector<BoundaryConstraints> bcs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto src = std::make_unique<MacroModel>();
    src->design_name = "grow" + std::to_string(seed);
    src->graph = extract_ilm(build_timing_graph(
                                 test::make_small_design("grow", seed)))
                     .graph;
    std::vector<bool> keep(src->graph.num_nodes(), false);
    merge_insensitive_pins(src->graph, keep);
    ASSERT_GT(src->graph.num_owned_tables(), 0u);
    std::ostringstream os;
    write_macro_model(*src, os);
    want.push_back(os.str());
    Rng rng(seed);
    bcs.push_back(random_constraints(src->graph.primary_inputs().size(),
                                     src->graph.primary_outputs().size(), {},
                                     rng));
    if (seed % 2 == 0) {
      models.push_back(*src);  // copy, then destroy the source
      src.reset();
    } else {
      models.push_back(std::move(*src));
    }
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    std::ostringstream os;
    write_macro_model(models[i], os);
    EXPECT_EQ(os.str(), want[i]) << "model " << i;
    Sta sta(models[i].graph, Sta::Options{});
    EXPECT_NO_THROW(sta.run(bcs[i]));
  }
  const MacroModel copy = models[1];
  models.clear();
  std::ostringstream os;
  write_macro_model(copy, os);
  EXPECT_EQ(os.str(), want[1]);
}

}  // namespace
}  // namespace tmm

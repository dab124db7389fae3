#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "obs/metrics.hpp"
#include "sta/propagation.hpp"
#include "sta/topology.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace tmm {
namespace {

using util::TaskPool;

// ---------------------------------------------------------------------
// TaskPool

TEST(TaskPool, CoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{1000}}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3},
                                    std::size_t{16}, std::size_t{4096}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(n, grain, /*max_threads=*/0,
                        [&](std::size_t b, std::size_t e) {
                          ASSERT_LE(b, e);
                          ASSERT_LE(e, n);
                          for (std::size_t i = b; i < e; ++i)
                            hits[i].fetch_add(1);
                        });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain
                                     << " index " << i;
    }
  }
}

TEST(TaskPool, SingleThreadCapRunsInlineOnCaller) {
  TaskPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  pool.parallel_for(100, 8, /*max_threads=*/1,
                    [&](std::size_t, std::size_t) {
                      if (std::this_thread::get_id() != caller)
                        off_thread.store(true);
                    });
  EXPECT_FALSE(off_thread.load());
}

TEST(TaskPool, ZeroItemsIsANoOp) {
  TaskPool pool(2);
  bool ran = false;
  pool.parallel_for(0, 8, 0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(TaskPool, ExceptionPropagatesAndPoolStaysUsable) {
  TaskPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100, 1, 0,
                        [&](std::size_t b, std::size_t) {
                          if (b == 42) throw std::runtime_error("chunk 42");
                        }),
      std::runtime_error);
  // Next job on the same pool must run normally (counters were reset).
  std::atomic<int> count{0};
  pool.parallel_for(50, 4, 0,
                    [&](std::size_t b, std::size_t e) {
                      count.fetch_add(static_cast<int>(e - b));
                    });
  EXPECT_EQ(count.load(), 50);
}

TEST(TaskPool, NestedParallelForRunsInlineWithoutDeadlock) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(64 * 8);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(64, 1, 0, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o)
      pool.parallel_for(8, 2, 0, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[o * 8 + i].fetch_add(1);
      });
  });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPool, BackToBackJobsOfVaryingShape) {
  TaskPool pool(8);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round) * 13 % 300;
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(n, 1 + round % 5, 0,
                      [&](std::size_t b, std::size_t e) {
                        std::size_t s = 0;
                        for (std::size_t i = b; i < e; ++i) s += i;
                        sum.fetch_add(s);
                      });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "round " << round;
  }
}

TEST(TaskPool, EnvThreadsParsesAndRejects) {
  // NOLINTBEGIN(concurrency-mt-unsafe): single-threaded test setup.
  ASSERT_EQ(setenv("TMM_THREADS", "6", 1), 0);
  std::string err;
  EXPECT_EQ(TaskPool::env_threads(&err), 6u);
  EXPECT_TRUE(err.empty());

  ASSERT_EQ(setenv("TMM_THREADS", "0", 1), 0);
  EXPECT_EQ(TaskPool::env_threads(&err), 0u);
  EXPECT_FALSE(err.empty());

  ASSERT_EQ(setenv("TMM_THREADS", "4x", 1), 0);
  EXPECT_EQ(TaskPool::env_threads(&err), 0u);
  EXPECT_FALSE(err.empty());

  ASSERT_EQ(unsetenv("TMM_THREADS"), 0);
  EXPECT_EQ(TaskPool::env_threads(&err), 0u);
  EXPECT_TRUE(err.empty());
  // NOLINTEND(concurrency-mt-unsafe)
}

// ---------------------------------------------------------------------
// StaTopology

TEST(StaTopology, MatchesGraphAdjacencyAndLevels) {
  const Design d = test::make_small_design("topo_small", 31);
  const TimingGraph g = build_timing_graph(d);
  const StaTopology t = StaTopology::build(g);
  ASSERT_EQ(t.num_nodes, g.num_nodes());
  EXPECT_EQ(t.graph_version, g.structure_version());

  // CSR spans reproduce the graph's adjacency, content and order.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto fin = t.fanin(n);
    const auto& gin = g.fanin(n);
    ASSERT_EQ(fin.size(), gin.size()) << "fanin of " << n;
    for (std::size_t i = 0; i < fin.size(); ++i)
      EXPECT_EQ(fin[i], gin[i]) << "fanin of " << n << " at " << i;
    const auto fout = t.fanout(n);
    const auto& gout = g.fanout(n);
    ASSERT_EQ(fout.size(), gout.size()) << "fanout of " << n;
    for (std::size_t i = 0; i < fout.size(); ++i)
      EXPECT_EQ(fout[i], gout[i]) << "fanout of " << n << " at " << i;
  }

  // Levels partition the live nodes; each level is ascending by id.
  std::vector<int> level_of(g.num_nodes(), -1);
  std::size_t covered = 0;
  for (std::size_t l = 0; l < t.num_levels(); ++l) {
    const auto nodes = t.level(l);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      ASSERT_EQ(level_of[nodes[i]], -1) << "node in two levels";
      level_of[nodes[i]] = static_cast<int>(l);
      if (i > 0) {
        EXPECT_LT(nodes[i - 1], nodes[i]);
      }
      ++covered;
    }
  }
  EXPECT_EQ(covered, g.num_live_nodes());
  // Every live arc goes strictly up in level — the property that makes
  // level-parallel relaxation read only finalized values.
  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    if (g.arc(a).dead) continue;
    EXPECT_LT(level_of[g.arc(a).from], level_of[g.arc(a).to]) << "arc " << a;
  }

  // check_pins are exactly the pins with live checks, ascending, and
  // their checks_of lists cover every live check.
  std::vector<NodeId> want_pins;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (!g.checks_of(n).empty()) want_pins.push_back(n);
  EXPECT_EQ(t.check_pins, want_pins);
  std::size_t grouped = 0;
  for (const NodeId p : t.check_pins) grouped += g.checks_of(p).size();
  std::size_t live_checks = 0;
  for (std::uint32_t c = 0; c < g.num_checks(); ++c)
    if (!g.check(c).dead) ++live_checks;
  EXPECT_EQ(grouped, live_checks);
}

TEST(StaTopology, StructureVersionBumpsOnMutation) {
  const Design d = test::make_tiny_design("topo_ver", 32);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  const std::uint64_t v0 = g.structure_version();
  MergeConfig mcfg;
  MergeDelta delta(g);
  ASSERT_TRUE(delta.applicable());
  // apply() may refuse individual candidates; find one it removes.
  bool applied = false;
  for (NodeId n = 0; n < g.num_nodes() && !applied; ++n)
    if (mergeable(g, n, mcfg)) applied = delta.apply(n, mcfg);
  ASSERT_TRUE(applied);
  const std::uint64_t v1 = g.structure_version();
  EXPECT_NE(v0, v1);
  delta.undo();
  // Undo mutates again — the version keeps moving forward (it keys
  // cache staleness, not structural equality).
  EXPECT_NE(g.structure_version(), v1);
}

// ---------------------------------------------------------------------
// One-thread vs N-thread bit-identity

AocvConfig test_aocv() {
  AocvConfig a;
  a.enabled = true;
  return a;
}

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

/// Bitwise equality of the full per-node timing state, not just the
/// boundary: runs at any thread count must agree everywhere, or
/// downstream consumers (path recovery, TS labels) could diverge on
/// interior pins.
void expect_all_nodes_bits_equal(const Sta& got, const Sta& want,
                                 const TimingGraph& g) {
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const PinTiming a = got.timing(n);
    const PinTiming b = want.timing(n);
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        const double as = a.slew(el, rf), bs = b.slew(el, rf);
        const double aa = a.at(el, rf), ba = b.at(el, rf);
        const double ar = a.rat(el, rf), br = b.rat(el, rf);
        ASSERT_EQ(std::memcmp(&as, &bs, sizeof(double)), 0)
            << "slew node " << n << " el " << el << " rf " << rf;
        ASSERT_EQ(std::memcmp(&aa, &ba, sizeof(double)), 0)
            << "at node " << n << " el " << el << " rf " << rf;
        ASSERT_EQ(std::memcmp(&ar, &br, sizeof(double)), 0)
            << "rat node " << n << " el " << el << " rf " << rf;
      }
  }
}

TEST(StaTopology, LevelsCoverLiveNodesAfterDeltas) {
  // A delta-killed node stays in the graph's cached topological order;
  // the level schedule must still list exactly the live nodes, or a
  // full run relaxes some node in the wrong level (or twice at once).
  const Design d = test::make_small_design("topo_delta", 103);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  ASSERT_FALSE(has_parallel_duplicate_arcs(g));
  g.topo_order();  // materialize caches before the pristine copy
  const TimingGraph pristine = g;
  MergeConfig mcfg;
  MergeDelta delta(g);
  ASSERT_TRUE(delta.applicable());

  Rng rng(0xb1);
  const BoundaryConstraints bc = random_constraints(
      g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);
  Sta::Options opt;
  opt.parallel_min_nodes = 0;

  std::size_t applied = 0;
  for (NodeId pin = 0; pin < g.num_nodes() && applied < 4; ++pin) {
    if (!mergeable(g, pin, mcfg) || !delta.apply(pin, mcfg)) continue;
    ++applied;
    SCOPED_TRACE(testing::Message() << "pin " << pin);

    const StaTopology t = StaTopology::build(g);
    std::vector<NodeId> listed(t.level_nodes.begin(), t.level_nodes.end());
    std::sort(listed.begin(), listed.end());
    std::vector<NodeId> live;
    for (NodeId n = 0; n < g.num_nodes(); ++n)
      if (!g.node(n).dead) live.push_back(n);
    EXPECT_EQ(listed, live);

    TimingGraph merged = pristine;
    std::vector<bool> keep(pristine.num_nodes(), true);
    keep[pin] = false;
    merge_insensitive_pins(merged, keep, mcfg);
    Sta want(merged, opt);
    want.run(bc);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      opt.threads = threads;
      Sta got(g, opt);
      got.run(bc);
      expect_all_nodes_bits_equal(got, want, g);
    }
    opt.threads = 1;
    delta.undo();
  }
  EXPECT_EQ(applied, 4u);
}

void run_parallel_equivalence(const TimingGraph& g, bool cppr, bool aocv,
                              bool clock_rat, std::uint64_t seed,
                              std::size_t num_sets) {
  SCOPED_TRACE(testing::Message() << "cppr=" << cppr << " aocv=" << aocv
                                  << " clock_rat=" << clock_rat
                                  << " seed=" << seed);
  Sta::Options base;
  base.cppr = cppr;
  base.clock_rat = clock_rat;
  if (aocv) base.aocv = test_aocv();

  Sta one(g, base);
  Rng rng(seed);
  for (std::size_t c = 0; c < num_sets; ++c) {
    const BoundaryConstraints bc = random_constraints(
        g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);
    one.run(bc);
    const BoundarySnapshot ref = one.boundary_snapshot();
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      Sta::Options popt = base;
      popt.threads = threads;
      popt.parallel_min_nodes = 0;  // force the parallel path
      Sta par(g, popt);
      par.run(bc);
      expect_all_nodes_bits_equal(par, one, g);
      expect_snapshot_bits_equal(par.boundary_snapshot(), ref);
    }
  }
}

TEST(StaParallel, BitIdenticalOnTinyDesignAllModes) {
  const Design d = test::make_tiny_design("par_tiny", 201);
  const TimingGraph g = build_timing_graph(d);
  for (const bool cppr : {false, true})
    for (const bool aocv : {false, true})
      for (const bool clock_rat : {false, true})
        run_parallel_equivalence(g, cppr, aocv, clock_rat,
                                 0x41 + cppr + 2 * aocv + 4 * clock_rat,
                                 /*num_sets=*/2);
}

TEST(StaParallel, BitIdenticalOnSmallDesign) {
  const Design d = test::make_small_design("par_small", 202);
  const TimingGraph g = build_timing_graph(d);
  for (const bool cppr : {false, true})
    run_parallel_equivalence(g, cppr, /*aocv=*/false, /*clock_rat=*/false,
                             0x51 + cppr, /*num_sets=*/2);
  run_parallel_equivalence(g, /*cppr=*/true, /*aocv=*/true,
                           /*clock_rat=*/true, 0x53, /*num_sets=*/1);
}

TEST(StaParallel, BitIdenticalOnIlm) {
  const Design d = test::make_small_design("par_ilm", 203);
  const TimingGraph flat = build_timing_graph(d);
  const TimingGraph g = extract_ilm(flat).graph;
  for (const bool cppr : {false, true})
    run_parallel_equivalence(g, cppr, /*aocv=*/false, /*clock_rat=*/false,
                             0x61 + cppr, /*num_sets=*/2);
}

TEST(StaParallel, BitIdenticalOnBufferChain) {
  // Degenerate schedule: every level has exactly one node, so the
  // parallel path is all barrier and no width.
  const Design d = test::make_buffer_chain(40);
  const TimingGraph g = build_timing_graph(d);
  run_parallel_equivalence(g, /*cppr=*/true, /*aocv=*/false,
                           /*clock_rat=*/false, 0x71, /*num_sets=*/2);
}

TEST(StaParallel, TinyGraphFallsBackToSerial) {
  const Design d = test::make_tiny_design("par_floor", 204);
  const TimingGraph g = build_timing_graph(d);
  Sta::Options opt;
  opt.threads = 8;  // parallel_min_nodes default far exceeds this graph
  Sta sta(g, opt);
  const std::uint64_t before = obs::counter("sta.parallel_runs").value();
  sta.run(nominal_constraints(g.primary_inputs().size(),
                              g.primary_outputs().size(), 1000.0));
  EXPECT_EQ(obs::counter("sta.parallel_runs").value(), before);
}

TEST(StaParallel, AutoThreadsRunsParallelAboveFloor) {
  const Design d = test::make_tiny_design("par_auto", 205);
  const TimingGraph g = build_timing_graph(d);
  Sta::Options opt;
  opt.threads = 0;  // auto
  opt.parallel_min_nodes = 0;
  Sta sta(g, opt);
  const std::uint64_t before = obs::counter("sta.parallel_runs").value();
  sta.run(nominal_constraints(g.primary_inputs().size(),
                              g.primary_outputs().size(), 1000.0));
  // With auto resolution >= 2 threads this counts as a parallel run;
  // on a single-core machine it legitimately runs at one thread.
  if (TaskPool::default_threads() > 1) {
    EXPECT_EQ(obs::counter("sta.parallel_runs").value(), before + 1);
  } else {
    EXPECT_EQ(obs::counter("sta.parallel_runs").value(), before);
  }
}

// ---------------------------------------------------------------------
// Full-run goldens
//
// FNV-1a-64 over every node's timing, the CPPR credit at every check
// data pin and the boundary snapshot of one full run, for fixed designs
// and timing modes, at 1 and at 4 threads. The constants were recorded
// before the full run became one levelized driver; any change to the
// kernels, the relaxation order or the check seeding moves them.

std::uint64_t full_run_hash(const Sta& sta, const TimingGraph& g) {
  std::uint64_t h = test::fnv1a(nullptr, 0);
  auto fold = [&](double v) { h = test::fnv1a(&v, sizeof v, h); };
  auto fold_all = [&](const std::vector<double>& xs) {
    h = test::fnv1a(xs.data(), xs.size() * sizeof(double), h);
  };
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const PinTiming t = sta.timing(n);
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf) {
        fold(t.slew(el, rf));
        fold(t.at(el, rf));
        fold(t.rat(el, rf));
      }
  }
  for (const CheckArc& c : g.checks()) {
    if (c.dead) continue;
    for (unsigned el = 0; el < kNumEl; ++el)
      for (unsigned rf = 0; rf < kNumRf; ++rf)
        fold(sta.endpoint_credit(c.data, el, rf));
  }
  const BoundarySnapshot snap = sta.boundary_snapshot();
  fold_all(snap.slew);
  fold_all(snap.at);
  fold_all(snap.rat);
  fold_all(snap.slack);
  return h;
}

TEST(StaGolden, FullRunsMatchRecordedHashes) {
  enum Mode { kCpprOff, kCpprOn, kAocv, kClockRat, kNumModes };
  struct Golden {
    std::uint64_t seed;
    std::uint64_t hash[kNumModes];
  };
  const Golden goldens[] = {
      {1,
       {0x927cf182a0b17df1ull, 0x5e49c4e3adb37879ull, 0x48e361a5d6cfe704ull,
        0x2d48838f4f6f52bdull}},
      {2,
       {0xe028afcd96edea6eull, 0x5fd931f32c6a47a1ull, 0x72d0b7e5e3522adeull,
        0xb335e5405774c0ffull}},
      {3,
       {0x07460e38df524e32ull, 0xd837679da4bc278dull, 0xb4df549c438c0bbcull,
        0x7c75a9bd4e0ac2c1ull}},
  };
  for (const Golden& gd : goldens) {
    const Design d = test::make_small_design("golden", gd.seed);
    const TimingGraph g = build_timing_graph(d);
    Rng rng(0xa0 + gd.seed);
    const BoundaryConstraints bc = random_constraints(
        g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);
    for (int m = 0; m < kNumModes; ++m) {
      Sta::Options opt;
      opt.cppr = m != kCpprOff;
      if (m == kAocv) opt.aocv = test_aocv();
      opt.clock_rat = m == kClockRat;
      opt.parallel_min_nodes = 0;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        opt.threads = threads;
        Sta sta(g, opt);
        sta.run(bc);
        const std::uint64_t h = full_run_hash(sta, g);
        EXPECT_EQ(h, gd.hash[m])
            << "seed " << gd.seed << " mode " << m << " threads " << threads
            << std::hex << ": 0x" << h;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Parallel full runs x incremental interplay

TEST(StaParallel, ParallelReferenceThenIncrementalMatchesSerialFromScratch) {
  const Design d = test::make_tiny_design("par_incr", 206);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  ASSERT_FALSE(has_parallel_duplicate_arcs(g));
  Sta::Options popt;
  popt.cppr = true;
  popt.threads = 4;
  popt.parallel_min_nodes = 0;
  MergeConfig mcfg;

  Rng rng(0x81);
  const BoundaryConstraints bc = random_constraints(
      g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);

  g.topo_order();  // materialize caches before the pristine copy
  const TimingGraph pristine = g;
  MergeDelta delta(g);
  ASSERT_TRUE(delta.applicable());

  // The reference is produced by a *parallel* full run; incremental
  // convergence against it must still bit-match one-thread
  // from-scratch analyses of the mutated graph.
  Sta engine(g, popt);
  engine.run(bc);
  engine.set_reference();

  std::vector<NodeId> cands;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (mergeable(g, n, mcfg)) cands.push_back(n);
  ASSERT_FALSE(cands.empty());

  BoundarySnapshot snap;
  std::size_t removed = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    const NodeId pin = cands[rng() % cands.size()];
    SCOPED_TRACE(testing::Message() << "pin " << pin);
    removed += delta.apply(pin, mcfg) ? 1 : 0;
    engine.run_incremental(bc, delta.touched());
    engine.snapshot_into(snap);

    TimingGraph scratch = pristine;
    std::vector<bool> keep(pristine.num_nodes(), true);
    keep[pin] = false;
    merge_insensitive_pins(scratch, keep, mcfg);
    Sta::Options sopt = popt;
    sopt.threads = 1;
    Sta one(scratch, sopt);
    one.run(bc);
    expect_snapshot_bits_equal(snap, one.boundary_snapshot());

    delta.undo();
    engine.run_incremental(bc, delta.touched());
  }
  EXPECT_GT(removed, 0u);
}

TEST(StaParallel, TopologyCacheRebuildsAfterStructuralChange) {
  // A parallel engine whose graph is mutated between full runs must
  // notice via structure_version and rebuild its level schedule.
  const Design d = test::make_tiny_design("par_rebuild", 207);
  const TimingGraph flat = build_timing_graph(d);
  TimingGraph g = extract_ilm(flat).graph;
  ASSERT_FALSE(has_parallel_duplicate_arcs(g));
  Sta::Options popt;
  popt.threads = 4;
  popt.parallel_min_nodes = 0;
  MergeConfig mcfg;

  Rng rng(0x91);
  const BoundaryConstraints bc = random_constraints(
      g.primary_inputs().size(), g.primary_outputs().size(), {}, rng);

  Sta engine(g, popt);
  engine.run(bc);  // builds the level schedule for the pristine graph

  MergeDelta delta(g);
  ASSERT_TRUE(delta.applicable());
  bool applied = false;
  for (NodeId n = 0; n < g.num_nodes() && !applied; ++n)
    if (mergeable(g, n, mcfg)) applied = delta.apply(n, mcfg);
  ASSERT_TRUE(applied);

  engine.run(bc);  // full parallel run on the mutated structure
  Sta one(g, {.cppr = popt.cppr});
  one.run(bc);
  expect_all_nodes_bits_equal(engine, one, g);
}

}  // namespace
}  // namespace tmm

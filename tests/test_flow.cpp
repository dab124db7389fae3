#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "flow/framework.hpp"
#include "test_helpers.hpp"

namespace tmm {
namespace {

/// Shared trained framework (training is the expensive part).
class FlowTest : public ::testing::Test {
 protected:
  static Framework& trained() {
    static Framework* fw = [] {
      FlowConfig cfg;
      cfg.cppr = true;
      cfg.data.ts.num_constraint_sets = 2;
      cfg.train.epochs = 80;
      auto* f = new Framework(cfg);
      std::vector<Design> designs;
      designs.push_back(test::make_tiny_design("t0", 40));
      designs.push_back(test::make_tiny_design("t1", 41));
      designs.push_back(test::make_small_design("t2", 42));
      f->train(designs);
      return f;
    }();
    return *fw;
  }
};

TEST_F(FlowTest, TrainingProducesModelAndData) {
  Framework& fw = trained();
  EXPECT_TRUE(fw.trained());
  // Re-train summary sanity on a fresh framework with one design.
  FlowConfig cfg;
  cfg.data.ts.num_constraint_sets = 1;
  cfg.train.epochs = 10;
  Framework small(cfg);
  std::vector<Design> designs;
  designs.push_back(test::make_tiny_design("s", 50));
  const TrainingSummary sum = small.train(designs);
  EXPECT_EQ(sum.designs, 1u);
  EXPECT_GT(sum.labeled_pins, 0u);
  EXPECT_GT(sum.positives, 0u);
  EXPECT_LT(sum.positives, sum.labeled_pins);
  EXPECT_GT(sum.mean_filtered_fraction, 0.0);
  EXPECT_GT(sum.report.epochs_run, 0u);
}

TEST_F(FlowTest, GeneratedMacroIsAccurateAndSmaller) {
  Framework& fw = trained();
  const Design d = test::make_small_design("eval", 99);
  const DesignResult r = fw.run_design(d);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
  // Measured 0.0057 ps; the gate leaves 17x margin for compiler and
  // sanitizer floating-point differences.
  EXPECT_LT(r.acc.max_err_ps, 0.1);
  EXPECT_GT(r.model_file_bytes, 0u);
  EXPECT_LT(r.gen.model_pins, r.gen.ilm_pins);
  EXPECT_GT(r.gen.pins_kept, 0u);
  EXPECT_GE(r.inference_seconds, 0.0);
  EXPECT_LT(r.inference_seconds, 5.0);  // paper: inference < 5 s
}

TEST_F(FlowTest, LabelAllRemainedModeMatchesReferenceAccuracy) {
  FlowConfig cfg = trained().config();
  cfg.label_all_remained = true;
  Framework fw(cfg);  // no training needed in this mode
  const Design d = test::make_small_design("eval2", 7);
  const DesignResult r = fw.run_design(d);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
  // Measured 0.0063 ps; the gate leaves 16x margin for compiler and
  // sanitizer floating-point differences.
  EXPECT_LT(r.acc.max_err_ps, 0.1);
  EXPECT_LT(r.gen.model_pins, r.gen.ilm_pins);
}

TEST_F(FlowTest, WrittenModelIsSizedByItsWrite) {
  FlowConfig cfg = trained().config();
  cfg.label_all_remained = true;
  Framework fw(cfg);
  const Design d = test::make_small_design("sized", 8);
  const DesignResult counted = fw.run_design(d);
  const std::string path = testing::TempDir() + "flow_sized.macro";
  const DesignResult written = fw.run_design(d, path);
  EXPECT_EQ(written.model_file_bytes, counted.model_file_bytes);
  EXPECT_EQ(written.model.file_size_bytes, written.model_file_bytes);
  EXPECT_EQ(macro_model_size_bytes(written.model), written.model_file_bytes);
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(file);
  EXPECT_EQ(static_cast<std::size_t>(file.tellg()), written.model_file_bytes);
  std::remove(path.c_str());
}

TEST_F(FlowTest, BaselinesRunThroughSameHarness) {
  Framework& fw = trained();
  const Design d = test::make_small_design("base", 3);
  const DesignResult ours = fw.run_design(d);
  const DesignResult itm = fw.run_itimerm(d);
  const DesignResult lib = fw.run_libabs(d);

  EXPECT_EQ(itm.acc.structural_mismatches, 0u);
  EXPECT_EQ(lib.acc.structural_mismatches, 0u);
  EXPECT_GT(itm.model_file_bytes, 0u);
  EXPECT_GT(lib.model_file_bytes, 0u);
  // iTimerM-like keeps accuracy comparable to ours.
  EXPECT_LT(itm.acc.max_err_ps, 10.0);
  // Every ILM-based model shrinks the ILM.
  EXPECT_LT(itm.gen.model_pins, itm.gen.ilm_pins);
  EXPECT_LT(lib.gen.model_pins, lib.gen.ilm_pins);
  (void)ours;
}

TEST_F(FlowTest, EtmIsTinyButLessAccurate) {
  FlowConfig cfg;
  cfg.cppr = false;  // ETM does not support CPPR (as in the paper)
  Framework fw(cfg);
  const Design d = test::make_tiny_design("etm", 4);
  const DesignResult etm = fw.run_etm(d);
  const DesignResult itm = fw.run_itimerm(d);
  EXPECT_GT(etm.model_file_bytes, 0u);
  EXPECT_LT(etm.model_file_bytes, itm.model_file_bytes);
  EXPECT_LT(etm.gen.model_pins, itm.gen.model_pins);
  EXPECT_EQ(etm.acc.structural_mismatches, 0u);
  // Context-independent characterization costs accuracy.
  EXPECT_GE(etm.acc.max_err_ps, itm.acc.max_err_ps);
}

TEST_F(FlowTest, PredictKeepHonorsCpprRule) {
  Framework& fw = trained();
  const Design d = test::make_small_design("cppr", 12);
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  const auto keep = fw.predict_keep(ilm.graph);
  for (NodeId n = 0; n < ilm.graph.num_nodes(); ++n) {
    if (is_cppr_crucial(ilm.graph, n)) {
      EXPECT_TRUE(keep[n]);
    }
  }
}

TEST_F(FlowTest, ModelSurvivesSaveLoadViaFramework) {
  Framework& fw = trained();
  std::stringstream ss;
  fw.model().save(ss);
  GnnModel loaded = GnnModel::load(ss);
  FlowConfig cfg = fw.config();
  Framework fresh(cfg);
  fresh.set_model(std::move(loaded));
  const Design d = test::make_tiny_design("sl", 13);
  const TimingGraph flat = build_timing_graph(d);
  const IlmResult ilm = extract_ilm(flat);
  const auto a = fw.predict_keep(ilm.graph);
  const auto b = fresh.predict_keep(ilm.graph);
  EXPECT_EQ(a, b);
}

TEST_F(FlowTest, CpprOffModeWorks) {
  FlowConfig cfg;
  cfg.cppr = false;
  cfg.cppr_feature = false;
  cfg.data.ts.num_constraint_sets = 1;
  cfg.train.epochs = 30;
  Framework fw(cfg);
  std::vector<Design> designs;
  designs.push_back(test::make_tiny_design("nc", 60));
  fw.train(designs);
  const Design d = test::make_tiny_design("nc2", 61);
  const DesignResult r = fw.run_design(d);
  EXPECT_EQ(r.acc.structural_mismatches, 0u);
  // Measured 0.0046 ps; the gate leaves 21x margin for compiler and
  // sanitizer floating-point differences.
  EXPECT_LT(r.acc.max_err_ps, 0.1);
}

}  // namespace
}  // namespace tmm

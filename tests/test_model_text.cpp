#include <gtest/gtest.h>

#include "macro/baselines.hpp"
#include "macro/ilm.hpp"
#include "macro/merge.hpp"
#include "macro/model_io.hpp"
#include "test_helpers.hpp"
#include "util/text_writer.hpp"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace tmm {
namespace {

using util::TextWriter;

/// What an std::ostream at the model text's precision prints for `v`.
template <typename T>
std::string stream_text(T v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

template <typename T>
std::string writer_text(T v) {
  std::string out;
  TextWriter w(out);
  w << v;
  w.flush();
  return out;
}

TEST(TextWriter, DoublesMatchStreamAtEdgeValues) {
  std::vector<double> values = {
      0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_TRUE_MIN,
      -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0), 2.5e-310, 1e300, 1e-300,
      -1e300, -1e-300, 999999999.5, 9.9999999995e-5, 9.99999999e-5,
      9.999999994e-5, 999999999.0, 999999999.4, 1e9, 1e8, 0.0001, 1e-5,
      0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1.0, -1.0, 123456789.0, 1234567890.0,
      12345.6789012345, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  // Around every power of ten %g might switch notation or round up at:
  // the power itself, its neighbours, and values half an ulp of the ninth
  // digit below it.
  for (int k = -8; k <= 12; ++k) {
    const double p = std::pow(10.0, k);
    for (const double v : {p, std::nextafter(p, 0.0), std::nextafter(p, 2 * p),
                           p * (1 - 5e-10), p * (1 - 4.9e-10),
                           p * (1 - 5.1e-10)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (const double v : values)
    EXPECT_EQ(writer_text(v), stream_text(v)) << std::hexfloat << v;
}

TEST(TextWriter, RandomFiniteBitPatternsMatchStream) {
  // One long text through both, so the writer's buffer drains many times.
  std::mt19937_64 rng(0x7e47);
  std::ostringstream want;
  want.precision(9);
  std::string got;
  TextWriter w(got);
  std::size_t n = 0;
  while (n < 100'000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    want << v << ' ';
    w << v << ' ';
    ++n;
  }
  const std::size_t bytes = w.flush();
  EXPECT_EQ(bytes, got.size());
  ASSERT_EQ(got.size(), want.str().size());
  EXPECT_EQ(got, want.str());
}

template <typename T>
void expect_integers_match() {
  using L = std::numeric_limits<T>;
  std::mt19937_64 rng(sizeof(T) * 31 + L::is_signed);
  std::vector<T> values = {L::min(), L::max(), T(0), T(1), T(9), T(10),
                           T(L::max() - 1), T(L::min() + 1)};
  if (L::is_signed) values.push_back(T(-1));
  for (int i = 0; i < 1000; ++i)
    values.push_back(static_cast<T>(rng() >> (rng() % 64)));
  for (const T v : values) EXPECT_EQ(writer_text(v), stream_text(v)) << v;
}

TEST(TextWriter, EveryIntegerTypeMatchesStream) {
  expect_integers_match<int>();
  expect_integers_match<unsigned>();
  expect_integers_match<long>();
  expect_integers_match<unsigned long>();
  expect_integers_match<long long>();
  expect_integers_match<unsigned long long>();
}

TEST(TextWriter, SinksAgreeAndCountOnlyDropsBytes) {
  const std::string long_name(20'000, 'x');  // longer than the buffer
  auto emit = [&](TextWriter& w) {
    for (int i = 0; i < 5000; ++i)
      w << "node " << long_name.substr(0, static_cast<std::size_t>(i % 97))
        << ' ' << i << ' ' << i * 0.37 << '\n';
    w << long_name << '\n';
    return w.flush();
  };
  std::string s;
  TextWriter to_string(s);
  std::ostringstream os;
  TextWriter to_stream(os);
  TextWriter count_only;
  const std::size_t n = emit(to_string);
  EXPECT_EQ(n, s.size());
  EXPECT_EQ(emit(to_stream), n);
  EXPECT_EQ(os.str(), s);
  EXPECT_EQ(emit(count_only), n);
  count_only.skip(7);
  EXPECT_EQ(count_only.count(), n + 7);
}

// --- Model text ---------------------------------------------------------

/// The design `tmm gen-design --pins 3000` generates.
Design make_3000_pin_design(std::uint64_t seed) {
  DesignGenConfig cfg;
  cfg.name = "pins3000";
  cfg.seed = seed;
  cfg.num_flops = 90;
  cfg.levels = 8;
  cfg.gates_per_level = 96;
  cfg.num_data_inputs = 15;
  cfg.num_outputs = 15;
  return generate_design(test::shared_library(), cfg);
}

/// ILM with every third pin kept and the rest merged: library tables
/// shared by many arcs next to re-characterized ones the graph owns.
MacroModel merged_model(const TimingGraph& flat) {
  MacroModel model;
  model.design_name = "merged";
  model.graph = extract_ilm(flat).graph;
  std::vector<bool> keep(model.graph.num_nodes());
  for (NodeId n = 0; n < keep.size(); ++n) keep[n] = n % 3 == 0;
  merge_insensitive_pins(model.graph, keep);
  return model;
}

std::string written(const MacroModel& model, std::size_t* bytes = nullptr) {
  std::ostringstream os;
  const std::size_t n = write_macro_model(model, os);
  if (bytes != nullptr) *bytes = n;
  return os.str();
}

TEST(ModelText, SizeEqualsWrittenBytesForEveryModelKind) {
  const TimingGraph flat =
      build_timing_graph(test::make_small_design("size", 21));
  EtmConfig etm_cfg;
  etm_cfg.slew_samples = {2.0, 10.0, 40.0};
  etm_cfg.load_samples = {1.0, 8.0};
  const MacroModel models[] = {merged_model(flat),
                               generate_itimerm_model(flat),
                               generate_etm_model(flat, etm_cfg)};
  for (const MacroModel& m : models) {
    SCOPED_TRACE(m.design_name);
    std::size_t bytes = 0;
    const std::string text = written(m, &bytes);
    EXPECT_EQ(bytes, text.size());
    EXPECT_EQ(macro_model_size_bytes(m), text.size());
  }
}

TEST(ModelText, WriteReadWriteIsByteIdentical) {
  const MacroModel model =
      merged_model(build_timing_graph(make_3000_pin_design(3)));
  ASSERT_GT(model.graph.num_owned_tables(), 0u);
  const std::string text = written(model);
  EXPECT_EQ(macro_model_size_bytes(model), text.size());
  std::istringstream is(text);
  const MacroModel back = read_macro_model(is);
  const std::string again = written(back);
  EXPECT_EQ(again, text);
  // Read tables are all owned, one per arc: nothing for the memo to share.
  EXPECT_EQ(macro_model_size_bytes(back), text.size());

  const std::string path = testing::TempDir() + "model_text.macro";
  EXPECT_EQ(write_macro_model_file(model, path), text.size());
  std::ifstream file(path, std::ios::binary);
  const std::string on_disk{std::istreambuf_iterator<char>(file),
                            std::istreambuf_iterator<char>()};
  EXPECT_EQ(on_disk, text);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tmm

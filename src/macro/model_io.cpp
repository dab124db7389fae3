#include "macro/model_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "fault/token_reader.hpp"
#include "util/atomic_io.hpp"

namespace tmm {

namespace {

using fault::ErrorCode;
using fault::FlowError;
using io::TokenReader;

/// Caps on count fields so a corrupt header cannot become a huge
/// allocation before the next tag check fires.
constexpr std::size_t kMaxRecords = 100'000'000;
constexpr std::size_t kMaxLutAxis = 10'000;

void write_lut(std::ostream& os, const Lut& lut) {
  os << lut.slew_index().size() << ' ' << lut.load_index().size() << '\n';
  for (double v : lut.slew_index()) os << v << ' ';
  os << '\n';
  for (double v : lut.load_index()) os << v << ' ';
  os << '\n';
  for (double v : lut.values()) os << v << ' ';
  os << '\n';
}

Lut read_lut(TokenReader& tr) {
  const std::size_t ni = tr.size_at_most("lut slew-axis size", kMaxLutAxis);
  const std::size_t nj = tr.size_at_most("lut load-axis size", kMaxLutAxis);
  std::vector<double> i1(ni);
  std::vector<double> i2(nj);
  for (auto& v : i1) v = tr.number("lut slew index");
  for (auto& v : i2) v = tr.number("lut load index");
  const std::size_t nvals = ni == 0 ? 1 : ni * std::max<std::size_t>(nj, 1);
  std::vector<double> vals(nvals);
  for (auto& v : vals) v = tr.number("lut value");
  try {
    if (ni == 0) return Lut::scalar(vals[0]);
    if (nj == 0) return Lut::table1d(std::move(i1), std::move(vals));
    return Lut::table2d(std::move(i1), std::move(i2), std::move(vals));
  } catch (const std::invalid_argument& e) {
    tr.fail(e.what());
  }
}

void write_tables(std::ostream& os, const ElRf<Lut>& t) {
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) write_lut(os, t(el, rf));
}

ElRf<Lut> read_tables(TokenReader& tr) {
  ElRf<Lut> t;
  for (unsigned el = 0; el < kNumEl; ++el)
    for (unsigned rf = 0; rf < kNumRf; ++rf) t(el, rf) = read_lut(tr);
  return t;
}

/// Output buffer that counts the bytes written through it and passes
/// them on to `sink`, or drops them when `sink` is null.
class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(std::streambuf* sink) : sink_(sink) {
    setp(buf_, buf_ + sizeof buf_);
  }

  /// Bytes written so far, after passing any buffered ones on.
  std::size_t count() {
    drain();
    return count_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!drain()) return traits_type::eof();
    if (traits_type::eq_int_type(ch, traits_type::eof()))
      return traits_type::not_eof(ch);
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
    return ch;
  }
  int sync() override { return drain() ? 0 : -1; }

 private:
  bool drain() {
    const std::streamsize n = pptr() - pbase();
    count_ += static_cast<std::size_t>(n);
    setp(buf_, buf_ + sizeof buf_);
    return sink_ == nullptr || sink_->sputn(buf_, n) == n;
  }

  std::streambuf* sink_;
  char buf_[8192];
  std::size_t count_ = 0;
};

/// Serialize `model` to `os` (null: count only); returns the byte count.
std::size_t write_counted(const MacroModel& model, std::ostream* os) {
  const TimingGraph& g = model.graph;
  CountingBuf counter(os != nullptr ? os->rdbuf() : nullptr);
  std::ostream buf(&counter);
  buf.precision(9);

  // Compact live node ids.
  std::vector<NodeId> to_compact(g.num_nodes(), kInvalidId);
  std::size_t live = 0;
  for (NodeId n = 0; n < g.num_nodes(); ++n)
    if (!g.node(n).dead) to_compact[n] = static_cast<NodeId>(live++);

  std::size_t live_arcs = 0;
  for (ArcId a = 0; a < g.num_arcs(); ++a)
    if (!g.arc(a).dead) ++live_arcs;
  std::size_t live_checks = 0;
  for (const auto& c : g.checks())
    if (!c.dead) ++live_checks;

  buf << "macro " << model.design_name << ' ' << live << ' ' << live_arcs
      << ' ' << live_checks << '\n';

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto& node = g.node(n);
    if (node.dead) continue;
    unsigned flags = 0;
    if (node.is_clock_root) flags |= 1u;
    if (node.in_clock_network) flags |= 2u;
    if (node.is_ff_clock) flags |= 4u;
    if (node.is_ff_data) flags |= 8u;
    buf << "node " << node.name << ' ' << static_cast<int>(node.role) << ' '
        << node.port_ordinal << ' ' << flags << ' ' << node.static_load_ff
        << ' ' << node.aocv_depth << ' ' << node.attached_po_loads.size();
    for (auto po : node.attached_po_loads) buf << ' ' << po;
    buf << '\n';
  }

  for (ArcId a = 0; a < g.num_arcs(); ++a) {
    const auto& arc = g.arc(a);
    if (arc.dead) continue;
    buf << "arc " << to_compact[arc.from] << ' ' << to_compact[arc.to] << ' '
        << static_cast<int>(arc.kind) << ' ' << static_cast<int>(arc.sense)
        << ' ' << (arc.is_launch ? 1 : 0) << ' ' << (arc.baked_derate ? 1 : 0)
        << ' ' << arc.wire_delay_ps << '\n';
    if (arc.kind == GraphArcKind::kCell) {
      write_tables(buf, *arc.delay);
      write_tables(buf, *arc.out_slew);
    }
  }

  for (const auto& c : g.checks()) {
    if (c.dead) continue;
    buf << "check " << to_compact[c.clock] << ' ' << to_compact[c.data] << ' '
        << (c.is_setup ? 1 : 0) << '\n';
    write_tables(buf, *c.guard);
  }

  buf.flush();
  if (os != nullptr && !buf) os->setstate(std::ios::badbit);
  return counter.count();
}

}  // namespace

std::size_t write_macro_model(const MacroModel& model, std::ostream& os) {
  return write_counted(model, &os);
}

std::size_t macro_model_size_bytes(const MacroModel& model) {
  return write_counted(model, nullptr);
}

MacroModel read_macro_model(std::istream& is, std::string source) {
  fault::inject("macro.read");
  TokenReader tr(is, std::move(source));
  MacroModel model;
  tr.expect("macro");
  model.design_name = tr.token("design name");
  const std::size_t nn = tr.size_at_most("node count", kMaxRecords);
  const std::size_t na = tr.size_at_most("arc count", kMaxRecords);
  const std::size_t nc = tr.size_at_most("check count", kMaxRecords);
  TimingGraph& g = model.graph;

  for (std::size_t i = 0; i < nn; ++i) {
    tr.expect("node");
    GraphNode node;
    node.name = tr.token("node name");
    const int role = tr.integer_in("node role", 0,
                                   static_cast<int>(NodeRole::kPrimaryOutput));
    node.port_ordinal = tr.u32("port ordinal");
    const unsigned flags = static_cast<unsigned>(
        tr.integer_in("node flags", 0, 15));
    node.static_load_ff = tr.number("static load");
    node.aocv_depth = tr.u32("aocv depth");
    const std::size_t npo =
        tr.size_at_most("attached PO load count", kMaxRecords);
    node.role = static_cast<NodeRole>(role);
    node.is_clock_root = (flags & 1u) != 0;
    node.in_clock_network = (flags & 2u) != 0;
    node.is_ff_clock = (flags & 4u) != 0;
    node.is_ff_data = (flags & 8u) != 0;
    node.attached_po_loads.resize(npo);
    for (auto& po : node.attached_po_loads) po = tr.u32("attached PO ordinal");
    const std::uint32_t ordinal = node.port_ordinal;
    const NodeRole r = node.role;
    const bool clock_root = node.is_clock_root;
    const NodeId id = g.add_node(std::move(node));
    if (r == NodeRole::kPrimaryInput)
      g.set_primary_input(id, ordinal, clock_root);
    else if (r == NodeRole::kPrimaryOutput)
      g.set_primary_output(id, ordinal);
  }

  auto node_ref = [&](const char* what) {
    const std::size_t id = tr.size(what);
    if (id >= nn)
      tr.fail("dangling node reference " + std::to_string(id) + " for " +
              what + " (model has " + std::to_string(nn) + " nodes)");
    return static_cast<NodeId>(id);
  };

  for (std::size_t i = 0; i < na; ++i) {
    tr.expect("arc");
    const NodeId from = node_ref("arc source");
    const NodeId to = node_ref("arc sink");
    const int kind = tr.integer_in(
        "arc kind", 0, static_cast<int>(GraphArcKind::kWire));
    const int sense = tr.integer_in(
        "arc sense", 0, static_cast<int>(ArcSense::kNonUnate));
    const int launch = tr.integer_in("launch flag", 0, 1);
    const int baked = tr.integer_in("baked-derate flag", 0, 1);
    const double wire_delay = tr.number("wire delay");
    if (static_cast<GraphArcKind>(kind) == GraphArcKind::kWire) {
      g.add_wire_arc(from, to, wire_delay);
    } else {
      const ElRf<Lut>* dt = g.own_tables(read_tables(tr));
      const ElRf<Lut>* st = g.own_tables(read_tables(tr));
      const ArcId id = g.add_cell_arc(from, to, static_cast<ArcSense>(sense),
                                      dt, st, launch != 0);
      g.arc(id).baked_derate = baked != 0;
    }
  }

  for (std::size_t i = 0; i < nc; ++i) {
    tr.expect("check");
    const NodeId ck = node_ref("check clock");
    const NodeId d = node_ref("check data");
    const int setup = tr.integer_in("setup flag", 0, 1);
    const ElRf<Lut>* guard = g.own_tables(read_tables(tr));
    g.add_check(ck, d, setup != 0, guard);
  }
  return model;
}

MacroModel read_macro_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw FlowError(ErrorCode::kIo, "macro.read", "cannot open " + path);
  return read_macro_model(is, path);
}

std::size_t write_macro_model_file(const MacroModel& model,
                                   const std::string& path) {
  fault::inject("macro.write");
  std::ostringstream buf;
  const std::size_t bytes = write_macro_model(model, buf);
  util::atomic_write_file(path, buf.str())
      .or_throw("macro.write", model.design_name);
  return bytes;
}

}  // namespace tmm

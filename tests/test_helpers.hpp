#pragma once
// Shared fixtures: a process-wide generated library and small
// hand-sized designs with known structure.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "liberty/library_gen.hpp"
#include "netlist/design.hpp"
#include "netlist/design_gen.hpp"

namespace tmm::test {

/// FNV-1a 64-bit hash over raw bytes; `h` chains calls, so a golden
/// can fold several buffers into one constant.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One generated library shared by all tests (cells are immutable).
inline const Library& shared_library() {
  static const Library lib = generate_library();
  return lib;
}

/// clk + 2 data PIs -> small comb cloud -> 2 FFs -> comb -> 2 POs,
/// with a 2-level clock tree. Small enough to reason about by hand.
inline Design make_tiny_design(const std::string& name = "tiny",
                               std::uint64_t seed = 5) {
  DesignGenConfig cfg;
  cfg.name = name;
  cfg.seed = seed;
  cfg.num_data_inputs = 2;
  cfg.num_outputs = 2;
  cfg.num_flops = 4;
  cfg.levels = 3;
  cfg.gates_per_level = 4;
  return generate_design(shared_library(), cfg);
}

/// Mid-size random design for integration tests.
inline Design make_small_design(const std::string& name = "small",
                                std::uint64_t seed = 11) {
  DesignGenConfig cfg;
  cfg.name = name;
  cfg.seed = seed;
  cfg.num_data_inputs = 8;
  cfg.num_outputs = 8;
  cfg.num_flops = 24;
  cfg.levels = 6;
  cfg.gates_per_level = 20;
  return generate_design(shared_library(), cfg);
}

/// A pure buffer chain: in -> BUF x n -> out. Deterministic timing.
inline Design make_buffer_chain(std::size_t n, double wire_res = 0.1,
                                double wire_cap = 0.5) {
  static const Library& lib = shared_library();
  Design d("chain", &lib);
  const CellId buf = lib.cell_id("BUF_X1");
  const auto& cell = lib.cell(buf);
  const auto a = cell.port_index("A");
  const auto y = cell.port_index("Y");

  d.add_port("in0", TopPortDir::kPrimaryInput);
  d.add_port("out0", TopPortDir::kPrimaryOutput);
  const PinId in_pin = d.port(0).pin;
  const PinId out_pin = d.port(1).pin;

  PinId prev = in_pin;
  NetId net = d.add_net("n_in", prev);
  for (std::size_t i = 0; i < n; ++i) {
    std::string gate_name = "b";
    gate_name += std::to_string(i);
    const GateId g = d.add_gate(gate_name, buf);
    d.connect_sink(net, d.gate(g).pins[a], wire_res);
    d.set_wire_cap(net, wire_cap);
    prev = d.gate(g).pins[y];
    std::string net_name = "n";
    net_name += std::to_string(i);
    net = d.add_net(net_name, prev);
  }
  d.connect_sink(net, out_pin, wire_res);
  d.set_wire_cap(net, wire_cap);
  d.validate();
  return d;
}

/// in0 -> INV -> XOR(A) ; in1 -> XOR(B) ; XOR -> BUF -> out0
inline Design make_nonunate_design() {
  const Library& lib = test::shared_library();
  Design d("nonunate", &lib);
  const CellId inv = lib.cell_id("INV_X1");
  const CellId xr = lib.cell_id("XOR2_X1");
  const CellId buf = lib.cell_id("BUF_X1");
  d.add_port("in0", TopPortDir::kPrimaryInput);
  d.add_port("in1", TopPortDir::kPrimaryInput);
  d.add_port("out0", TopPortDir::kPrimaryOutput);
  const PinId in0 = d.port(0).pin;
  const PinId in1 = d.port(1).pin;
  const PinId out0 = d.port(2).pin;

  const GateId g_inv = d.add_gate("u_inv", inv);
  const GateId g_xor = d.add_gate("u_xor", xr);
  const GateId g_buf = d.add_gate("u_buf", buf);
  auto pin = [&](GateId g, const char* p) {
    return d.gate(g).pins[lib.cell(d.gate(g).cell).port_index(p)];
  };

  const NetId n0 = d.add_net("n0", in0);
  d.connect_sink(n0, pin(g_inv, "A"), 0.1);
  const NetId n1 = d.add_net("n1", pin(g_inv, "Y"));
  d.connect_sink(n1, pin(g_xor, "A"), 0.1);
  const NetId n2 = d.add_net("n2", in1);
  d.connect_sink(n2, pin(g_xor, "B"), 0.1);
  const NetId n3 = d.add_net("n3", pin(g_xor, "Y"));
  d.connect_sink(n3, pin(g_buf, "A"), 0.1);
  const NetId n4 = d.add_net("n4", pin(g_buf, "Y"));
  d.connect_sink(n4, out0, 0.1);
  for (NetId n = 0; n < d.num_nets(); ++n) d.set_wire_cap(n, 0.4);
  d.validate();
  return d;
}

}  // namespace tmm::test

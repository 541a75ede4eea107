#include "sim/delay.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "circuit/netlist.hpp"
#include "sim/technology.hpp"

namespace {

namespace ckt = mpe::circuit;
namespace sim = mpe::sim;

ckt::Netlist fan_circuit() {
  ckt::Netlist nl("fan");
  nl.add_input("a");
  nl.add_input("b");
  nl.add_gate(ckt::GateType::kNand, "light", {"a", "b"});  // fans out to 1
  nl.add_gate(ckt::GateType::kNand, "heavy", {"a", "b"});  // fans out to 4
  nl.add_gate(ckt::GateType::kNot, "l0", {"light"});
  for (int i = 0; i < 4; ++i) {
    nl.add_gate(ckt::GateType::kNot, "h" + std::to_string(i), {"heavy"});
  }
  nl.finalize();
  return nl;
}

TEST(Delay, ModelNames) {
  EXPECT_STREQ(sim::to_string(sim::DelayModel::kZero), "zero");
  EXPECT_STREQ(sim::to_string(sim::DelayModel::kUnit), "unit");
  EXPECT_STREQ(sim::to_string(sim::DelayModel::kFanoutLoaded),
               "fanout-loaded");
  // The user-facing names (--delay, --model, manifest "delay").
  EXPECT_EQ(sim::delay_model_from_name("zero"), sim::DelayModel::kZero);
  EXPECT_EQ(sim::delay_model_from_name("unit"), sim::DelayModel::kUnit);
  EXPECT_EQ(sim::delay_model_from_name("loaded"),
            sim::DelayModel::kFanoutLoaded);
  for (const char* bad : {"", "fanout-loaded", "Zero", "zero "}) {
    EXPECT_FALSE(sim::delay_model_from_name(bad).has_value()) << bad;
  }
}

TEST(Delay, ZeroModelAllZeros) {
  const auto nl = fan_circuit();
  sim::Technology tech;
  const auto caps = sim::node_capacitances(nl, tech);
  const auto d = sim::gate_delays(nl, tech, sim::DelayModel::kZero, caps);
  for (double v : d) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Delay, UnitModelUniform) {
  const auto nl = fan_circuit();
  sim::Technology tech;
  const auto caps = sim::node_capacitances(nl, tech);
  const auto d = sim::gate_delays(nl, tech, sim::DelayModel::kUnit, caps);
  for (double v : d) EXPECT_DOUBLE_EQ(v, tech.unit_delay_ns);
}

TEST(Delay, FanoutLoadedGrowsWithLoad) {
  const auto nl = fan_circuit();
  sim::Technology tech;
  const auto caps = sim::node_capacitances(nl, tech);
  const auto d =
      sim::gate_delays(nl, tech, sim::DelayModel::kFanoutLoaded, caps);
  const auto light_gate = nl.driver(*nl.find("light"));
  const auto heavy_gate = nl.driver(*nl.find("heavy"));
  EXPECT_GT(d[heavy_gate], d[light_gate]);
  for (double v : d) EXPECT_GT(v, 0.0);
}

TEST(Delay, XorSlowerThanInverterAtSameLoad) {
  ckt::Netlist nl("x");
  nl.add_input("a");
  nl.add_input("b");
  nl.add_gate(ckt::GateType::kXor, "x1", {"a", "b"});
  nl.add_gate(ckt::GateType::kNot, "n1", {"a"});
  nl.finalize();
  sim::Technology tech;
  const auto caps = sim::node_capacitances(nl, tech);
  const auto d =
      sim::gate_delays(nl, tech, sim::DelayModel::kFanoutLoaded, caps);
  EXPECT_GT(d[nl.driver(*nl.find("x1"))], d[nl.driver(*nl.find("n1"))]);
}

}  // namespace

// netlist tests: the Circuit's typed element inventory (module.hpp).
//
// The lint rules and the static timing analyzer read a circuit through
// this inventory, so the kind each element is recorded as (and whether
// that kind may hold state on a feedback cycle) is checked here.
#include <gtest/gtest.h>

#include <string>

#include "device/delay_model.hpp"
#include "gates/celement.hpp"
#include "gates/energy_meter.hpp"
#include "gates/toggle.hpp"
#include "netlist/module.hpp"
#include "sim/kernel.hpp"
#include "supply/battery.hpp"

namespace emc::netlist {
namespace {

struct Fixture {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::Battery supply;
  gates::EnergyMeter meter;
  gates::Context ctx;

  explicit Fixture(double vdd = 1.0)
      : supply(kernel, "vdd", vdd),
        meter(kernel, device::Tech::umc90(), &supply),
        ctx{kernel, model, supply, &meter} {}
};

ElementKind kind_named(const Circuit& c, const std::string& name) {
  for (const auto& e : c.elements()) {
    if (e.name == name) return e.kind;
  }
  ADD_FAILURE() << "no element " << name;
  return ElementKind::kOther;
}

TEST(NetlistInventory, ElementsRecordTheirConcreteKind) {
  Fixture f;
  Circuit c(f.ctx, "m");
  sim::Wire& a = c.wire("a");
  sim::Wire& b = c.wire("b");
  sim::Wire& y = c.wire("y");
  sim::Wire& z = c.wire("z");
  sim::Wire& dot = c.wire("dot");
  sim::Wire& blank = c.wire("blank");
  c.comb("nand", gates::Op::kNand, {&a, &b}, y);
  c.emplace<gates::CElement>(f.ctx, "m.c", std::vector<sim::Wire*>{&a, &b},
                             z);
  c.emplace<gates::Toggle>(f.ctx, "m.t", z, dot, blank);
  c.note_element("m.latch", ElementKind::kEndpoint);

  ASSERT_EQ(c.elements().size(), 4u);
  EXPECT_EQ(kind_named(c, "m.nand"), ElementKind::kComb);
  EXPECT_EQ(kind_named(c, "m.c"), ElementKind::kCElement);
  EXPECT_EQ(kind_named(c, "m.t"), ElementKind::kToggle);
  EXPECT_EQ(kind_named(c, "m.latch"), ElementKind::kEndpoint);
}

TEST(NetlistInventory, NoteElementKeepsTheFirstKind) {
  Fixture f;
  Circuit c(f.ctx, "m");
  c.note_element("m.x", ElementKind::kEndpoint);
  c.note_element("m.x", ElementKind::kComb);
  ASSERT_EQ(c.elements().size(), 1u);
  EXPECT_EQ(c.elements()[0].kind, ElementKind::kEndpoint);
}

TEST(NetlistInventory, OnlyCombinationalKindsAreStateless) {
  EXPECT_FALSE(is_state_holding(ElementKind::kComb));
  for (ElementKind k : {ElementKind::kCElement, ElementKind::kToggle,
                        ElementKind::kEndpoint, ElementKind::kOther}) {
    EXPECT_TRUE(is_state_holding(k)) << to_string(k);
  }
  EXPECT_STREQ(to_string(ElementKind::kCElement), "c-element");
  EXPECT_STREQ(to_string(ElementKind::kEndpoint), "endpoint");
}

}  // namespace
}  // namespace emc::netlist

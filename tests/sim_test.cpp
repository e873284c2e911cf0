#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "dpgen/module.hpp"
#include "netlist/builder.hpp"
#include "oracles/heap_event_sim.hpp"
#include "sim/electrical.hpp"
#include "sim/event_sim.hpp"
#include "sim/functional.hpp"
#include "sim/power.hpp"
#include "sim/sim_context.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hdpm::sim {
namespace {

using gate::TechLibrary;
using netlist::NetId;
using netlist::Netlist;
using netlist::NetlistBuilder;
using util::BitVec;
using util::Rng;

Netlist xor_chain(int length)
{
    NetlistBuilder b{"xor_chain"};
    const NetId a = b.input("a");
    const NetId c = b.input("b");
    NetId n = b.xor2(a, c);
    for (int i = 1; i < length; ++i) {
        n = b.xor2(n, c);
    }
    b.output(n, "y");
    return b.take();
}

TEST(Functional, EvaluatesXor)
{
    const Netlist nl = xor_chain(1);
    FunctionalEvaluator eval{nl};
    EXPECT_EQ(eval.eval(BitVec{2, 0b00}).raw(), 0U);
    EXPECT_EQ(eval.eval(BitVec{2, 0b01}).raw(), 1U);
    EXPECT_EQ(eval.eval(BitVec{2, 0b10}).raw(), 1U);
    EXPECT_EQ(eval.eval(BitVec{2, 0b11}).raw(), 0U);
}

TEST(Functional, InputWidthChecked)
{
    const Netlist nl = xor_chain(1);
    FunctionalEvaluator eval{nl};
    EXPECT_THROW((void)eval.eval(BitVec{3, 0}), util::PreconditionError);
}

TEST(Electrical, CapacitanceAndDelaysPositive)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const ElectricalView view{module.netlist(), TechLibrary::generic350()};
    for (NetId net = 0; net < module.netlist().num_nets(); ++net) {
        EXPECT_GT(view.net_cap_ff(net), 0.0);
        EXPECT_GT(view.edge_charge_fc(net), 0.0);
    }
    for (netlist::CellId cell = 0; cell < module.netlist().num_cells(); ++cell) {
        EXPECT_GE(view.cell_delay_ps(cell), 1);
    }
    EXPECT_GT(view.total_cap_ff(), 0.0);
    EXPECT_GT(view.critical_path_ps(), 0);
}

TEST(Electrical, CriticalPathGrowsWithWidth)
{
    const dp::DatapathModule small = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const dp::DatapathModule large = dp::make_module(dp::ModuleType::RippleAdder, 16);
    const ElectricalView sv{small.netlist(), TechLibrary::generic350()};
    const ElectricalView lv{large.netlist(), TechLibrary::generic350()};
    EXPECT_GT(lv.critical_path_ps(), sv.critical_path_ps());
    EXPECT_GT(lv.total_cap_ff(), sv.total_cap_ff());
}

TEST(EventSim, RequiresInitialize)
{
    const Netlist nl = xor_chain(1);
    EventSimulator sim{nl, TechLibrary::generic350()};
    EXPECT_THROW((void)sim.apply(BitVec{2, 0}), util::PreconditionError);
}

TEST(EventSim, SamePatternDrawsNoCharge)
{
    const Netlist nl = xor_chain(4);
    EventSimulator sim{nl, TechLibrary::generic350()};
    sim.initialize(BitVec{2, 0b01});
    const CycleResult r = sim.apply(BitVec{2, 0b01});
    EXPECT_EQ(r.transitions, 0U);
    EXPECT_DOUBLE_EQ(r.charge_fc, 0.0);
}

TEST(EventSim, ChargePositiveOnToggle)
{
    const Netlist nl = xor_chain(4);
    EventSimulator sim{nl, TechLibrary::generic350()};
    sim.initialize(BitVec{2, 0b00});
    const CycleResult r = sim.apply(BitVec{2, 0b01});
    EXPECT_GT(r.charge_fc, 0.0);
    EXPECT_GT(r.transitions, 0U);
    EXPECT_GT(r.settle_time_ps, 0);
}

class EventSimMatchesFunctional
    : public ::testing::TestWithParam<std::tuple<dp::ModuleType, int>> {};

TEST_P(EventSimMatchesFunctional, FinalStateAgrees)
{
    const auto [type, width] = GetParam();
    const dp::DatapathModule module = dp::make_module(type, width);
    const int m = module.total_input_bits();

    EventSimulator sim{module.netlist(), TechLibrary::generic350()};
    FunctionalEvaluator eval{module.netlist()};

    Rng rng{2024};
    BitVec pattern{m, rng.next_u64()};
    sim.initialize(pattern);
    for (int trial = 0; trial < 40; ++trial) {
        pattern = BitVec{m, rng.next_u64()};
        (void)sim.apply(pattern);
        const BitVec expected = eval.eval(pattern);
        EXPECT_EQ(sim.outputs(), expected) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modules, EventSimMatchesFunctional,
    ::testing::Combine(::testing::ValuesIn(dp::all_module_types().begin(),
                                           dp::all_module_types().end()),
                       ::testing::Values(3, 6)),
    [](const ::testing::TestParamInfo<std::tuple<dp::ModuleType, int>>& info) {
        return dp::module_type_id(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param));
    });

TEST(EventSim, Deterministic)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 4);
    const int m = module.total_input_bits();

    auto run = [&] {
        EventSimulator sim{module.netlist(), TechLibrary::generic350()};
        Rng rng{5};
        sim.initialize(BitVec{m, rng.next_u64()});
        double total = 0.0;
        for (int i = 0; i < 50; ++i) {
            total += sim.apply(BitVec{m, rng.next_u64()}).charge_fc;
        }
        return total;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(EventSim, GlitchesProduceExtraTransitions)
{
    // A ripple adder's carry chain glitches: toggling the LSB operand bits
    // can ripple. Event transitions must be able to exceed the number of
    // nets that differ between the two steady states.
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 12);
    const int m = module.total_input_bits();
    EventSimulator sim{module.netlist(), TechLibrary::generic350()};
    FunctionalEvaluator before{module.netlist()};
    FunctionalEvaluator after{module.netlist()};

    Rng rng{31};
    std::uint64_t extra_seen = 0;
    BitVec u{m, rng.next_u64()};
    for (int trial = 0; trial < 60; ++trial) {
        const BitVec v{m, rng.next_u64()};
        sim.initialize(u);
        (void)before.eval(u);
        (void)after.eval(v);
        std::uint64_t steady_diff = 0;
        for (NetId net = 0; net < module.netlist().num_nets(); ++net) {
            if (before.value(net) != after.value(net)) {
                ++steady_diff;
            }
        }
        const CycleResult r = sim.apply(v);
        EXPECT_GE(r.transitions, steady_diff);
        if (r.transitions > steady_diff) {
            ++extra_seen;
        }
        u = v;
    }
    EXPECT_GT(extra_seen, 0U) << "no glitching observed at all";
}

TEST(EventSim, InertialFilterReducesTransitions)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 6);
    const int m = module.total_input_bits();

    auto total_transitions = [&](std::int64_t window) {
        EventSimOptions options;
        options.inertial_window_ps = window;
        EventSimulator sim{module.netlist(), TechLibrary::generic350(), options};
        Rng rng{77};
        sim.initialize(BitVec{m, rng.next_u64()});
        std::uint64_t total = 0;
        for (int i = 0; i < 80; ++i) {
            total += sim.apply(BitVec{m, rng.next_u64()}).transitions;
        }
        return total;
    };

    const std::uint64_t transport = total_transitions(0);
    const std::uint64_t inertial = total_transitions(100);
    EXPECT_LT(inertial, transport);
}

TEST(EventSim, InertialFilterPreservesFinalState)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::ClaAdder, 8);
    const int m = module.total_input_bits();
    EventSimOptions options;
    options.inertial_window_ps = 200;
    EventSimulator sim{module.netlist(), TechLibrary::generic350(), options};
    FunctionalEvaluator eval{module.netlist()};

    Rng rng{13};
    sim.initialize(BitVec{m, rng.next_u64()});
    for (int trial = 0; trial < 40; ++trial) {
        const BitVec v{m, rng.next_u64()};
        (void)sim.apply(v);
        EXPECT_EQ(sim.outputs(), eval.eval(v));
    }
}

TEST(EventSim, InputChargeOption)
{
    const Netlist nl = xor_chain(1);
    EventSimOptions with;
    EventSimOptions without;
    without.count_input_charge = false;

    EventSimulator sim_with{nl, TechLibrary::generic350(), with};
    EventSimulator sim_without{nl, TechLibrary::generic350(), without};
    sim_with.initialize(BitVec{2, 0b00});
    sim_without.initialize(BitVec{2, 0b00});
    // Toggle input b only; the xor output toggles too.
    const double q_with = sim_with.apply(BitVec{2, 0b10}).charge_fc;
    const double q_without = sim_without.apply(BitVec{2, 0b10}).charge_fc;
    EXPECT_GT(q_with, q_without);
    EXPECT_GT(q_without, 0.0);
}

TEST(PowerSim, RunAccumulatesCycles)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    PowerSimulator power{module.netlist(), TechLibrary::generic350()};

    Rng rng{8};
    std::vector<BitVec> patterns;
    for (int i = 0; i < 21; ++i) {
        patterns.emplace_back(m, rng.next_u64());
    }
    const StreamPowerResult result = power.run(patterns);
    EXPECT_EQ(result.cycle_charge_fc.size(), 20U);
    double total = 0.0;
    for (const double q : result.cycle_charge_fc) {
        EXPECT_GE(q, 0.0);
        total += q;
    }
    EXPECT_DOUBLE_EQ(total, result.total_charge_fc);
    EXPECT_NEAR(result.mean_charge_fc(), total / 20.0, 1e-12);
}

TEST(PowerSim, NeedsTwoPatterns)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    PowerSimulator power{module.netlist(), TechLibrary::generic350()};
    const std::vector<BitVec> one{BitVec{module.total_input_bits(), 0}};
    EXPECT_THROW((void)power.run(one), util::PreconditionError);
}

TEST(PowerSim, MeasurePairColdStart)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::AbsVal, 6);
    PowerSimulator power{module.netlist(), TechLibrary::generic350()};
    const BitVec u{6, 0b000001};
    const BitVec v{6, 0b111111};
    const CycleResult a = power.measure_pair(u, v);
    const CycleResult b = power.measure_pair(u, v);
    EXPECT_DOUBLE_EQ(a.charge_fc, b.charge_fc) << "measure_pair must be stateless";
    EXPECT_GT(a.charge_fc, 0.0);
}

TEST(Vcd, EmitsHeaderAndChanges)
{
    const Netlist nl = xor_chain(2);
    std::ostringstream out;
    VcdWriter vcd{out, nl, 10000};
    EventSimulator sim{nl, TechLibrary::generic350()};
    sim.set_tracer(&vcd);
    sim.initialize(BitVec{2, 0b00});
    (void)sim.apply(BitVec{2, 0b11});
    sim.set_tracer(nullptr);

    const std::string text = out.str();
    EXPECT_NE(text.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
    EXPECT_NE(text.find("$dumpvars"), std::string::npos);
    EXPECT_NE(text.find("#0"), std::string::npos);
}

TEST(Vcd, ChangeCountMatchesSimulatedTransitions)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    std::ostringstream out;
    VcdWriter vcd{out, module.netlist(), 100000};
    EventSimulator sim{module.netlist(), TechLibrary::generic350()};
    sim.set_tracer(&vcd);

    Rng rng{41};
    sim.initialize(BitVec{m, rng.next_u64()});
    std::uint64_t transitions = 0;
    for (int i = 0; i < 20; ++i) {
        transitions += sim.apply(BitVec{m, rng.next_u64()}).transitions;
    }
    sim.set_tracer(nullptr);

    // Count value-change lines after $enddefinitions, excluding the initial
    // $dumpvars block.
    std::istringstream in{out.str()};
    std::string line;
    bool in_body = false;
    bool in_dump = false;
    std::uint64_t changes = 0;
    while (std::getline(in, line)) {
        if (line.find("$enddefinitions") != std::string::npos) {
            in_body = true;
            continue;
        }
        if (!in_body || line.empty()) {
            continue;
        }
        if (line.rfind("$dumpvars", 0) == 0) {
            in_dump = true;
            continue;
        }
        if (in_dump) {
            if (line.rfind("$end", 0) == 0) {
                in_dump = false;
            }
            continue;
        }
        if (line[0] == '0' || line[0] == '1') {
            ++changes;
        }
    }
    EXPECT_EQ(changes, transitions);
}

TEST(Vcd, CyclesAdvanceGlobalTime)
{
    const Netlist nl = xor_chain(1);
    std::ostringstream out;
    VcdWriter vcd{out, nl, 5000};
    EventSimulator sim{nl, TechLibrary::generic350()};
    sim.set_tracer(&vcd);
    sim.initialize(BitVec{2, 0b00});
    (void)sim.apply(BitVec{2, 0b01});
    (void)sim.apply(BitVec{2, 0b10});
    sim.set_tracer(nullptr);
    // The second cycle's input edge lands at t = 5000.
    EXPECT_NE(out.str().find("#5000"), std::string::npos);
}

/// The wheel and the reference heap kernel (tests/oracles) emit the same
/// value changes at the same times in the same order, so their VCD streams
/// are byte-identical — across glitchy multi-cycle runs and a re-initialize
/// in the middle.
TEST(Vcd, WheelAndHeapStreamsAreByteIdentical)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 6);
    const int m = module.total_input_bits();
    const SimContext context{module.netlist(), TechLibrary::generic350()};

    auto trace = [&](auto sim) {
        std::ostringstream out;
        VcdWriter vcd{out, module.netlist(), 10000};
        sim.set_tracer(&vcd);
        Rng rng{73};
        sim.initialize(BitVec{m, rng.next_u64()});
        for (int i = 0; i < 30; ++i) {
            if (i == 15) {
                sim.initialize(BitVec{m, rng.next_u64()});
            }
            (void)sim.apply(BitVec{m, rng.next_u64()});
        }
        sim.set_tracer(nullptr);
        return out.str();
    };

    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{100}}) {
        EventSimOptions options;
        options.inertial_window_ps = window;
        const std::string wheel = trace(EventSimulator{context, options});
        EXPECT_GT(wheel.size(), 1000U) << "window " << window;
        EXPECT_EQ(wheel, trace(oracle::HeapEventSimulator{module.netlist(),
                                                          context.electrical(), options}))
            << "window " << window;
    }
}

/// At a corner the trace is the class-nominal trace on a dilated time
/// axis: every timestamp within a cycle is the nominal one scaled by the
/// corner's delay factor (cycles still start at multiples of the period),
/// with the same value changes in the same order — from the wheel and the
/// heap kernel alike.
TEST(Vcd, CornerTimestampsAreDilatedNominalTimes)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 6);
    const int m = module.total_input_bits();
    constexpr std::int64_t kPeriod = 100000;
    const TechLibrary& base = TechLibrary::generic350();
    const gate::Corner corner{2.5, 85.0, gate::LoadClass::Nominal};
    const TechLibrary slow = base.at(corner);
    const double scale = base.corner_delay_scale(corner);
    ASSERT_GT(scale, 1.0);
    const SimContext nominal{module.netlist(), base};
    const SimContext dilated{module.netlist(), slow};

    auto trace = [&](auto sim) {
        std::ostringstream out;
        VcdWriter vcd{out, module.netlist(), kPeriod};
        sim.set_tracer(&vcd);
        Rng rng{29};
        sim.initialize(BitVec{m, rng.next_u64()});
        for (int i = 0; i < 20; ++i) {
            (void)sim.apply(BitVec{m, rng.next_u64()});
        }
        sim.set_tracer(nullptr);
        return out.str();
    };

    // Rewrite the nominal trace's timestamps onto the corner's time axis.
    std::istringstream in{trace(EventSimulator{nominal})};
    std::string expected;
    std::string line;
    while (std::getline(in, line)) {
        if (line.size() > 1 && line[0] == '#') {
            const std::int64_t t = std::stoll(line.substr(1));
            const std::int64_t start = t / kPeriod * kPeriod;
            line = '#' + std::to_string(
                             start + std::llround(static_cast<double>(t - start) * scale));
        }
        expected += line + '\n';
    }
    const std::string wheel = trace(EventSimulator{dilated});
    EXPECT_NE(wheel, trace(EventSimulator{nominal}));
    EXPECT_EQ(wheel, expected);
    EXPECT_EQ(wheel, trace(oracle::HeapEventSimulator{module.netlist(), dilated.electrical()}));
}

TEST(Vcd, RejectsBadPeriod)
{
    const Netlist nl = xor_chain(1);
    std::ostringstream out;
    EXPECT_THROW((VcdWriter{out, nl, 0}), util::PreconditionError);
}

} // namespace
} // namespace hdpm::sim

// Claims about the corner physics, pinned so a refactor cannot silently
// break them. A corner is a time dilation (gate::TechLibrary::at): within a
// load class every corner simulates the class's nominal integer delays and
// inertial window, so
//
//  - the per-net event toggles at any corner of a class equal those at the
//    class's nominal corner exactly, for every module family and stimulus;
//  - only the charge per toggle differs between them, so characterized
//    charge per cycle falls strictly with the supply at fixed temperature
//    and load, under both characterization backends;
//  - reported times (critical path, settle time) are the nominal ones
//    scaled by the corner's delay factor;
//  - a corner's charge is its class-nominal charge under the exact law
//    gate::ChargeLaw, so sweeps that derive every (Vdd, T) corner from one
//    class-nominal simulation match a simulation on the corner's own
//    library (oracle::HeapEventSimulator on TechLibrary::at).

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "oracles/heap_event_sim.hpp"
#include "sim/electrical.hpp"
#include "sim/event_sim.hpp"
#include "sim/sim_context.hpp"
#include "util/rng.hpp"

namespace hdpm {
namespace {

using gate::Corner;
using gate::LoadClass;
using gate::TechLibrary;
using util::BitVec;

/// Corners away from nominal timing in every load class: a slow, a hot and
/// a fast supply.
std::vector<Corner> same_class_corners(LoadClass load)
{
    return {{2.5, 85.0, load}, {2.7, 25.0, load}, {3.0, 125.0, load}, {3.6, 0.0, load}};
}

/// Per-net cumulative event toggles and per-cycle transition counts of one
/// stimulus run at @p library: independent (u, v) pairs, or one chain.
struct ToggleTrace {
    std::vector<std::uint64_t> per_net;
    std::vector<std::uint64_t> per_cycle;
};

ToggleTrace simulate(const dp::DatapathModule& module, const TechLibrary& library,
                     bool pairs, std::uint64_t seed)
{
    const int m = module.total_input_bits();
    const sim::SimContext context{module.netlist(), library};
    sim::EventSimulator simulator{context};
    util::Rng rng{seed};
    ToggleTrace trace;
    simulator.initialize(BitVec{m, rng.next_u64()});
    for (int i = 0; i < 60; ++i) {
        if (pairs) {
            simulator.initialize(BitVec{m, rng.next_u64()});
        }
        trace.per_cycle.push_back(simulator.apply(BitVec{m, rng.next_u64()}).transitions);
    }
    trace.per_net = simulator.cumulative_transitions();
    return trace;
}

TEST(Claims, SameClassCornersToggleExactlyLikeTheClassNominalCorner)
{
    const TechLibrary& base = TechLibrary::generic350();
    for (const dp::ModuleType type : dp::all_module_types()) {
        const dp::DatapathModule module = dp::make_module(type, 6);
        for (const LoadClass load : {LoadClass::Nominal, LoadClass::Heavy}) {
            const TechLibrary nominal = base.at({0.0, 25.0, load});
            for (const bool pairs : {true, false}) {
                const ToggleTrace want = simulate(module, nominal, pairs, 91);
                for (const Corner& corner : same_class_corners(load)) {
                    const std::string label = dp::module_type_id(type) + " " +
                                              corner.key() + (pairs ? " pairs" : " chain");
                    const ToggleTrace got = simulate(module, base.at(corner), pairs, 91);
                    ASSERT_EQ(got.per_cycle, want.per_cycle) << label;
                    ASSERT_EQ(got.per_net, want.per_net) << label;
                }
            }
        }
    }
}

/// Σ p_i of the basic model characterized at @p corner.
double charge_sum(const dp::DatapathModule& module, core::CharBackend backend,
                  const Corner& corner)
{
    core::CharacterizationOptions options;
    options.max_transitions = 2000;
    options.min_transitions = 2000;
    options.seed = 5;
    options.backend = backend;
    options.calibration_pairs = 256;
    options.corner = corner;
    const core::HdModel model = core::Characterizer{}.characterize(module, options);
    double sum = 0.0;
    for (int hd = 1; hd <= model.input_bits(); ++hd) {
        sum += model.coefficient(hd);
    }
    return sum;
}

TEST(Claims, CharacterizedChargeFallsStrictlyWithSupply)
{
    // The glitch-heavy module whose slow-corner models used to rise with a
    // falling supply while the inertial window stayed fixed.
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 8);
    for (const core::CharBackend backend :
         {core::CharBackend::EventKernel, core::CharBackend::PowerEmulation}) {
        for (const double temp : {25.0, 85.0}) {
            for (const LoadClass load : {LoadClass::Nominal, LoadClass::Heavy}) {
                double previous = 0.0;
                for (const double vdd : {3.3, 3.0, 2.7, 2.5}) {
                    const Corner corner{vdd, temp, load};
                    const double sum = charge_sum(module, backend, corner);
                    if (previous > 0.0) {
                        EXPECT_LT(sum, previous)
                            << core::char_backend_name(backend) << ' ' << corner.key();
                    }
                    previous = sum;
                }
            }
        }
    }
}

TEST(Claims, ReportedTimesScaleWithTheCornerDelayFactor)
{
    const TechLibrary& base = TechLibrary::generic350();
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 6);
    const int m = module.total_input_bits();
    const sim::SimContext nominal{module.netlist(), base};
    for (const Corner& corner : same_class_corners(LoadClass::Nominal)) {
        const double scale = base.corner_delay_scale(corner);
        const TechLibrary library = base.at(corner);
        EXPECT_EQ(library.time_scale(), scale) << corner.key();
        const sim::SimContext context{module.netlist(), library};
        EXPECT_EQ(context.electrical().critical_path_ps(),
                  std::llround(static_cast<double>(nominal.electrical().critical_path_ps()) *
                               scale))
            << corner.key();

        sim::EventSimulator reference{nominal};
        sim::EventSimulator dilated{context};
        util::Rng rng{3};
        const BitVec start{m, rng.next_u64()};
        reference.initialize(start);
        dilated.initialize(start);
        for (int i = 0; i < 40; ++i) {
            const BitVec next{m, rng.next_u64()};
            const sim::CycleResult want = reference.apply(next);
            const sim::CycleResult got = dilated.apply(next);
            EXPECT_EQ(got.settle_time_ps,
                      std::llround(static_cast<double>(want.settle_time_ps) * scale))
                << corner.key() << " cycle " << i;
        }
    }
}

/// Corners of one load class on both sides of the native 3.3 V supply and
/// of 25 °C.
std::vector<Corner> law_corners(LoadClass load)
{
    return {{3.6, 0.0, load}, {2.7, 85.0, load}, {3.0, -20.0, load}, {3.5, 125.0, load}};
}

TEST(Claims, EveryCornerIsItsLoadClassNominalChargeUnderTheExactLaw)
{
    constexpr std::size_t kTransitions = 512;
    constexpr std::uint64_t kSeed = 41;
    const TechLibrary& base = TechLibrary::generic350();
    for (const dp::ModuleType type : dp::all_module_types()) {
        const dp::DatapathModule module = dp::make_module(type, 4);
        const int m = module.total_input_bits();
        for (const core::StimulusMode mode :
             {core::StimulusMode::StratifiedPairs, core::StimulusMode::StratifiedChain}) {
            const std::string family = dp::module_type_id(type) +
                                       (mode == core::StimulusMode::StratifiedPairs
                                            ? " pairs"
                                            : " chain");
            // One shard, so every record is a transition of shard 0.
            core::CharacterizationOptions options;
            options.max_transitions = kTransitions;
            options.min_transitions = kTransitions;
            options.batch = kTransitions;
            options.shard_size = kTransitions;
            options.seed = kSeed;
            options.mode = mode;
            options.threads = 2;
            const core::ShardStimulus stimulus =
                core::draw_shard_stimulus(m, mode, kSeed, 0, kTransitions);

            // The reference kernel at each corner's own library, over the
            // sweep's stimulus.
            std::vector<Corner> corners = law_corners(LoadClass::Nominal);
            for (const Corner& corner : law_corners(LoadClass::Heavy)) {
                corners.push_back(corner);
            }
            std::vector<std::vector<double>> reference;
            for (const Corner& corner : corners) {
                const TechLibrary library = base.at(corner);
                const sim::ElectricalView electrical{module.netlist(), library};
                oracle::HeapEventSimulator oracle{module.netlist(), electrical};
                std::vector<double>& charges = reference.emplace_back();
                if (stimulus.chain.empty()) {
                    for (std::size_t i = 0; i < kTransitions; ++i) {
                        oracle.initialize(stimulus.us[i]);
                        charges.push_back(oracle.apply(stimulus.vs[i]).charge_fc);
                    }
                } else {
                    oracle.initialize(stimulus.chain[0]);
                    for (std::size_t i = 0; i < kTransitions; ++i) {
                        charges.push_back(oracle.apply(stimulus.chain[i + 1]).charge_fc);
                    }
                }
            }

            // Event kernel: every corner of the leading load class is
            // derived from the class-nominal simulation, record by record.
            // One sweep per load class, so each leads once.
            options.backend = core::CharBackend::EventKernel;
            for (const std::size_t lead : {std::size_t{0}, std::size_t{4}}) {
                options.corners.assign(corners.begin() + lead, corners.begin() + lead + 4);
                const auto sweep = core::Characterizer{}.collect_records_corners(module, options);
                for (std::size_t k = 0; k < 4; ++k) {
                    const std::vector<double>& want = reference[lead + k];
                    const std::string label = family + ' ' + corners[lead + k].key();
                    ASSERT_EQ(sweep[k].size(), want.size()) << label;
                    for (std::size_t i = 0; i < want.size(); ++i) {
                        ASSERT_GT(want[i], 0.0) << label;
                        ASSERT_NEAR(sweep[k][i].charge_fc, want[i], 1e-12 * want[i])
                            << label << " record " << i;
                    }
                }
            }

            // Power emulation: one sweep over both load classes; each
            // corner's mean charge lands within the emulation tolerance of
            // the reference at that corner (characterize_test pins 10%).
            options.backend = core::CharBackend::PowerEmulation;
            options.calibration_pairs = 512;
            options.corners = corners;
            const auto emulated = core::Characterizer{}.collect_records_corners(module, options);
            for (std::size_t k = 0; k < corners.size(); ++k) {
                double want = 0.0;
                for (const double q : reference[k]) {
                    want += q;
                }
                double got = 0.0;
                for (const core::CharacterizationRecord& rec : emulated[k]) {
                    got += rec.charge_fc;
                }
                EXPECT_NEAR(got, want, 0.10 * want) << family << ' ' << corners[k].key();
            }
        }
    }
}

} // namespace
} // namespace hdpm

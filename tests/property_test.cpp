/// Cross-cutting randomized properties: a small netlist fuzzer checks that
/// every pipeline stage (validation, serialization, event simulation)
/// preserves functional behaviour on arbitrary gate graphs,
/// not just on the structured datapath generators; a classification-kernel
/// fuzzer holds the word-parallel kernels to their bit-identical guarantee
/// against the per-bit reference across widths 1..256, SIMD tiers, thread
/// counts and chunk sizes.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/characterize.hpp"
#include "core/hd_model.hpp"
#include "dpgen/module.hpp"
#include "netlist/builder.hpp"
#include "oracles/scalar_kernels.hpp"
#include "sim/event_sim.hpp"
#include "sim/functional.hpp"
#include "streams/kernels.hpp"
#include "streams/packed_trace.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace hdpm {
namespace {

using netlist::Netlist;
using netlist::NetId;
using util::BitVec;
using util::Rng;

/// Generate a random combinational netlist over @p num_inputs inputs by
/// stacking random gates onto randomly chosen existing nets (a DAG by
/// construction).
Netlist random_netlist(int num_inputs, int num_gates, Rng& rng)
{
    netlist::NetlistBuilder b{"fuzz"};
    std::vector<NetId> pool;
    for (int i = 0; i < num_inputs; ++i) {
        pool.push_back(b.input("in" + std::to_string(i)));
    }
    // Sprinkle constants so constant cells are exercised.
    pool.push_back(b.const0());
    pool.push_back(b.const1());

    auto pick = [&]() { return pool[rng.uniform_int(pool.size())]; };
    for (int g = 0; g < num_gates; ++g) {
        NetId out;
        switch (rng.uniform_int(std::uint64_t{9})) {
        case 0:
            out = b.inv(pick());
            break;
        case 1:
            out = b.and2(pick(), pick());
            break;
        case 2:
            out = b.or2(pick(), pick());
            break;
        case 3:
            out = b.xor2(pick(), pick());
            break;
        case 4:
            out = b.nand2(pick(), pick());
            break;
        case 5:
            out = b.nor2(pick(), pick());
            break;
        case 6:
            out = b.mux2(pick(), pick(), pick());
            break;
        case 7:
            out = b.xor3(pick(), pick(), pick());
            break;
        default:
            out = b.maj3(pick(), pick(), pick());
            break;
        }
        pool.push_back(out);
    }
    // Expose a handful of the most recent nets as outputs.
    for (int o = 0; o < 6; ++o) {
        b.output(pool[pool.size() - 1 - static_cast<std::size_t>(o)],
                 "out" + std::to_string(o));
    }
    return b.take();
}

class NetlistFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NetlistFuzz, ValidatesAndEvaluates)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919 + 3};
    const Netlist nl = random_netlist(8, 60, rng);
    EXPECT_NO_THROW(nl.validate());
    sim::FunctionalEvaluator eval{nl};
    (void)eval.eval(BitVec{8, rng.next_u64()});
}

TEST_P(NetlistFuzz, SerializationRoundTripEquivalence)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) * 104729 + 1};
    const Netlist nl = random_netlist(8, 60, rng);

    std::stringstream ss;
    netlist::write_netlist(ss, nl);
    const Netlist restored = netlist::read_netlist(ss);

    sim::FunctionalEvaluator ea{nl};
    sim::FunctionalEvaluator eb{restored};
    for (int t = 0; t < 50; ++t) {
        const BitVec in{8, rng.next_u64()};
        ASSERT_EQ(ea.eval(in), eb.eval(in));
    }
}

TEST_P(NetlistFuzz, EventSimulatorMatchesFunctional)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) * 31337 + 5};
    const Netlist nl = random_netlist(8, 60, rng);

    sim::EventSimulator sim{nl, gate::TechLibrary::generic350()};
    sim::FunctionalEvaluator eval{nl};
    sim.initialize(BitVec{8, rng.next_u64()});
    for (int t = 0; t < 30; ++t) {
        const BitVec in{8, rng.next_u64()};
        const sim::CycleResult cycle = sim.apply(in);
        ASSERT_EQ(sim.outputs(), eval.eval(in));
        ASSERT_GE(cycle.charge_fc, 0.0);
    }
}

TEST_P(NetlistFuzz, TransportNeverCheaperThanInertial)
{
    // Filtering glitches can only remove transitions, never add them.
    Rng rng{static_cast<std::uint64_t>(GetParam()) * 1299709 + 7};
    const Netlist nl = random_netlist(8, 60, rng);

    sim::EventSimOptions transport;
    transport.inertial_window_ps = 0;
    sim::EventSimOptions inertial;
    inertial.inertial_window_ps = 300;
    sim::EventSimulator st{nl, gate::TechLibrary::generic350(), transport};
    sim::EventSimulator si{nl, gate::TechLibrary::generic350(), inertial};

    Rng stim{static_cast<std::uint64_t>(GetParam())};
    BitVec in{8, stim.next_u64()};
    st.initialize(in);
    si.initialize(in);
    std::uint64_t transitions_t = 0;
    std::uint64_t transitions_i = 0;
    for (int t = 0; t < 40; ++t) {
        in = BitVec{8, stim.next_u64()};
        transitions_t += st.apply(in).transitions;
        transitions_i += si.apply(in).transitions;
    }
    EXPECT_GE(transitions_t, transitions_i);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistFuzz, ::testing::Range(0, 12));

// --------------------------------------------------------------- models

class ModelProperties : public ::testing::TestWithParam<int> {};

TEST_P(ModelProperties, DistributionDeltaRecoversCoefficient)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) + 1};
    const int m = 4 + static_cast<int>(rng.uniform_int(std::uint64_t{12}));
    std::vector<double> p(static_cast<std::size_t>(m));
    for (double& v : p) {
        v = rng.uniform(1.0, 1000.0);
    }
    const core::HdModel model{m, p};
    for (int i = 1; i <= m; ++i) {
        std::vector<double> delta(static_cast<std::size_t>(m) + 1, 0.0);
        delta[static_cast<std::size_t>(i)] = 1.0;
        EXPECT_DOUBLE_EQ(model.estimate_from_distribution(delta), model.coefficient(i));
        EXPECT_DOUBLE_EQ(model.estimate_from_average_hd(static_cast<double>(i)),
                         model.coefficient(i));
    }
}

TEST_P(ModelProperties, DistributionEstimateIsLinear)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) + 100};
    const int m = 6;
    std::vector<double> p(static_cast<std::size_t>(m));
    for (double& v : p) {
        v = rng.uniform(1.0, 100.0);
    }
    const core::HdModel model{m, p};

    auto random_dist = [&] {
        std::vector<double> d(static_cast<std::size_t>(m) + 1);
        double total = 0.0;
        for (double& v : d) {
            v = rng.uniform(0.0, 1.0);
            total += v;
        }
        for (double& v : d) {
            v /= total;
        }
        return d;
    };
    const auto d1 = random_dist();
    const auto d2 = random_dist();
    const double lambda = rng.uniform(0.0, 1.0);
    std::vector<double> mix(d1.size());
    for (std::size_t i = 0; i < mix.size(); ++i) {
        mix[i] = lambda * d1[i] + (1.0 - lambda) * d2[i];
    }
    EXPECT_NEAR(model.estimate_from_distribution(mix),
                lambda * model.estimate_from_distribution(d1) +
                    (1.0 - lambda) * model.estimate_from_distribution(d2),
                1e-9);
}

TEST_P(ModelProperties, SaveLoadIsIdentityOnRandomModels)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) + 200};
    const int m = 3 + static_cast<int>(rng.uniform_int(std::uint64_t{20}));
    std::vector<double> p(static_cast<std::size_t>(m));
    std::vector<double> dev(static_cast<std::size_t>(m));
    std::vector<std::size_t> count(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        p[static_cast<std::size_t>(i)] = rng.uniform(0.001, 12345.0);
        dev[static_cast<std::size_t>(i)] = rng.uniform(0.0, 1.0);
        count[static_cast<std::size_t>(i)] = rng.uniform_int(std::uint64_t{1000});
    }
    const core::HdModel model{m, p, dev, count};
    std::stringstream ss;
    model.save(ss);
    const core::HdModel restored = core::HdModel::load(ss);
    for (int i = 1; i <= m; ++i) {
        ASSERT_DOUBLE_EQ(restored.coefficient(i), model.coefficient(i));
        ASSERT_DOUBLE_EQ(restored.deviation(i), model.deviation(i));
        ASSERT_EQ(restored.sample_count(i), model.sample_count(i));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperties, ::testing::Range(0, 8));

// -------------------------------------------------------------- kernels

/// Decompose @p width into random operand widths (each 1..64) and build a
/// trace of @p n random samples — operands routinely straddle word
/// boundaries, which is the layout case the multi-word kernels must get
/// right.
streams::PackedTrace random_trace(int width, std::size_t n, Rng& rng)
{
    std::vector<int> operand_widths;
    int remaining = width;
    while (remaining > 0) {
        const int w =
            1 + static_cast<int>(rng.uniform_int(
                    static_cast<std::uint64_t>(std::min(remaining, 64))));
        operand_widths.push_back(w);
        remaining -= w;
    }
    std::vector<std::vector<std::int64_t>> operands(operand_widths.size());
    for (auto& stream : operands) {
        stream.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            stream.push_back(static_cast<std::int64_t>(rng.next_u64()));
        }
    }
    return streams::PackedTrace::from_operands(operands, operand_widths);
}

class KernelProperties : public ::testing::TestWithParam<int> {};

/// Every (SIMD tier, thread count, chunk size) configuration must produce
/// integer counts identical to the per-bit reference classifiers in
/// tests/oracles, for widths from a single bit to multiple words. This is the
/// guarantee that lets the estimation engine cache histograms without
/// keying on kernel options.
TEST_P(KernelProperties, AllConfigurationsBitIdentical)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) * 2654435761 + 17};
    const int widths[] = {1,
                          2,
                          63,
                          64,
                          65,
                          128,
                          191,
                          1 + static_cast<int>(rng.uniform_int(std::uint64_t{256}))};
    const std::size_t n = 201; // odd, so chunk boundaries land mid-stream

    using util::cpu::SimdLevel;
    for (const int width : widths) {
        const streams::PackedTrace trace = random_trace(width, n, rng);

        const auto hd_ref = oracle::scalar_hd_histogram(trace);
        const auto class_ref = oracle::scalar_hd_class_histogram(trace);
        const auto bits_ref = oracle::scalar_count_bits(trace);

        for (const SimdLevel simd :
             {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
            for (const unsigned threads : {1U, 3U}) {
                for (const std::size_t chunk : {std::size_t{2}, std::size_t{7},
                                                std::size_t{64}}) {
                    streams::KernelOptions options;
                    options.simd = simd; // clamped to the host's capability
                    options.threads = threads;
                    options.chunk = chunk;
                    const auto hd = streams::hd_histogram(trace, options);
                    const auto classes = streams::hd_class_histogram(trace, options);
                    const auto bits = streams::count_bits(trace, options);
                    const std::string config =
                        "width=" + std::to_string(width) +
                        " simd=" + util::cpu::level_name(simd) +
                        " threads=" + std::to_string(threads) +
                        " chunk=" + std::to_string(chunk);
                    ASSERT_EQ(hd.counts, hd_ref.counts) << config;
                    ASSERT_EQ(classes.counts, class_ref.counts) << config;
                    ASSERT_EQ(bits.ones, bits_ref.ones) << config;
                    ASSERT_EQ(bits.toggles, bits_ref.toggles) << config;
                }
            }
        }
    }
}

/// Hd conservation: Σ hd·counts[hd] over the histogram equals the total
/// per-bit toggle count, and the class histogram marginalizes to the Hd
/// histogram — all three kernels must tell one consistent story.
TEST_P(KernelProperties, HistogramsAndBitCountsAgree)
{
    Rng rng{static_cast<std::uint64_t>(GetParam()) * 7529 + 29};
    const int width = 1 + static_cast<int>(rng.uniform_int(std::uint64_t{256}));
    const streams::PackedTrace trace = random_trace(width, 300, rng);

    const auto hd = streams::hd_histogram(trace);
    const auto classes = streams::hd_class_histogram(trace);
    const auto bits = streams::count_bits(trace);

    std::uint64_t hd_total = 0;
    for (std::size_t i = 0; i < hd.counts.size(); ++i) {
        hd_total += static_cast<std::uint64_t>(i) * hd.counts[i];
    }
    std::uint64_t toggle_total = 0;
    for (const std::uint64_t t : bits.toggles) {
        toggle_total += t;
    }
    EXPECT_EQ(hd_total, toggle_total);

    for (int d = 0; d <= width; ++d) {
        std::uint64_t row = 0;
        for (int z = 0; z <= width - d; ++z) {
            row += classes.count(d, z);
        }
        ASSERT_EQ(row, hd.counts[static_cast<std::size_t>(d)]) << "hd " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperties, ::testing::Range(0, 6));

TEST(CharacterizationProperty, ChainAndPairsAgree)
{
    // Two very different stimulus schemes must converge to compatible
    // coefficients (they estimate the same class means).
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const core::Characterizer characterizer;

    core::CharacterizationOptions chain;
    chain.max_transitions = 12000;
    chain.min_transitions = 12000;
    chain.seed = 1;
    chain.mode = core::StimulusMode::StratifiedChain;

    core::CharacterizationOptions pairs = chain;
    pairs.mode = core::StimulusMode::StratifiedPairs;

    const core::HdModel a = characterizer.characterize(module, chain);
    const core::HdModel b = characterizer.characterize(module, pairs);
    for (int i = 1; i <= a.input_bits(); ++i) {
        EXPECT_NEAR(b.coefficient(i), a.coefficient(i), 0.12 * a.coefficient(i))
            << "class " << i;
    }
}

} // namespace
} // namespace hdpm

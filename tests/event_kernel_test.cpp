// Differential tests of the event kernel: the timing-wheel scheduler
// against the priority-queue reference simulator in tests/oracles, the
// compiled truth-table evaluation against gate_eval, and the 64-lane
// BatchedEvaluator against the scalar FunctionalEvaluator.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dpgen/module.hpp"
#include "gatelib/gate.hpp"
#include "gatelib/techlib.hpp"
#include "oracles/heap_event_sim.hpp"
#include "sim/batched.hpp"
#include "sim/event_sim.hpp"
#include "sim/functional.hpp"
#include "sim/sim_context.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace hdpm::sim {
namespace {

using gate::TechLibrary;
using netlist::NetId;
using oracle::HeapEventSimulator;
using util::BitVec;
using util::Rng;

void expect_same_cycle(const CycleResult& a, const CycleResult& b, int trial)
{
    EXPECT_EQ(a.charge_fc, b.charge_fc) << "trial " << trial;
    EXPECT_EQ(a.transitions, b.transitions) << "trial " << trial;
    EXPECT_EQ(a.settle_time_ps, b.settle_time_ps) << "trial " << trial;
}

TEST(TruthTables, MatchGateEval)
{
    for (int k = 0; k < gate::kNumGateKinds; ++k) {
        const auto kind = static_cast<gate::GateKind>(k);
        const int n = gate::gate_num_inputs(kind);
        ASSERT_LE(n, gate::kMaxGateInputs) << gate::gate_name(kind);
        const std::uint8_t table = gate::gate_truth_table(kind);
        for (std::uint32_t idx = 0; idx < (1U << n); ++idx) {
            std::uint8_t in[gate::kMaxGateInputs] = {};
            for (int b = 0; b < n; ++b) {
                in[b] = static_cast<std::uint8_t>((idx >> b) & 1U);
            }
            const bool expected =
                gate::gate_eval(kind, {in, static_cast<std::size_t>(n)});
            EXPECT_EQ(((table >> idx) & 1U) != 0, expected)
                << gate::gate_name(kind) << " idx " << idx;
        }
        // Unused table bits stay zero (the compiled view relies on it).
        EXPECT_EQ(table >> (1U << n), 0) << gate::gate_name(kind);
    }
}

/// One differential input: a dpgen module at a width, an inertial window,
/// and the options and corner the kernels run under.
struct KernelCase {
    dp::ModuleType type;
    int width = 6;
    std::int64_t window = 100;
    bool slow_corner = false;        ///< generic350 at 2.5 V / 85 °C (longer delays)
    bool count_input_charge = true;
    bool track_cycle_toggles = false;
};

std::vector<KernelCase> kernel_cases()
{
    std::vector<KernelCase> cases;
    for (const dp::ModuleType type :
         {dp::ModuleType::RippleAdder, dp::ModuleType::ClaAdder,
          dp::ModuleType::CsaMultiplier, dp::ModuleType::BoothWallaceMultiplier,
          dp::ModuleType::BarrelShifter}) {
        for (const std::int64_t window : {0, 100, 500}) {
            cases.push_back({.type = type, .window = window});
        }
    }
    // The benchmark's 16-bit CSA multiplier, whose timestamp buckets reach
    // ~180 events, under transport and inertial delays.
    for (const std::int64_t window : {0, 100}) {
        cases.push_back({.type = dp::ModuleType::CsaMultiplier, .width = 16, .window = window});
    }
    cases.push_back({.type = dp::ModuleType::CsaMultiplier, .width = 16, .slow_corner = true});
    cases.push_back({.type = dp::ModuleType::CsaMultiplier, .width = 8,
                     .count_input_charge = false});
    cases.push_back({.type = dp::ModuleType::CsaMultiplier, .width = 16, .window = 0,
                     .track_cycle_toggles = true});
    cases.push_back({.type = dp::ModuleType::BoothWallaceMultiplier, .width = 8,
                     .slow_corner = true, .count_input_charge = false,
                     .track_cycle_toggles = true});
    return cases;
}

std::string kernel_case_name(const KernelCase& c)
{
    std::string name = dp::module_type_id(c.type);
    if (c.width != 6) {
        name += std::to_string(c.width);
    }
    name += "_w" + std::to_string(c.window) + "ps";
    if (c.slow_corner) {
        name += "_slow";
    }
    if (!c.count_input_charge) {
        name += "_noinput";
    }
    if (c.track_cycle_toggles) {
        name += "_toggles";
    }
    return name;
}

void PrintTo(const KernelCase& c, std::ostream* os) { *os << kernel_case_name(c); }

class HeapVsWheel : public ::testing::TestWithParam<KernelCase> {
protected:
    void SetUp() override
    {
        const KernelCase& c = GetParam();
        module_ = std::make_unique<dp::DatapathModule>(dp::make_module(c.type, c.width));
        const TechLibrary& native = TechLibrary::generic350();
        library_ = std::make_unique<TechLibrary>(
            c.slow_corner ? native.at({2.5, 85, gate::LoadClass::Nominal}) : native);
        context_ = std::make_unique<SimContext>(module_->netlist(), *library_);
    }

    [[nodiscard]] EventSimOptions options() const
    {
        EventSimOptions o;
        o.inertial_window_ps = GetParam().window;
        o.count_input_charge = GetParam().count_input_charge;
        return o;
    }

    [[nodiscard]] HeapEventSimulator oracle() const
    {
        return HeapEventSimulator{module_->netlist(), context_->electrical(), options()};
    }

    [[nodiscard]] int input_bits() const { return module_->total_input_bits(); }

    std::unique_ptr<dp::DatapathModule> module_;
    std::unique_ptr<TechLibrary> library_;
    std::unique_ptr<SimContext> context_;
};

/// Per-cycle toggle tracking must report the same nets, in the same
/// first-toggle order, with the same per-net counts.
void expect_same_toggles(const EventSimulator& a, const HeapEventSimulator& b, int trial)
{
    const auto nets_a = a.cycle_toggled_nets();
    const auto nets_b = b.cycle_toggled_nets();
    ASSERT_TRUE(std::equal(nets_a.begin(), nets_a.end(), nets_b.begin(), nets_b.end()))
        << "trial " << trial;
    for (const NetId net : nets_a) {
        EXPECT_EQ(a.cycle_toggle_count(net), b.cycle_toggle_count(net))
            << "trial " << trial << " net " << net;
    }
}

/// Same random stimulus chain through the wheel and the reference kernel:
/// every CycleResult, every output vector, the per-cycle toggle
/// sets, the cumulative per-net counters and the kernel counters must be
/// bit-identical.
TEST_P(HeapVsWheel, IdenticalCycleStreams)
{
    const int m = input_bits();
    const bool track = GetParam().track_cycle_toggles;
    EventSimulator wheel{*context_, options()};
    HeapEventSimulator heap = oracle();
    wheel.set_cycle_toggle_tracking(track);
    heap.set_cycle_toggle_tracking(track);

    Rng rng{901};
    const BitVec first{m, rng.next_u64()};
    wheel.initialize(first);
    heap.initialize(first);
    for (int trial = 0; trial < 120; ++trial) {
        const BitVec v{m, rng.next_u64()};
        expect_same_cycle(wheel.apply(v), heap.apply(v), trial);
        EXPECT_EQ(wheel.outputs(), heap.outputs()) << "trial " << trial;
        if (track) {
            expect_same_toggles(wheel, heap, trial);
        }
    }
    EXPECT_EQ(wheel.cumulative_transitions(), heap.cumulative_transitions());
    EXPECT_EQ(wheel.cumulative_charge_per_net(), heap.cumulative_charge_per_net());
    EXPECT_EQ(wheel.kernel_stats().events_processed,
              heap.kernel_stats().events_processed);
    EXPECT_EQ(wheel.kernel_stats().max_queue_depth, heap.kernel_stats().max_queue_depth);
}

/// Re-initializing before every measured pair (the shape of a
/// StratifiedPairs record): both kernels must agree through repeated
/// resets too.
TEST_P(HeapVsWheel, IdenticalAcrossReinitialize)
{
    const int m = input_bits();
    const bool track = GetParam().track_cycle_toggles;
    EventSimulator wheel{*context_, options()};
    HeapEventSimulator heap = oracle();
    wheel.set_cycle_toggle_tracking(track);
    heap.set_cycle_toggle_tracking(track);

    Rng rng{407};
    for (int trial = 0; trial < 60; ++trial) {
        const BitVec u{m, rng.next_u64()};
        const BitVec v{m, rng.next_u64()};
        wheel.initialize(u);
        heap.initialize(u);
        expect_same_cycle(wheel.apply(v), heap.apply(v), trial);
        if (track) {
            expect_same_toggles(wheel, heap, trial);
        }
    }
    EXPECT_EQ(wheel.kernel_stats().events_processed,
              heap.kernel_stats().events_processed);
    EXPECT_EQ(wheel.kernel_stats().max_queue_depth, heap.kernel_stats().max_queue_depth);
}

INSTANTIATE_TEST_SUITE_P(Kernels, HeapVsWheel, ::testing::ValuesIn(kernel_cases()),
                         [](const ::testing::TestParamInfo<KernelCase>& info) {
                             return kernel_case_name(info.param);
                         });

TEST(EventSim, RepeatedInitializeIsStateless)
{
    // A fresh simulator and one that already simulated arbitrary history
    // must produce identical cycles after initialize() on the same vector.
    const dp::DatapathModule module =
        dp::make_module(dp::ModuleType::CsaMultiplier, 6);
    const int m = module.total_input_bits();
    const SimContext context{module.netlist(), TechLibrary::generic350()};

    EventSimulator fresh{context};
    EventSimulator used{context};

    Rng warmup{11};
    used.initialize(BitVec{m, warmup.next_u64()});
    for (int i = 0; i < 25; ++i) {
        (void)used.apply(BitVec{m, warmup.next_u64()});
    }

    Rng rng{88};
    const BitVec u{m, rng.next_u64()};
    fresh.initialize(u);
    used.initialize(u);
    for (int i = 0; i < 25; ++i) {
        const BitVec v{m, rng.next_u64()};
        expect_same_cycle(fresh.apply(v), used.apply(v), i);
    }
}

/// The property the characterizer's calibration pieces rest on: after a
/// completed cycle the kernel rests at the zero-delay fixpoint of the
/// applied vector with nothing pending, so a chain cut anywhere and
/// restarted with initialize(chain[j]) on a fresh simulator reproduces
/// every cycle of the uncut chain exactly — and the parts' per-net toggle
/// totals sum to the uncut chain's.
TEST(EventSim, ChainCutAndReinitializedIsExact)
{
    for (const dp::ModuleType type : dp::all_module_types()) {
        const dp::DatapathModule module = dp::make_module(type, 6);
        const int m = module.total_input_bits();
        const SimContext context{module.netlist(), TechLibrary::generic350()};

        Rng rng{4242};
        std::vector<BitVec> chain;
        for (int i = 0; i < 200; ++i) {
            chain.emplace_back(m, rng.next_u64());
        }
        // Arbitrary cut points, plus the calibration's 63-transition grid.
        std::vector<std::size_t> cuts = {0, 1, 2, 63, 126, 127, 189, 199};
        for (int i = 0; i < 6; ++i) {
            cuts.push_back(static_cast<std::size_t>(rng.uniform_int(std::int64_t{1}, std::int64_t{198})));
        }
        cuts.push_back(chain.size() - 1);
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

        for (const std::int64_t window : {std::int64_t{0}, std::int64_t{100}}) {
            for (const bool input_charge : {true, false}) {
                const std::string label = dp::module_type_id(type) + " window " +
                                          std::to_string(window) + " input charge " +
                                          std::to_string(input_charge);
                EventSimOptions options;
                options.inertial_window_ps = window;
                options.count_input_charge = input_charge;

                EventSimulator uncut{context, options};
                uncut.initialize(chain.front());
                std::vector<CycleResult> expected;
                for (std::size_t j = 1; j < chain.size(); ++j) {
                    expected.push_back(uncut.apply(chain[j]));
                }

                std::vector<std::uint64_t> toggles(module.netlist().num_nets(), 0);
                for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
                    EventSimulator part{context, options};
                    part.initialize(chain[cuts[c]]);
                    for (std::size_t j = cuts[c]; j < cuts[c + 1]; ++j) {
                        const CycleResult got = part.apply(chain[j + 1]);
                        EXPECT_EQ(got.charge_fc, expected[j].charge_fc) << label << " @" << j;
                        EXPECT_EQ(got.transitions, expected[j].transitions)
                            << label << " @" << j;
                        EXPECT_EQ(got.settle_time_ps, expected[j].settle_time_ps)
                            << label << " @" << j;
                    }
                    for (std::size_t net = 0; net < toggles.size(); ++net) {
                        toggles[net] += part.cumulative_transitions()[net];
                    }
                }
                EXPECT_EQ(toggles, uncut.cumulative_transitions()) << label;
            }
        }
    }
}

TEST(EventSim, WheelHandlesSingleCellNetlist)
{
    // Degenerate wheel geometry: one cell, minimal horizon.
    netlist::Netlist nl{"inv"};
    const NetId a = nl.add_net("a");
    const NetId y = nl.add_net("y");
    nl.mark_input(a);
    const NetId ins[] = {a};
    nl.add_cell(gate::GateKind::Inv, ins, y);
    nl.mark_output(y);

    EventSimulator sim{nl, TechLibrary::generic350()};
    sim.initialize(BitVec{1, 0});
    EXPECT_EQ(sim.outputs().raw(), 1U);
    const CycleResult r = sim.apply(BitVec{1, 1});
    EXPECT_EQ(r.transitions, 2U); // input edge + inverter output edge
    EXPECT_EQ(sim.outputs().raw(), 0U);
}

/// BatchedEvaluator against FunctionalEvaluator: 10k random vectors per
/// dpgen module type, both sharing one compiled view.
TEST(BatchedEvaluator, MatchesFunctionalOnAllModules)
{
    Rng rng{5150};
    for (const dp::ModuleType type : dp::all_module_types()) {
        const dp::DatapathModule module = dp::make_module(type, 6);
        const int m = module.total_input_bits();
        const SimContext context{module.netlist(), TechLibrary::generic350()};
        BatchedEvaluator batched{context};
        FunctionalEvaluator functional{context};

        constexpr int kVectors = 10'000;
        std::vector<BitVec> batch;
        batch.reserve(BatchedEvaluator::kLanes);
        int done = 0;
        while (done < kVectors) {
            batch.clear();
            const int n = std::min<int>(BatchedEvaluator::kLanes, kVectors - done);
            for (int j = 0; j < n; ++j) {
                batch.emplace_back(m, rng.next_u64());
            }
            const std::vector<BitVec> outs = batched.eval(batch);
            ASSERT_EQ(outs.size(), batch.size());
            for (int j = 0; j < n; ++j) {
                ASSERT_EQ(outs[static_cast<std::size_t>(j)],
                          functional.eval(batch[static_cast<std::size_t>(j)]))
                    << dp::module_type_id(type) << " vector " << done + j;
            }
            done += n;
        }
    }
}

TEST(BatchedEvaluator, LanesMaskedAboveBatchSize)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    BatchedEvaluator batched{module.netlist()};
    const std::vector<BitVec> batch{BitVec{m, 0}, BitVec{m, 0x3}};
    (void)batched.eval(batch);
    for (NetId net = 0; net < module.netlist().num_nets(); ++net) {
        EXPECT_EQ(batched.lanes(net) >> batch.size(), 0U) << "net " << net;
    }
}

TEST(BatchedEvaluator, ToggleCountsMatchFunctionalDiff)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::ClaAdder, 8);
    const int m = module.total_input_bits();
    BatchedEvaluator batched{module.netlist()};
    FunctionalEvaluator before{module.netlist()};
    FunctionalEvaluator after{module.netlist()};

    Rng rng{303};
    std::vector<BitVec> stream;
    for (int i = 0; i < 200; ++i) { // > 3 lane windows, exercises the overlap
        stream.emplace_back(m, rng.next_u64());
    }
    const std::vector<std::uint64_t> counts = batched.count_toggles(stream);
    ASSERT_EQ(counts.size(), stream.size() - 1);
    for (std::size_t j = 0; j + 1 < stream.size(); ++j) {
        (void)before.eval(stream[j]);
        (void)after.eval(stream[j + 1]);
        std::uint64_t expected = 0;
        for (NetId net = 0; net < module.netlist().num_nets(); ++net) {
            expected += before.value(net) != after.value(net) ? 1 : 0;
        }
        EXPECT_EQ(counts[j], expected) << "transition " << j;
    }
}

/// The window-overlap boundary contract: N vectors yield exactly N-1
/// counts for every N around the 64-lane window edges, and the boundary
/// pair between two windows is counted exactly once (cross-checked against
/// a per-pair functional diff, which cannot double count).
TEST(BatchedEvaluator, CountTogglesWindowBoundary)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 6);
    const int m = module.total_input_bits();
    BatchedEvaluator batched{module.netlist()};
    FunctionalEvaluator before{module.netlist()};
    FunctionalEvaluator after{module.netlist()};

    Rng rng{909};
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{63},
                                std::size_t{64}, std::size_t{65}, std::size_t{127},
                                std::size_t{128}, std::size_t{129}}) {
        std::vector<BitVec> stream;
        for (std::size_t i = 0; i < n; ++i) {
            stream.emplace_back(m, rng.next_u64());
        }
        const std::vector<std::uint64_t> counts = batched.count_toggles(stream);
        ASSERT_EQ(counts.size(), n - 1) << "stream of " << n << " vectors";
        for (std::size_t j = 0; j + 1 < n; ++j) {
            (void)before.eval(stream[j]);
            (void)after.eval(stream[j + 1]);
            std::uint64_t expected = 0;
            for (NetId net = 0; net < module.netlist().num_nets(); ++net) {
                expected += before.value(net) != after.value(net) ? 1 : 0;
            }
            ASSERT_EQ(counts[j], expected) << n << " vectors, transition " << j;
        }
    }
}

/// The charge-weighted variant against per-vector functional sums: for
/// each of two weight sets scored in one call, each transition's weighted
/// total must equal the sum of that set's weights over exactly the nets
/// whose settled value changed, and the piggy-backed unweighted counts
/// must match count_toggles.
TEST(BatchedEvaluator, WeightedTogglesMatchFunctionalSums)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::CsaMultiplier, 4);
    const int m = module.total_input_bits();
    const SimContext context{module.netlist(), TechLibrary::generic350()};
    BatchedEvaluator batched{context};
    FunctionalEvaluator before{context};
    FunctionalEvaluator after{context};

    const std::size_t nets = module.netlist().num_nets();
    std::vector<std::vector<double>> weights(2, std::vector<double>(nets, 0.0));
    Rng wrng{11};
    for (std::vector<double>& set : weights) {
        for (double& w : set) {
            w = 0.25 + static_cast<double>(wrng.next_u64() % 1000) / 100.0;
        }
    }

    Rng rng{404};
    std::vector<BitVec> stream;
    for (int i = 0; i < 150; ++i) { // crosses two window boundaries
        stream.emplace_back(m, rng.next_u64());
    }
    const std::vector<std::span<const double>> weight_sets(weights.begin(),
                                                           weights.end());
    std::vector<std::vector<double>> charges(weights.size());
    std::vector<std::uint64_t> counts;
    batched.count_weighted_toggles(stream, weight_sets, charges, counts);
    ASSERT_EQ(counts, batched.count_toggles(stream));
    for (std::size_t k = 0; k < weights.size(); ++k) {
        ASSERT_EQ(charges[k].size(), stream.size() - 1) << "set " << k;
        for (std::size_t j = 0; j + 1 < stream.size(); ++j) {
            (void)before.eval(stream[j]);
            (void)after.eval(stream[j + 1]);
            double expected = 0.0;
            for (NetId net = 0; net < nets; ++net) {
                if (before.value(net) != after.value(net)) {
                    expected += weights[k][net];
                }
            }
            EXPECT_DOUBLE_EQ(charges[k][j], expected)
                << "set " << k << " transition " << j;
        }
    }
}

/// settle_pairs against the functional evaluator: toggle words, per-net
/// popcounts, and weighted per-pair charges must all agree with a
/// pair-by-pair diff of settled values.
TEST(BatchedEvaluator, SettlePairsMatchesFunctionalDiff)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::ClaAdder, 6);
    const int m = module.total_input_bits();
    const SimContext context{module.netlist(), TechLibrary::generic350()};
    BatchedEvaluator batched{context};
    FunctionalEvaluator u_eval{context};
    FunctionalEvaluator v_eval{context};

    const std::size_t nets = module.netlist().num_nets();
    std::vector<double> weights(nets, 0.0);
    Rng wrng{23};
    for (double& w : weights) {
        w = static_cast<double>(wrng.next_u64() % 500) / 50.0;
    }

    Rng rng{606};
    for (const std::size_t batch : {std::size_t{1}, std::size_t{17}, std::size_t{64}}) {
        std::vector<BitVec> us;
        std::vector<BitVec> vs;
        for (std::size_t j = 0; j < batch; ++j) {
            us.emplace_back(m, rng.next_u64());
            vs.emplace_back(m, rng.next_u64());
        }
        batched.settle_pairs(us, vs);
        const auto words = batched.toggle_words();
        const auto popcnts = batched.toggle_counts_per_net();
        std::vector<double> charges(batch, 0.0);
        batched.weighted_pair_charges(weights, charges);

        std::vector<double> expected_charge(batch, 0.0);
        std::vector<std::uint64_t> expected_words(nets, 0);
        for (std::size_t j = 0; j < batch; ++j) {
            (void)u_eval.eval(us[j]);
            (void)v_eval.eval(vs[j]);
            for (NetId net = 0; net < nets; ++net) {
                if (u_eval.value(net) != v_eval.value(net)) {
                    expected_words[net] |= std::uint64_t{1} << j;
                    expected_charge[j] += weights[net];
                }
            }
        }
        for (NetId net = 0; net < nets; ++net) {
            ASSERT_EQ(words[net], expected_words[net])
                << "batch " << batch << " net " << net;
            ASSERT_EQ(popcnts[net], std::popcount(expected_words[net]))
                << "batch " << batch << " net " << net;
        }
        for (std::size_t j = 0; j < batch; ++j) {
            ASSERT_DOUBLE_EQ(charges[j], expected_charge[j])
                << "batch " << batch << " pair " << j;
        }
    }
}

TEST(BatchedEvaluator, RejectsOversizedBatch)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    BatchedEvaluator batched{module.netlist()};
    const std::vector<BitVec> batch(BatchedEvaluator::kLanes + 1, BitVec{m, 0});
    EXPECT_THROW((void)batched.eval(batch), util::PreconditionError);
}

/// The packed per-cell eval record against the original gate evaluator:
/// every cell of every module family, under random net values. eval_rec is
/// the wheel kernel's hot path; a don't-care expansion bug here would skew
/// every characterized coefficient.
TEST(CellRec, EvalRecMatchesGateEval)
{
    Rng rng{7110};
    for (const dp::ModuleType type : dp::all_module_types()) {
        const dp::DatapathModule module = dp::make_module(type, 5);
        const netlist::Netlist& nl = module.netlist();
        const SimContext context{nl, TechLibrary::generic350()};

        std::vector<std::uint8_t> values(nl.num_nets());
        for (int trial = 0; trial < 64; ++trial) {
            for (auto& v : values) {
                v = static_cast<std::uint8_t>(rng.next_u64() & 1U);
            }
            for (netlist::CellId id = 0; id < nl.num_cells(); ++id) {
                const netlist::Cell& cell = nl.cell(id);
                std::uint8_t in[gate::kMaxGateInputs] = {};
                const std::span<const NetId> used = cell.input_span();
                for (std::size_t b = 0; b < used.size(); ++b) {
                    in[b] = values[used[b]];
                }
                const bool expected =
                    gate::gate_eval(cell.kind, {in, used.size()});
                EXPECT_EQ(SimContext::eval_rec(context.cell_rec(id), values.data()),
                          expected ? 1 : 0)
                    << dp::module_type_id(type) << " cell " << id;
            }
        }
    }
}

/// load_state(u, fixpoint(u)) must leave the simulator in exactly the
/// post-initialize(u) state, whether it is fresh or carries arbitrary
/// history. This is the batched pairs-mode warm-up's whole correctness
/// argument, so it runs the characterizer's exact usage: every module
/// family, full 64-lane BatchedEvaluator settles, every lane adopted and
/// timed against an initialize(u) + apply(v) reference — same outputs,
/// same cycle, same per-net toggle set.
TEST(LoadState, MatchesInitialize)
{
    for (const dp::ModuleType type : dp::all_module_types()) {
        const dp::DatapathModule module = dp::make_module(type, 5);
        const int m = module.total_input_bits();
        const SimContext context{module.netlist(), TechLibrary::generic350()};
        EventSimulator reference{context};
        EventSimulator adopted{context};
        reference.set_cycle_toggle_tracking(true);
        adopted.set_cycle_toggle_tracking(true);

        // Give the adopting simulator history so the test also covers the
        // characterizer's steady-state usage (load_state after many cycles).
        Rng history{31};
        adopted.initialize(BitVec{m, history.next_u64()});
        for (int i = 0; i < 10; ++i) {
            (void)adopted.apply(BitVec{m, history.next_u64()});
        }

        BatchedEvaluator batched{context};
        std::vector<std::uint8_t> lane_values(module.netlist().num_nets());
        Rng rng{5012};
        for (int block = 0; block < 2; ++block) {
            std::vector<BitVec> us;
            std::vector<BitVec> vs;
            for (int j = 0; j < BatchedEvaluator::kLanes; ++j) {
                us.emplace_back(m, rng.next_u64());
                vs.emplace_back(m, rng.next_u64());
            }
            batched.settle(us);
            for (int j = 0; j < BatchedEvaluator::kLanes; ++j) {
                const std::string label = dp::module_type_id(type) + " block " +
                                          std::to_string(block) + " lane " +
                                          std::to_string(j);
                const auto lane = static_cast<std::size_t>(j);
                batched.export_lane(j, lane_values);
                reference.initialize(us[lane]);
                adopted.load_state(us[lane], lane_values);
                ASSERT_EQ(adopted.outputs(), reference.outputs()) << label;
                const CycleResult want = reference.apply(vs[lane]);
                const CycleResult got = adopted.apply(vs[lane]);
                ASSERT_EQ(got.charge_fc, want.charge_fc) << label;
                ASSERT_EQ(got.transitions, want.transitions) << label;
                ASSERT_EQ(got.settle_time_ps, want.settle_time_ps) << label;
                ASSERT_EQ(adopted.outputs(), reference.outputs()) << label;
                const auto nets_want = reference.cycle_toggled_nets();
                const auto nets_got = adopted.cycle_toggled_nets();
                ASSERT_TRUE(std::equal(nets_got.begin(), nets_got.end(),
                                       nets_want.begin(), nets_want.end()))
                    << label;
            }
        }
    }
}

TEST(LoadState, RejectsMismatchedArguments)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    EventSimulator sim{module.netlist(), TechLibrary::generic350()};

    const std::vector<std::uint8_t> right_size(module.netlist().num_nets(), 0);
    EXPECT_THROW(sim.load_state(BitVec{m - 1, 0}, right_size),
                 util::PreconditionError);
    const std::vector<std::uint8_t> wrong_size(module.netlist().num_nets() + 1, 0);
    EXPECT_THROW(sim.load_state(BitVec{m, 0}, wrong_size), util::PreconditionError);
}

/// export_lane against the scalar FunctionalEvaluator: the per-net byte
/// image of every lane must equal the functional settle of that lane's
/// input vector.
TEST(BatchedEvaluator, ExportLaneMatchesFunctional)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::ClaAdder, 6);
    const int m = module.total_input_bits();
    const SimContext context{module.netlist(), TechLibrary::generic350()};
    BatchedEvaluator batched{context};
    FunctionalEvaluator functional{context};

    Rng rng{8088};
    std::vector<BitVec> batch;
    for (int j = 0; j < 64; ++j) {
        batch.emplace_back(m, rng.next_u64());
    }
    batched.settle(batch);

    std::vector<std::uint8_t> lane_values(module.netlist().num_nets());
    for (int j = 0; j < 64; ++j) {
        batched.export_lane(j, lane_values);
        (void)functional.eval(batch[static_cast<std::size_t>(j)]);
        for (NetId net = 0; net < module.netlist().num_nets(); ++net) {
            ASSERT_EQ(lane_values[net] != 0, functional.value(net))
                << "lane " << j << " net " << net;
        }
    }
}

TEST(KernelStats, CountersAdvance)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 8);
    const int m = module.total_input_bits();
    EventSimulator sim{module.netlist(), TechLibrary::generic350()};
    Rng rng{64};
    sim.initialize(BitVec{m, rng.next_u64()});
    for (int i = 0; i < 10; ++i) {
        (void)sim.apply(BitVec{m, rng.next_u64()});
    }
    EXPECT_GT(sim.kernel_stats().events_processed, 0U);
    EXPECT_GT(sim.kernel_stats().max_queue_depth, 0U);
}

// ---------------------------------------------------------------------------
// Event-budget safety valve: exceeding max_events_per_cycle must throw a
// structured diagnostic that names the exact (u, v) pair, the diagnostic
// must replay, and the simulator must stay usable afterwards — on the
// timing wheel and on the reference kernel, which must also agree on the
// event counts the budget is measured in.
// ---------------------------------------------------------------------------

TEST(EventBudget, StructuredDiagnosticReplaysOnBothSchedulers)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    const SimContext context{module.netlist(), TechLibrary::generic350()};
    const BitVec u{m, 0};
    const BitVec heavy{m, (1ULL << m) - 1}; // full flip: the busiest cycle
    const BitVec light{m, 1};               // single-bit flip

    // Event counts of both cycles on an unconstrained simulator; a budget
    // between them makes the heavy pair reliably exceed it and the light
    // pair reliably fit.
    const auto cycle_events = [&](auto sim) {
        sim.initialize(u);
        const std::uint64_t before = sim.kernel_stats().events_processed;
        (void)sim.apply(heavy);
        const std::uint64_t heavy_events = sim.kernel_stats().events_processed - before;
        sim.initialize(u);
        const std::uint64_t mid = sim.kernel_stats().events_processed;
        (void)sim.apply(light);
        return std::pair{heavy_events, sim.kernel_stats().events_processed - mid};
    };
    const auto [heavy_events, light_events] = cycle_events(EventSimulator{context});
    EXPECT_EQ(cycle_events(HeapEventSimulator{module.netlist(), context.electrical()}),
              std::pair(heavy_events, light_events));
    ASSERT_LT(light_events, heavy_events);

    EventSimOptions tight;
    tight.max_events_per_cycle = heavy_events - 1;
    const auto check = [&](const auto& make, const char* kernel) {
        auto sim = make();
        sim.initialize(u);
        try {
            (void)sim.apply(heavy);
            ADD_FAILURE() << kernel << ": budget not enforced";
        } catch (const util::FaultError& fault) {
            EXPECT_EQ(fault.kind(), util::FaultKind::SimBudgetExceeded) << kernel;
            const util::FaultContext& where = fault.context();
            EXPECT_EQ(where.component, module.netlist().name()) << kernel;
            EXPECT_EQ(where.bitwidth, m) << kernel;
            ASSERT_TRUE(where.has_vectors) << kernel;
            EXPECT_EQ(where.vector_u, u.raw()) << kernel;
            EXPECT_EQ(where.vector_v, heavy.raw()) << kernel;

            // The recorded pair replays the fault on a fresh simulator.
            auto replay = make();
            replay.initialize(BitVec{m, where.vector_u});
            EXPECT_THROW((void)replay.apply(BitVec{m, where.vector_v}), util::FaultError)
                << kernel;
        }

        // The failed simulator recovers with a full reset: after
        // initialize() it matches a fresh instance cycle for cycle.
        auto fresh = make();
        sim.initialize(u);
        fresh.initialize(u);
        expect_same_cycle(sim.apply(light), fresh.apply(light), 0);
        EXPECT_EQ(sim.outputs(), fresh.outputs()) << kernel;
    };
    check([&] { return EventSimulator{context, tight}; }, "wheel");
    check([&] { return HeapEventSimulator{module.netlist(), context.electrical(), tight}; },
          "reference");
}

TEST(EventBudget, ZeroHammingDistanceCycleAlwaysFits)
{
    // A no-toggle apply processes no events, so it fits any budget — the
    // smallest cycle a recovered simulator can run.
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    EventSimOptions options;
    options.max_events_per_cycle = 1;
    EventSimulator sim{module.netlist(), TechLibrary::generic350(), options};
    const BitVec u{m, 0x5a};
    sim.initialize(u);
    const CycleResult r = sim.apply(u);
    EXPECT_EQ(r.transitions, 0U);
    EXPECT_EQ(r.charge_fc, 0.0);
}

} // namespace
} // namespace hdpm::sim

#include "sim/batched.hpp"

#include <algorithm>
#include <bit>

#include "sim/sim_context.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

namespace hdpm::sim {

using netlist::CellId;
using netlist::NetId;
using util::BitVec;

namespace {

constexpr std::uint64_t kAllLanes = ~std::uint64_t{0};

/// Word-level evaluation of one gate over 64 lanes. Kept in sync with
/// gate_eval by the exhaustive truth-table test in event_kernel_test.
std::uint64_t eval_word(gate::GateKind kind, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c)
{
    static_assert(gate::kNumGateKinds == 19,
                  "new gate kind: add its word-level formula here");
    using gate::GateKind;
    switch (kind) {
    case GateKind::Const0:
        return 0;
    case GateKind::Const1:
        return kAllLanes;
    case GateKind::Buf:
        return a;
    case GateKind::Inv:
        return ~a;
    case GateKind::And2:
        return a & b;
    case GateKind::Nand2:
        return ~(a & b);
    case GateKind::Or2:
        return a | b;
    case GateKind::Nor2:
        return ~(a | b);
    case GateKind::Xor2:
        return a ^ b;
    case GateKind::Xnor2:
        return ~(a ^ b);
    case GateKind::And3:
        return a & b & c;
    case GateKind::Nand3:
        return ~(a & b & c);
    case GateKind::Or3:
        return a | b | c;
    case GateKind::Nor3:
        return ~(a | b | c);
    case GateKind::Xor3:
        return a ^ b ^ c;
    case GateKind::Mux2: // inputs (d0, d1, sel)
        return (c & b) | (~c & a);
    case GateKind::Aoi21:
        return ~((a & b) | c);
    case GateKind::Oai21:
        return ~((a | b) & c);
    case GateKind::Maj3:
        return (a & b) | (a & c) | (b & c);
    }
    HDPM_FAIL("unreachable gate kind");
}

} // namespace

BatchedEvaluator::BatchedEvaluator(const netlist::Netlist& netlist)
    : netlist_(&netlist),
      owned_(std::make_unique<const CompiledNetlist>(netlist)),
      compiled_(owned_.get()),
      lanes_(netlist.num_nets(), 0)
{
}

BatchedEvaluator::BatchedEvaluator(const SimContext& context)
    : netlist_(&context.netlist()),
      compiled_(&context.compiled()),
      lanes_(context.netlist().num_nets(), 0)
{
}

void BatchedEvaluator::settle(std::span<const BitVec> inputs)
{
    const auto& pis = netlist_->primary_inputs();
    HDPM_REQUIRE(!inputs.empty() && inputs.size() <= static_cast<std::size_t>(kLanes),
                 "batch must hold 1..", kLanes, " vectors, got ", inputs.size());
    for (std::size_t j = 0; j < inputs.size(); ++j) {
        HDPM_REQUIRE(inputs[j].width() == static_cast<int>(pis.size()), "netlist '",
                     netlist_->name(), "' has ", pis.size(), " inputs, vector ", j,
                     " has ", inputs[j].width(), " bits");
    }

    // Transpose the batch: bit j of a net word = vector j's value.
    for (std::size_t i = 0; i < pis.size(); ++i) {
        std::uint64_t word = 0;
        for (std::size_t j = 0; j < inputs.size(); ++j) {
            word |= static_cast<std::uint64_t>(inputs[j].get(static_cast<int>(i)))
                    << j;
        }
        lanes_[pis[i]] = word;
    }

    for (const CellId id : compiled_->topological_order()) {
        const auto ins = compiled_->inputs(id);
        const std::uint64_t a = !ins.empty() ? lanes_[ins[0]] : 0;
        const std::uint64_t b = ins.size() > 1 ? lanes_[ins[1]] : 0;
        const std::uint64_t c = ins.size() > 2 ? lanes_[ins[2]] : 0;
        lanes_[compiled_->output(id)] = eval_word(compiled_->kind(id), a, b, c);
    }

    // Inverting gates set garbage in lanes above the batch size; zero them
    // so lanes() and the toggle logic see clean words.
    const std::uint64_t active = inputs.size() == static_cast<std::size_t>(kLanes)
                                     ? kAllLanes
                                     : (std::uint64_t{1} << inputs.size()) - 1;
    if (active != kAllLanes) {
        for (std::uint64_t& word : lanes_) {
            word &= active;
        }
    }
}

void BatchedEvaluator::export_lane(int lane, std::span<std::uint8_t> values) const
{
    HDPM_REQUIRE(lane >= 0 && lane < kLanes, "lane ", lane, " outside [0, ", kLanes,
                 ")");
    HDPM_REQUIRE(values.size() == lanes_.size(), "netlist '", netlist_->name(),
                 "' has ", lanes_.size(), " nets, buffer has ", values.size());
    for (std::size_t net = 0; net < lanes_.size(); ++net) {
        values[net] = static_cast<std::uint8_t>((lanes_[net] >> lane) & 1U);
    }
}

std::vector<BitVec> BatchedEvaluator::eval(std::span<const BitVec> inputs)
{
    settle(inputs);
    const auto& pos = netlist_->primary_outputs();
    HDPM_REQUIRE(static_cast<int>(pos.size()) <= BitVec::kMaxWidth,
                 "too many outputs to pack");
    std::vector<BitVec> out(inputs.size(), BitVec{static_cast<int>(pos.size())});
    for (std::size_t i = 0; i < pos.size(); ++i) {
        const std::uint64_t word = lanes_[pos[i]];
        for (std::size_t j = 0; j < inputs.size(); ++j) {
            out[j].set(static_cast<int>(i), ((word >> j) & 1U) != 0);
        }
    }
    return out;
}

std::vector<std::uint64_t> BatchedEvaluator::count_toggles(std::span<const BitVec> stream)
{
    HDPM_REQUIRE(!stream.empty(), "count_toggles needs at least one vector");
    std::vector<std::uint64_t> counts(stream.size() - 1, 0);
    std::size_t base = 0;
    while (base + 1 < stream.size()) {
        const std::size_t len =
            std::min<std::size_t>(kLanes, stream.size() - base);
        settle(stream.subspan(base, len));
        const std::size_t pairs = len - 1;
        const std::uint64_t pair_mask =
            pairs >= 64 ? kAllLanes : (std::uint64_t{1} << pairs) - 1;
        for (const std::uint64_t word : lanes_) {
            // Bit j of `diff` = net differs between vectors j and j+1.
            std::uint64_t diff = (word ^ (word >> 1)) & pair_mask;
            while (diff != 0) {
                counts[base + static_cast<std::size_t>(std::countr_zero(diff))] += 1;
                diff &= diff - 1;
            }
        }
        base += pairs; // overlap one vector so every adjacent pair is covered
    }
    return counts;
}

void BatchedEvaluator::count_weighted_toggles(
    std::span<const BitVec> stream, std::span<const std::span<const double>> weight_sets,
    std::span<std::vector<double>> charges, std::vector<std::uint64_t>& counts)
{
    HDPM_REQUIRE(!stream.empty(), "count_weighted_toggles needs at least one vector");
    HDPM_REQUIRE(!weight_sets.empty(),
                 "count_weighted_toggles needs at least one weight set");
    HDPM_REQUIRE(weight_sets.size() == charges.size(), "weight_sets has ",
                 weight_sets.size(), " sets, charges has ", charges.size());
    for (const std::span<const double> weights : weight_sets) {
        HDPM_REQUIRE(weights.size() == lanes_.size(), "netlist '", netlist_->name(),
                     "' has ", lanes_.size(), " nets, weights has ", weights.size());
    }
    for (std::vector<double>& c : charges) {
        c.assign(stream.size() - 1, 0.0);
    }
    counts.assign(stream.size() - 1, 0);
    std::size_t base = 0;
    while (base + 1 < stream.size()) {
        const std::size_t len =
            std::min<std::size_t>(kLanes, stream.size() - base);
        settle(stream.subspan(base, len));
        const std::size_t pairs = len - 1;
        const std::uint64_t pair_mask =
            pairs >= 64 ? kAllLanes : (std::uint64_t{1} << pairs) - 1;
        std::uint64_t* const tally = counts.data() + base;
        // Nets iterate in ascending order and every set accumulates in that
        // order, so each (set, transition) sum is the same += sequence
        // whatever the number of sets. Each set walks the net's toggle bits
        // with its weight and output row in registers; the first set's walk
        // also tallies the unweighted counts.
        for (std::size_t net = 0; net < lanes_.size(); ++net) {
            const std::uint64_t word = lanes_[net];
            const std::uint64_t toggled = (word ^ (word >> 1)) & pair_mask;
            if (toggled == 0) {
                continue;
            }
            const double w0 = weight_sets[0][net];
            double* const out0 = charges[0].data() + base;
            for (std::uint64_t diff = toggled; diff != 0; diff &= diff - 1) {
                const auto j = static_cast<std::size_t>(std::countr_zero(diff));
                out0[j] += w0;
                tally[j] += 1;
            }
            for (std::size_t k = 1; k < weight_sets.size(); ++k) {
                const double w = weight_sets[k][net];
                double* const out = charges[k].data() + base;
                for (std::uint64_t diff = toggled; diff != 0; diff &= diff - 1) {
                    out[static_cast<std::size_t>(std::countr_zero(diff))] += w;
                }
            }
        }
        base += pairs;
    }
}

void BatchedEvaluator::settle_pairs(std::span<const BitVec> us,
                                    std::span<const BitVec> vs)
{
    HDPM_REQUIRE(us.size() == vs.size(), "pair batch sides disagree: ", us.size(),
                 " u-vectors vs ", vs.size(), " v-vectors");
    settle(us);
    saved_.assign(lanes_.begin(), lanes_.end());
    settle(vs);
    pair_diff_.resize(lanes_.size());
    pair_popcnt_.resize(lanes_.size());
    for (std::size_t net = 0; net < lanes_.size(); ++net) {
        pair_diff_[net] = saved_[net] ^ lanes_[net];
    }
    // Per-net popcounts through the runtime-dispatched SIMD kernels —
    // this is the dominant counting step of the emulation backend.
    util::cpu::kernels().xor_popcnt(saved_.data(), lanes_.data(), lanes_.size(),
                                    pair_popcnt_.data());
}

void BatchedEvaluator::weighted_pair_charges(std::span<const double> weights,
                                             std::span<double> out) const
{
    HDPM_REQUIRE(weights.size() == pair_diff_.size(), "netlist '", netlist_->name(),
                 "' has ", pair_diff_.size(), " nets, weights has ", weights.size());
    std::fill(out.begin(), out.end(), 0.0);
    for (std::size_t net = 0; net < pair_diff_.size(); ++net) {
        std::uint64_t diff = pair_diff_[net];
        if (diff == 0) {
            continue;
        }
        const double w = weights[net];
        while (diff != 0) {
            out[static_cast<std::size_t>(std::countr_zero(diff))] += w;
            diff &= diff - 1;
        }
    }
}

} // namespace hdpm::sim

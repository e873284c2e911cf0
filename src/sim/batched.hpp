#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "util/bitvec.hpp"

namespace hdpm::sim {

class SimContext;

/// 64-lane bit-parallel zero-delay evaluator.
///
/// Packs up to 64 stimulus vectors into one std::uint64_t word per net
/// (bit j = the net's value under vector j) and settles the whole batch in
/// a single pass over the compiled topological order using word-level
/// bitwise gate formulas — one AND evaluates an AND2 for 64 vectors at
/// once. Like FunctionalEvaluator it models no timing and no glitches; it
/// exists for workloads where per-vector event timing is not needed:
/// zero-delay toggle counting over stimulus streams, functional
/// cross-checks in tests, and cheap warm-up / screening passes before the
/// event kernel runs.
///
/// An instance is not thread-safe, but — as with EventSimulator — all
/// shared data lives in the immutable compiled view, so any number of
/// instances over one SimContext may run concurrently.
class BatchedEvaluator {
public:
    /// Lanes per batch (one bit of every net word per stimulus vector).
    static constexpr int kLanes = 64;

    /// Compile a private view of @p netlist (must outlive the evaluator).
    explicit BatchedEvaluator(const netlist::Netlist& netlist);

    /// Borrow the compiled view of an existing SimContext.
    explicit BatchedEvaluator(const SimContext& context);

    /// Evaluate 1..kLanes input vectors in one pass; returns one output
    /// BitVec per input vector, in order.
    std::vector<util::BitVec> eval(std::span<const util::BitVec> inputs);

    /// Settle 1..kLanes input vectors in one word-parallel pass without
    /// materializing outputs; read the result through lanes() or
    /// export_lane(). This is the allocation-free entry point the
    /// characterizer's batched warm-up drives.
    void settle(std::span<const util::BitVec> inputs);

    /// Scatter lane @p lane of the last settle into one 0/1 byte per net —
    /// exactly the net-value layout EventSimulator::load_state adopts.
    /// @p values must hold one byte per net.
    void export_lane(int lane, std::span<std::uint8_t> values) const;

    /// Zero-delay toggle counts of a stimulus stream: element j is the
    /// number of nets whose settled value differs between stream[j] and
    /// stream[j+1].
    ///
    /// Window-overlap boundary contract: a stream of N vectors yields
    /// exactly N-1 counts — one per *adjacent pair*, never one per vector.
    /// The stream is processed in kLanes-vector windows that each re-settle
    /// the last vector of the previous window (one vector of overlap), so a
    /// window of L vectors contributes L-1 counts and the boundary pair
    /// (window i's last vector, window i+1's first) is counted exactly
    /// once. Arbitrary lengths therefore cost ceil((N-1)/(kLanes-1)) settle
    /// passes. A single-vector stream has no pairs and returns no counts.
    std::vector<std::uint64_t> count_toggles(std::span<const util::BitVec> stream);

    /// Charge-weighted variant of count_toggles, scoring any number of
    /// weight sets from one settle sweep: charges[k] is resized to N-1 and
    /// element j receives the sum of weight_sets[k][net] over every net
    /// whose settled value differs between stream[j] and stream[j+1] —
    /// i.e. the zero-delay cycle charge of the transition when the set
    /// holds per-net per-toggle charge (the power-emulation chain scorer;
    /// a set per load class and per internal part). Same window-overlap
    /// contract (N vectors → N-1 sums). Per set and transition the weights
    /// accumulate in ascending net order, so the floating-point result is
    /// deterministic and independent of how many other sets share the
    /// call. @p counts receives the unweighted toggle counts
    /// (count_toggles' result), tallied in the first set's bit walk rather
    /// than a pass of its own.
    /// At least one set is required; every set must hold one entry per net.
    void count_weighted_toggles(std::span<const util::BitVec> stream,
                                std::span<const std::span<const double>> weight_sets,
                                std::span<std::vector<double>> charges,
                                std::vector<std::uint64_t>& counts);

    /// Settle @p us and @p vs (equal sizes, 1..kLanes vectors each) in two
    /// word-parallel passes and derive the per-net pair-toggle words:
    /// bit j of toggle_words()[net] is set iff the net's settled value
    /// differs between us[j] and vs[j]. Also fills toggle_counts_per_net()
    /// with popcount(toggle word) per net through the runtime-dispatched
    /// util::cpu kernels. This is the power-emulation backend's inner loop:
    /// one call scores up to 64 independent (u, v) stimulus pairs.
    void settle_pairs(std::span<const util::BitVec> us,
                      std::span<const util::BitVec> vs);

    /// Per-net pair-toggle words of the last settle_pairs (lanes at or
    /// above the batch size are zero).
    [[nodiscard]] std::span<const std::uint64_t> toggle_words() const noexcept
    {
        return pair_diff_;
    }

    /// Per-net zero-delay toggle counts of the last settle_pairs
    /// (popcount of each toggle word, ≤ 64 so a byte each).
    [[nodiscard]] std::span<const std::uint8_t> toggle_counts_per_net() const noexcept
    {
        return pair_popcnt_;
    }

    /// Per-lane weighted toggle sums of the last settle_pairs:
    /// out[j] = Σ_net weights[net] · (bit j of the net's toggle word) —
    /// the zero-delay cycle charge of pair j when weights holds per-net
    /// per-toggle charge. Weights accumulate in ascending net order
    /// (deterministic floating point). @p out must cover the batch size.
    void weighted_pair_charges(std::span<const double> weights,
                               std::span<double> out) const;

    /// Lane word of a net after the last eval(): bit j is the net's value
    /// under input vector j (bits at or above the batch size are zero).
    [[nodiscard]] std::uint64_t lanes(netlist::NetId net) const
    {
        return lanes_.at(net);
    }

    /// All lane words of the last settle, indexed by net.
    [[nodiscard]] std::span<const std::uint64_t> lane_words() const noexcept
    {
        return lanes_;
    }

private:
    const netlist::Netlist* netlist_;
    std::unique_ptr<const CompiledNetlist> owned_; // null when borrowing
    const CompiledNetlist* compiled_;
    std::vector<std::uint64_t> lanes_;
    std::vector<std::uint64_t> saved_;      // u-side lanes of settle_pairs
    std::vector<std::uint64_t> pair_diff_;  // saved_ ^ lanes_ after settle_pairs
    std::vector<std::uint8_t> pair_popcnt_; // popcount(pair_diff_) per net
};

} // namespace hdpm::sim

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gatelib/gate.hpp"
#include "netlist/netlist.hpp"

namespace hdpm::sim {

/// Cache-friendly compiled form of a netlist's logic: everything the
/// simulation hot loops touch, flattened into structure-of-arrays form.
///
/// Per cell: the input nets (flat CSR, at most gate::kMaxGateInputs wide),
/// the driven output net, the gate kind, and the boolean function packed
/// into a truth-table byte — bit i of truth(c) is the output for the packed
/// input value i, where input pin k contributes bit k. Per net: the
/// consuming cells (flat CSR fanout). Evaluating a cell is therefore a
/// handful of contiguous loads plus one shift, with no Cell struct, no
/// nested vectors, and no gate_eval switch on the hot path.
///
/// All simulators share one compiled view: EventSimulator and
/// FunctionalEvaluator walk it scalar (one value byte per net), and
/// BatchedEvaluator walks it 64 stimulus vectors at a time.
///
/// Immutable after construction — share it const across threads freely.
/// The netlist must outlive the compiled view.
class CompiledNetlist {
public:
    explicit CompiledNetlist(const netlist::Netlist& netlist);

    [[nodiscard]] std::size_t num_nets() const noexcept { return num_nets_; }
    [[nodiscard]] std::size_t num_cells() const noexcept { return out_net_.size(); }

    /// Cells in topological order (inputs before consumers).
    [[nodiscard]] std::span<const netlist::CellId> topological_order() const noexcept
    {
        return topo_;
    }

    /// Cells consuming @p net (CSR row of the fanout table).
    [[nodiscard]] std::span<const netlist::CellId> fanout(netlist::NetId net) const
    {
        return {fanout_cell_.data() + fanout_offset_[net],
                fanout_cell_.data() + fanout_offset_[net + 1]};
    }

    /// The whole fanout CSR: row offsets (num_nets + 1 entries) and the flat
    /// consumer array they index — the event kernel's hot loop walks these
    /// raw arrays instead of building a span per toggle.
    [[nodiscard]] std::span<const std::uint32_t> fanout_offsets() const noexcept
    {
        return fanout_offset_;
    }
    [[nodiscard]] std::span<const netlist::CellId> fanout_cells() const noexcept
    {
        return fanout_cell_;
    }

    /// Input nets of cell @p c (CSR row of the input table).
    [[nodiscard]] std::span<const netlist::NetId> inputs(netlist::CellId c) const
    {
        return {in_net_.data() + in_offset_[c], in_net_.data() + in_offset_[c + 1]};
    }

    /// Net driven by cell @p c.
    [[nodiscard]] netlist::NetId output(netlist::CellId c) const { return out_net_[c]; }

    /// Gate kind of cell @p c (cold paths and lane-parallel evaluation).
    [[nodiscard]] gate::GateKind kind(netlist::CellId c) const { return kind_[c]; }

    /// Packed truth table of cell @p c (see gate::gate_truth_table).
    [[nodiscard]] std::uint8_t truth(netlist::CellId c) const { return truth_[c]; }

    /// True when some cell drives @p net (false for primary inputs and
    /// floating nets). The power-emulation backend uses this to separate
    /// cell-output charge — which glitch correction applies to — from
    /// primary-input charge, which never glitches.
    [[nodiscard]] bool is_cell_output(netlist::NetId net) const
    {
        return cell_output_[net] != 0;
    }

    /// Per-net cell-output flags (one 0/1 byte per net).
    [[nodiscard]] std::span<const std::uint8_t> cell_output_mask() const noexcept
    {
        return cell_output_;
    }

    /// Evaluate cell @p c against @p values (one 0/1 byte per net).
    [[nodiscard]] std::uint8_t eval(netlist::CellId c,
                                    const std::uint8_t* values) const
    {
        const std::uint32_t begin = in_offset_[c];
        const std::uint32_t end = in_offset_[c + 1];
        std::uint32_t idx = 0;
        for (std::uint32_t k = begin; k < end; ++k) {
            idx |= static_cast<std::uint32_t>(values[in_net_[k]]) << (k - begin);
        }
        return (truth_[c] >> idx) & 1U;
    }

private:
    std::size_t num_nets_ = 0;
    std::vector<netlist::CellId> topo_;
    std::vector<std::uint32_t> in_offset_;   // num_cells + 1
    std::vector<netlist::NetId> in_net_;     // flat input pins
    std::vector<netlist::NetId> out_net_;    // per cell
    std::vector<gate::GateKind> kind_;       // per cell
    std::vector<std::uint8_t> truth_;        // per cell
    std::vector<std::uint32_t> fanout_offset_; // num_nets + 1
    std::vector<netlist::CellId> fanout_cell_; // flat consumers
    std::vector<std::uint8_t> cell_output_;    // per net: 1 if a cell drives it
};

} // namespace hdpm::sim

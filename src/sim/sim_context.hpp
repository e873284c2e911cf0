#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "sim/electrical.hpp"

namespace hdpm::sim {

/// Immutable simulation context for one (netlist, technology) pair: the
/// electrical annotation, the compiled structure-of-arrays logic view
/// (input/fanout CSR, topological order, per-cell truth tables), and flat
/// per-cell delay / per-net edge-charge arrays for the event-kernel hot
/// loop.
///
/// Everything here is derived data that used to be rebuilt by every
/// EventSimulator (and, for the topological order, on every initialize()).
/// It is written only during construction and read-only afterwards, so one
/// context can be shared const across any number of simulator instances on
/// any number of threads with no synchronization — the basis of the sharded
/// characterization engine.
///
/// Lifetime: the netlist must outlive the context. The technology library
/// is fully consumed during construction (the ElectricalView copies what it
/// needs) and may be destroyed afterwards.
class SimContext {
public:
    SimContext(const netlist::Netlist& netlist, const gate::TechLibrary& library);

    [[nodiscard]] const netlist::Netlist& netlist() const noexcept { return *netlist_; }

    [[nodiscard]] const ElectricalView& electrical() const noexcept
    {
        return electrical_;
    }

    /// The compiled logic view shared by all simulator kinds.
    [[nodiscard]] const CompiledNetlist& compiled() const noexcept { return compiled_; }

    /// Cells consuming @p net (CSR row of the fanout table).
    [[nodiscard]] std::span<const netlist::CellId> fanout(netlist::NetId net) const
    {
        return compiled_.fanout(net);
    }

    /// Cells in topological order (inputs before consumers).
    [[nodiscard]] std::span<const netlist::CellId> topological_order() const noexcept
    {
        return compiled_.topological_order();
    }

    /// Propagation delay of a cell [ps] — same values as
    /// electrical().cell_delay_ps but unchecked flat-array access for the
    /// event hot loop.
    [[nodiscard]] std::int64_t cell_delay_ps(netlist::CellId cell) const
    {
        return delay_ps_[cell];
    }

    /// Everything the event kernel needs to evaluate and schedule one cell,
    /// packed into 24 bytes so an evaluation touches one or two cache lines
    /// instead of five parallel arrays. Unused input slots point at net 0
    /// and the truth table is replicated across the unused index bits, so
    /// evaluation is a fixed three-value gather with no per-arity branch.
    struct CellRec {
        netlist::NetId in[3];  ///< input nets (missing pins alias net 0)
        netlist::NetId out;    ///< driven output net
        std::int32_t delay_ps; ///< propagation delay
        std::uint8_t truth8;   ///< truth table expanded to all 8 gather indices
        std::uint8_t num_inputs;
        std::uint16_t unused = 0;
    };
    static_assert(sizeof(CellRec) == 24);

    /// Packed evaluation record of a cell (event-kernel hot loop).
    [[nodiscard]] const CellRec& cell_rec(netlist::CellId cell) const
    {
        return cell_rec_[cell];
    }

    /// All packed cell records, indexed by cell id.
    [[nodiscard]] std::span<const CellRec> cell_recs() const noexcept { return cell_rec_; }

    /// Evaluate a cell against @p values (one 0/1 byte per net) through the
    /// packed record: bit-identical to CompiledNetlist::eval.
    [[nodiscard]] static std::uint8_t eval_rec(const CellRec& cr,
                                               const std::uint8_t* values)
    {
        const std::uint32_t idx = static_cast<std::uint32_t>(values[cr.in[0]]) |
                                  (static_cast<std::uint32_t>(values[cr.in[1]]) << 1) |
                                  (static_cast<std::uint32_t>(values[cr.in[2]]) << 2);
        return (cr.truth8 >> idx) & 1U;
    }

    /// Charge per edge on a net [fC] — unchecked mirror of
    /// electrical().edge_charge_fc.
    [[nodiscard]] double edge_charge_fc(netlist::NetId net) const
    {
        return edge_charge_fc_[net];
    }

    /// The whole flat per-net edge-charge array [fC] — the power-emulation
    /// backend builds its per-toggle weight vector from this.
    [[nodiscard]] std::span<const double> edge_charges_fc() const noexcept
    {
        return edge_charge_fc_;
    }

    /// True when some cell drives @p net (see CompiledNetlist).
    [[nodiscard]] bool is_cell_output(netlist::NetId net) const
    {
        return compiled_.is_cell_output(net);
    }

    /// Largest per-cell delay [ps]; bounds the timing-wheel horizon (every
    /// scheduled event lies at most this far ahead of the current time).
    [[nodiscard]] std::int64_t max_cell_delay_ps() const noexcept
    {
        return max_cell_delay_ps_;
    }

private:
    const netlist::Netlist* netlist_;
    ElectricalView electrical_;
    CompiledNetlist compiled_;
    std::vector<std::int32_t> delay_ps_;    // per cell
    std::vector<CellRec> cell_rec_;         // per cell
    std::vector<double> edge_charge_fc_;    // per net
    std::int64_t max_cell_delay_ps_ = 1;
};

} // namespace hdpm::sim

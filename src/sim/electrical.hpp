#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "gatelib/techlib.hpp"
#include "netlist/netlist.hpp"

namespace hdpm::sim {

/// Electrical annotation of a netlist under a technology library:
/// per-net capacitance, per-net charge drawn per edge, and per-cell
/// propagation delay under its actual load.
///
/// Charge accounting (the "PowerMill substitute" cost model):
///   per logic edge on net n:  q(n) = ½·C(n)·Vdd  +  E_int(driver)/Vdd
/// (the second term is the net's internal part, internal_charge_fc)
/// with C(n) = driver output cap + Σ sink input caps + wire cap
/// (base + per-fanout). Charge is reported in fC; dividing the per-cycle
/// charge by the cycle time and multiplying by Vdd gives power, so — as in
/// the paper — charge and power are used synonymously up to a constant.
class ElectricalView {
public:
    ElectricalView(const netlist::Netlist& netlist, const gate::TechLibrary& library);

    /// Total capacitance on a net [fF].
    [[nodiscard]] double net_cap_ff(netlist::NetId net) const { return net_cap_ff_.at(net); }

    /// Charge drawn from the supply per logic edge on a net [fC].
    [[nodiscard]] double edge_charge_fc(netlist::NetId net) const
    {
        return edge_charge_fc_.at(net);
    }

    /// Internal-energy part of a net's edge charge [fC]: E_int(driver)/Vdd
    /// for a cell output, 0 for a primary input (gate::ChargeLaw's q_int).
    [[nodiscard]] double internal_charge_fc(netlist::NetId net) const
    {
        return internal_charge_fc_.at(net);
    }

    /// Propagation delay of a cell under its load [ps] (≥ 1), in
    /// class-nominal time: every corner of a load class simulates with the
    /// same integer delays (gate::TechLibrary::at).
    [[nodiscard]] std::int64_t cell_delay_ps(netlist::CellId cell) const
    {
        return cell_delay_ps_.at(cell);
    }

    /// Factor from class-nominal simulation time to reported time — the
    /// library's time_scale(), exactly 1 at the native corner.
    [[nodiscard]] double time_scale() const noexcept { return time_scale_; }

    /// A class-nominal time [ps] as reported time: scaled by time_scale()
    /// and rounded to whole picoseconds (the identity at scale 1).
    [[nodiscard]] std::int64_t dilate_ps(std::int64_t nominal_ps) const noexcept
    {
        return time_scale_ == 1.0
                   ? nominal_ps
                   : std::llround(static_cast<double>(nominal_ps) * time_scale_);
    }

    /// Supply voltage [V].
    [[nodiscard]] double vdd() const noexcept { return vdd_; }

    /// Sum of all net capacitances [fF] — a coarse area/complexity proxy.
    [[nodiscard]] double total_cap_ff() const noexcept { return total_cap_ff_; }

    /// Worst-case topological path delay [ps] (static timing, no false-path
    /// analysis), in reported time (dilate_ps of the class-nominal path).
    /// Useful for choosing cycle times in reports.
    [[nodiscard]] std::int64_t critical_path_ps() const noexcept { return critical_path_ps_; }

private:
    double vdd_;
    double time_scale_;
    double total_cap_ff_ = 0.0;
    std::int64_t critical_path_ps_ = 0;
    std::vector<double> net_cap_ff_;
    std::vector<double> edge_charge_fc_;
    std::vector<double> internal_charge_fc_;
    std::vector<std::int64_t> cell_delay_ps_;
};

} // namespace hdpm::sim

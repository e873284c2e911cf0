#include "sim/electrical.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hdpm::sim {

using netlist::Cell;
using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;

ElectricalView::ElectricalView(const netlist::Netlist& netlist,
                               const gate::TechLibrary& library)
    : vdd_(library.vdd()),
      time_scale_(library.time_scale()),
      net_cap_ff_(netlist.num_nets(), 0.0),
      edge_charge_fc_(netlist.num_nets(), 0.0),
      internal_charge_fc_(netlist.num_nets(), 0.0),
      cell_delay_ps_(netlist.num_cells(), 1)
{
    // Net capacitance: driver drain cap + sink pin caps + wire model.
    for (NetId net = 0; net < netlist.num_nets(); ++net) {
        double cap = library.wire_cap_base_ff();
        const CellId drv = netlist.driver(net);
        if (drv != kInvalidId) {
            cap += library.spec(netlist.cell(drv).kind).output_cap_ff;
        }
        net_cap_ff_[net] = cap;
    }
    std::vector<std::size_t> fanout_pins(netlist.num_nets(), 0);
    for (const Cell& cell : netlist.cells()) {
        for (const NetId in : cell.input_span()) {
            net_cap_ff_[in] += library.spec(cell.kind).input_cap_ff;
            ++fanout_pins[in];
        }
    }
    for (NetId net = 0; net < netlist.num_nets(); ++net) {
        net_cap_ff_[net] +=
            library.wire_cap_per_fanout_ff() * static_cast<double>(fanout_pins[net]);
        total_cap_ff_ += net_cap_ff_[net];
    }

    // Per-edge charge: switched capacitance plus the driver's internal
    // energy expressed as charge at Vdd. Primary inputs have no driver —
    // the module still absorbs the charge into its pin capacitance.
    for (NetId net = 0; net < netlist.num_nets(); ++net) {
        double q = 0.5 * net_cap_ff_[net] * vdd_;
        const CellId drv = netlist.driver(net);
        if (drv != kInvalidId) {
            internal_charge_fc_[net] =
                library.spec(netlist.cell(drv).kind).internal_energy_fj / vdd_;
            q += internal_charge_fc_[net];
        }
        edge_charge_fc_[net] = q;
    }

    // Cell delays under load.
    for (CellId id = 0; id < netlist.num_cells(); ++id) {
        const Cell& cell = netlist.cell(id);
        const auto& spec = library.spec(cell.kind);
        const double d = spec.intrinsic_delay_ps + spec.delay_per_ff_ps * net_cap_ff_[cell.output];
        cell_delay_ps_[id] = std::max<std::int64_t>(1, std::llround(d));
    }

    // Static timing: longest arrival over the topological order.
    std::vector<std::int64_t> arrival(netlist.num_nets(), 0);
    std::int64_t nominal_path = 0;
    for (const CellId id : netlist.topological_order()) {
        const Cell& cell = netlist.cell(id);
        std::int64_t in_arrival = 0;
        for (const NetId in : cell.input_span()) {
            in_arrival = std::max(in_arrival, arrival[in]);
        }
        arrival[cell.output] = in_arrival + cell_delay_ps_[id];
        nominal_path = std::max(nominal_path, arrival[cell.output]);
    }
    critical_path_ps_ = dilate_ps(nominal_path);
}

} // namespace hdpm::sim

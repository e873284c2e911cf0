#pragma once

// Reference event-driven simulator for differential tests of
// sim::EventSimulator. It is deliberately the plain textbook kernel: a
// std::priority_queue ordered by (time, schedule sequence), gate
// evaluation through Netlist::cell and gate_eval, per-timestamp cell
// deduplication, and a topological zero-delay settle. It shares no code
// with the production timing wheel — only the public Netlist,
// ElectricalView, EventSimOptions and VcdWriter surface — and implements
// the same contract: transport delays filtered by the inertial window,
// optional input-pin charge, settle and trace times reported dilated by the
// corner's time scale, and the per-cycle event budget with its structured
// SimBudgetExceeded diagnostic.

#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/electrical.hpp"
#include "sim/event_sim.hpp"
#include "sim/vcd.hpp"
#include "util/bitvec.hpp"

namespace hdpm::oracle {

class HeapEventSimulator {
public:
    /// @p netlist and @p electrical must outlive the simulator.
    HeapEventSimulator(const netlist::Netlist& netlist,
                       const sim::ElectricalView& electrical,
                       sim::EventSimOptions options = {});

    /// Zero-delay settle on @p inputs and a full scheduler reset.
    void initialize(const util::BitVec& inputs);

    /// Apply the next input vector and simulate until quiescence.
    sim::CycleResult apply(const util::BitVec& inputs);

    [[nodiscard]] util::BitVec outputs() const;
    [[nodiscard]] const std::vector<std::uint64_t>& cumulative_transitions() const noexcept
    {
        return transition_count_;
    }
    [[nodiscard]] const std::vector<double>& cumulative_charge_per_net() const noexcept
    {
        return charge_per_net_;
    }
    [[nodiscard]] const sim::KernelStats& kernel_stats() const noexcept { return stats_; }

    /// Per-cycle toggle tracking: nets toggled by the last apply() in
    /// first-toggle order, and their toggle counts.
    void set_cycle_toggle_tracking(bool enabled);
    [[nodiscard]] std::span<const netlist::NetId> cycle_toggled_nets() const noexcept
    {
        return cycle_dirty_;
    }
    [[nodiscard]] std::uint32_t cycle_toggle_count(netlist::NetId net) const
    {
        return cycle_toggle_count_.at(net);
    }

    void set_tracer(sim::VcdWriter* tracer) noexcept { tracer_ = tracer; }

private:
    struct Event {
        std::int64_t time;
        std::uint64_t seq;
        netlist::NetId net;
        std::uint8_t value;
        std::uint32_t generation;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept
        {
            return a.time != b.time ? a.time > b.time : a.seq > b.seq;
        }
    };

    /// Inertial-window bookkeeping for a change of @p net to @p value at
    /// @p time; true when an event must be queued.
    bool schedule(netlist::NetId net, std::uint8_t value, std::int64_t time);
    void toggle(netlist::NetId net, std::uint8_t value, std::int64_t time,
                bool count_charge, sim::CycleResult& result);
    /// Queue every fanout cell of @p net for evaluation this timestamp.
    void touch_fanout(netlist::NetId net);
    [[noreturn]] void fail_budget(std::uint64_t budget) const;

    const netlist::Netlist* netlist_;
    const sim::ElectricalView* electrical_;
    sim::EventSimOptions options_;
    std::vector<std::vector<netlist::CellId>> fanout_;

    std::vector<std::uint8_t> values_;
    // Per-net pending-change state.
    std::vector<std::uint8_t> scheduled_value_;
    std::vector<std::uint32_t> pending_count_;
    std::vector<std::uint32_t> generation_;
    std::vector<std::int64_t> pending_time_;

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::uint64_t seq_ = 0;
    std::vector<std::uint64_t> cell_stamp_;
    std::uint64_t epoch_ = 0;
    std::vector<netlist::CellId> touched_;

    sim::KernelStats stats_;
    std::vector<std::uint64_t> transition_count_;
    std::vector<double> charge_per_net_;
    bool track_ = false;
    std::vector<std::uint32_t> cycle_toggle_count_;
    std::vector<netlist::NetId> cycle_dirty_;

    std::uint64_t cycle_u_ = 0;
    std::uint64_t cycle_v_ = 0;
    std::int64_t cycle_start_time_ = 0;
    sim::VcdWriter* tracer_ = nullptr;
};

} // namespace hdpm::oracle

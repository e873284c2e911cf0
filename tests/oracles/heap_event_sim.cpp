#include "oracles/heap_event_sim.hpp"

#include <algorithm>
#include <string>

#include "gatelib/gate.hpp"
#include "util/fault.hpp"

namespace hdpm::oracle {

using netlist::CellId;
using netlist::NetId;
using util::BitVec;

HeapEventSimulator::HeapEventSimulator(const netlist::Netlist& netlist,
                                       const sim::ElectricalView& electrical,
                                       sim::EventSimOptions options)
    : netlist_(&netlist),
      electrical_(&electrical),
      options_(options),
      fanout_(netlist.fanout_table()),
      values_(netlist.num_nets(), 0),
      scheduled_value_(netlist.num_nets(), 0),
      pending_count_(netlist.num_nets(), 0),
      generation_(netlist.num_nets(), 0),
      pending_time_(netlist.num_nets(), 0),
      cell_stamp_(netlist.num_cells(), 0),
      transition_count_(netlist.num_nets(), 0),
      charge_per_net_(netlist.num_nets(), 0.0)
{
}

void HeapEventSimulator::initialize(const BitVec& inputs)
{
    const auto& pis = netlist_->primary_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) {
        values_[pis[i]] = inputs.get(static_cast<int>(i)) ? 1 : 0;
    }
    std::uint8_t in[gate::kMaxGateInputs];
    for (const CellId id : netlist_->topological_order()) {
        const netlist::Cell& cell = netlist_->cell(id);
        const auto ins = cell.input_span();
        for (std::size_t k = 0; k < ins.size(); ++k) {
            in[k] = values_[ins[k]];
        }
        values_[cell.output] = gate::gate_eval(cell.kind, {in, ins.size()}) ? 1 : 0;
    }

    std::fill(pending_count_.begin(), pending_count_.end(), 0);
    std::fill(generation_.begin(), generation_.end(), 0);
    std::fill(pending_time_.begin(), pending_time_.end(), 0);
    scheduled_value_ = values_;
    std::fill(cell_stamp_.begin(), cell_stamp_.end(), 0);
    epoch_ = 0;
    seq_ = 0;
    queue_ = {};
    if (track_) {
        for (const NetId net : cycle_dirty_) {
            cycle_toggle_count_[net] = 0;
        }
        cycle_dirty_.clear();
    }
    if (tracer_ != nullptr) {
        tracer_->dump_all(cycle_start_time_, values_);
    }
}

void HeapEventSimulator::set_cycle_toggle_tracking(bool enabled)
{
    track_ = enabled;
    cycle_toggle_count_.assign(netlist_->num_nets(), 0);
    cycle_dirty_.clear();
}

bool HeapEventSimulator::schedule(NetId net, std::uint8_t value, std::int64_t time)
{
    if (pending_count_[net] == 0) {
        scheduled_value_[net] = values_[net];
    }
    if (value == scheduled_value_[net]) {
        return false; // the net already heads to this value
    }
    const std::int64_t window = options_.inertial_window_ps;
    if (window > 0 && pending_count_[net] > 0 && time - pending_time_[net] <= window) {
        // The new change supersedes every pending one on this net.
        ++generation_[net];
        pending_count_[net] = 0;
        if (value == values_[net]) {
            scheduled_value_[net] = value;
            return false; // the pulse is swallowed entirely
        }
    }
    scheduled_value_[net] = value;
    pending_time_[net] = time;
    ++pending_count_[net];
    return true;
}

void HeapEventSimulator::toggle(NetId net, std::uint8_t value, std::int64_t time,
                                bool count_charge, sim::CycleResult& result)
{
    values_[net] = value;
    ++transition_count_[net];
    if (track_ && cycle_toggle_count_[net]++ == 0) {
        cycle_dirty_.push_back(net);
    }
    ++result.transitions;
    result.settle_time_ps = std::max(result.settle_time_ps, time);
    if (count_charge) {
        const double q = electrical_->edge_charge_fc(net);
        result.charge_fc += q;
        charge_per_net_[net] += q;
    }
    if (tracer_ != nullptr) {
        tracer_->change(cycle_start_time_ + electrical_->dilate_ps(time), net, value != 0);
    }
}

void HeapEventSimulator::touch_fanout(NetId net)
{
    for (const CellId consumer : fanout_[net]) {
        if (cell_stamp_[consumer] != epoch_) {
            cell_stamp_[consumer] = epoch_;
            touched_.push_back(consumer);
        }
    }
}

void HeapEventSimulator::fail_budget(std::uint64_t budget) const
{
    util::FaultContext context;
    context.component = netlist_->name();
    context.bitwidth = static_cast<int>(netlist_->primary_inputs().size());
    context.vector_u = cycle_u_;
    context.vector_v = cycle_v_;
    context.has_vectors = true;
    context.detail = "event budget of " + std::to_string(budget) + " exceeded";
    throw util::FaultError{util::FaultKind::SimBudgetExceeded, std::move(context)};
}

sim::CycleResult HeapEventSimulator::apply(const BitVec& inputs)
{
    if (track_) {
        for (const NetId net : cycle_dirty_) {
            cycle_toggle_count_[net] = 0;
        }
        cycle_dirty_.clear();
    }
    const auto& pis = netlist_->primary_inputs();
    cycle_u_ = 0;
    for (std::size_t i = 0; i < pis.size(); ++i) {
        cycle_u_ |= static_cast<std::uint64_t>(values_[pis[i]]) << i;
    }
    cycle_v_ = inputs.raw();
    const std::uint64_t budget = options_.max_events_per_cycle;

    sim::CycleResult result;
    std::uint64_t processed = 0;
    touched_.clear();
    ++epoch_;
    for (std::size_t i = 0; i < pis.size(); ++i) {
        const NetId net = pis[i];
        const std::uint8_t v = inputs.get(static_cast<int>(i)) ? 1 : 0;
        if (v != values_[net]) {
            toggle(net, v, 0, options_.count_input_charge, result);
            touch_fanout(net);
        }
    }

    std::uint8_t in[gate::kMaxGateInputs];
    auto evaluate_touched = [&](std::int64_t now) {
        for (const CellId id : touched_) {
            const netlist::Cell& cell = netlist_->cell(id);
            const auto ins = cell.input_span();
            for (std::size_t k = 0; k < ins.size(); ++k) {
                in[k] = values_[ins[k]];
            }
            const std::uint8_t out = gate::gate_eval(cell.kind, {in, ins.size()}) ? 1 : 0;
            const std::int64_t t = now + electrical_->cell_delay_ps(id);
            if (schedule(cell.output, out, t)) {
                queue_.push(Event{t, seq_++, cell.output, out, generation_[cell.output]});
                stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
            }
        }
    };
    evaluate_touched(0);

    while (!queue_.empty()) {
        const std::int64_t now = queue_.top().time;
        touched_.clear();
        ++epoch_;
        while (!queue_.empty() && queue_.top().time == now) {
            const Event ev = queue_.top();
            queue_.pop();
            if (++processed > budget) {
                fail_budget(budget);
            }
            if (ev.generation != generation_[ev.net]) {
                continue; // superseded by an inertial cancellation
            }
            --pending_count_[ev.net];
            toggle(ev.net, ev.value, now, true, result);
            touch_fanout(ev.net);
        }
        evaluate_touched(now);
    }

    stats_.events_processed += processed;
    if (tracer_ != nullptr) {
        cycle_start_time_ += tracer_->cycle_period_ps();
    }
    result.settle_time_ps = electrical_->dilate_ps(result.settle_time_ps);
    return result;
}

BitVec HeapEventSimulator::outputs() const
{
    const auto& pos = netlist_->primary_outputs();
    BitVec out{static_cast<int>(pos.size())};
    for (std::size_t i = 0; i < pos.size(); ++i) {
        out.set(static_cast<int>(i), values_[pos[i]] != 0);
    }
    return out;
}

} // namespace hdpm::oracle

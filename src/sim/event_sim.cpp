#include "sim/event_sim.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace hdpm::sim {

using netlist::CellId;
using netlist::NetId;
using util::BitVec;

// ---------------------------------------------------------------------------
// TimingWheel

void EventSimulator::TimingWheel::configure(std::int64_t max_delay)
{
    horizon = std::max<std::int64_t>(1, max_delay);
    const auto count = std::bit_ceil(static_cast<std::size_t>(horizon) + 1);
    slots.assign(count, {});
    occupied.assign((count + 63) / 64, 0);
    mask = count - 1;
}

void EventSimulator::TimingWheel::clear()
{
    for (std::size_t w = 0; w < occupied.size(); ++w) {
        std::uint64_t word = occupied[w];
        while (word != 0) {
            const auto bit = static_cast<std::size_t>(std::countr_zero(word));
            slots[(w << 6) + bit].clear();
            word &= word - 1;
        }
        occupied[w] = 0;
    }
}

// ---------------------------------------------------------------------------
// EventSimulator

EventSimulator::EventSimulator(const SimContext& context, EventSimOptions options)
    : context_(&context),
      netlist_(&context.netlist()),
      options_(options),
      values_(netlist_->num_nets(), 0),
      sched_(netlist_->num_nets()),
      touched_(context.compiled().fanout_cells().size()),
      transition_count_(netlist_->num_nets(), 0),
      charge_per_net_(netlist_->num_nets(), 0.0)
{
    HDPM_REQUIRE(netlist_->num_nets() < (std::size_t{1} << 31),
                 "netlist too large for packed wheel events");
    wheel_.configure(context.max_cell_delay_ps());
}

EventSimulator::EventSimulator(std::shared_ptr<const SimContext> context,
                               EventSimOptions options)
    : EventSimulator(*context, options)
{
    owned_context_ = std::move(context);
}

EventSimulator::EventSimulator(const netlist::Netlist& netlist,
                               const gate::TechLibrary& library, EventSimOptions options)
    : EventSimulator(std::make_shared<const SimContext>(netlist, library), options)
{
}

void EventSimulator::initialize(const BitVec& inputs)
{
    const auto& pis = netlist_->primary_inputs();
    HDPM_REQUIRE(inputs.width() == static_cast<int>(pis.size()), "netlist '",
                 netlist_->name(), "' has ", pis.size(), " inputs, pattern has ",
                 inputs.width(), " bits");

    // Zero-delay settle over the shared compiled view (no charge
    // accounting) — the steady state the next apply() diffs against.
    for (std::size_t i = 0; i < pis.size(); ++i) {
        values_[pis[i]] = inputs.get(static_cast<int>(i)) ? 1 : 0;
    }
    const CompiledNetlist& cn = context_->compiled();
    for (const CellId id : cn.topological_order()) {
        values_[cn.output(id)] = cn.eval(id, values_.data());
    }

    reset_cycle_state();
}

void EventSimulator::load_state(const BitVec& inputs,
                                std::span<const std::uint8_t> net_values)
{
    const auto& pis = netlist_->primary_inputs();
    HDPM_REQUIRE(inputs.width() == static_cast<int>(pis.size()), "netlist '",
                 netlist_->name(), "' has ", pis.size(), " inputs, pattern has ",
                 inputs.width(), " bits");
    HDPM_REQUIRE(net_values.size() == values_.size(), "netlist '", netlist_->name(),
                 "' has ", values_.size(), " nets, state has ", net_values.size());
    std::copy(net_values.begin(), net_values.end(), values_.begin());
    for (std::size_t i = 0; i < pis.size(); ++i) {
        HDPM_ASSERT(values_[pis[i]] == (inputs.get(static_cast<int>(i)) ? 1 : 0),
                    "load_state input ", i, " disagrees with the adopted net values");
    }

    reset_cycle_state();
}

/// Reset every piece of per-cycle scheduler state so repeated
/// initialize/load_state calls start from one identical state: zeroed
/// per-net generations, then a bitmap scan of the wheel that clears
/// whatever a faulted cycle left pending (a completed cycle leaves it
/// empty). Cumulative counters (transition/charge per net, kernel stats)
/// survive.
void EventSimulator::reset_cycle_state()
{
    for (std::size_t net = 0; net < sched_.size(); ++net) {
        sched_[net] = NetSched{values_[net], 0, 0, 0, 0};
    }
    wheel_.clear();

    initialized_ = true;
}

CycleResult EventSimulator::apply(const BitVec& inputs)
{
    HDPM_REQUIRE(initialized_, "EventSimulator::apply before initialize");
    const auto& pis = netlist_->primary_inputs();
    HDPM_REQUIRE(inputs.width() == static_cast<int>(pis.size()), "netlist '",
                 netlist_->name(), "' has ", pis.size(), " inputs, pattern has ",
                 inputs.width(), " bits");
    // Record the cycle's (u, v) vector pair before any net toggles, so a
    // budget-exceeded fault can report the exact transition to replay.
    cycle_u_bits_ = 0;
    for (std::size_t i = 0; i < pis.size(); ++i) {
        cycle_u_bits_ |= static_cast<std::uint64_t>(values_[pis[i]]) << i;
    }
    cycle_v_bits_ = inputs.raw();
    const std::uint64_t budget = HDPM_FAULT_FIRE(util::FaultPoint::EventBudget)
                                     ? 0
                                     : options_.max_events_per_cycle;
    CycleResult cycle;
    if (!sum_internal_) {
        cycle = apply_wheel<false>(inputs, budget);
    } else {
        cycle = apply_wheel<true>(inputs, budget);
    }
    cycle.settle_time_ps = context_->electrical().dilate_ps(cycle.settle_time_ps);
    return cycle;
}

void EventSimulator::fail_event_budget(const std::uint64_t budget) const
{
    util::FaultContext context;
    context.component = netlist_->name();
    context.bitwidth = static_cast<int>(netlist_->primary_inputs().size());
    context.vector_u = cycle_u_bits_;
    context.vector_v = cycle_v_bits_;
    context.has_vectors = true;
    context.detail = "event budget of " + std::to_string(budget) +
                     " exceeded — runaway oscillation? replay the recorded "
                     "(u, v) pair to reproduce";
    throw util::FaultError{util::FaultKind::SimBudgetExceeded, std::move(context)};
}

template <bool kInternal>
CycleResult EventSimulator::apply_wheel(const BitVec& inputs, const std::uint64_t budget)
{
    // One tight loop over raw arrays. A store to a net value byte may alias
    // any object, so everything the loop reads is loaded into a local once:
    // the compiler would otherwise reload the context, the vector data
    // pointers and the wheel geometry after every toggle.
    const CompiledNetlist& cn = context_->compiled();
    const SimContext::CellRec* const cells = context_->cell_recs().data();
    const std::uint32_t* const fanout_offset = cn.fanout_offsets().data();
    const CellId* const fanout_cell = cn.fanout_cells().data();
    const double* const edge_charge = context_->edge_charges_fc().data();
    std::uint8_t* const values = values_.data();
    NetSched* const sched = sched_.data();
    std::uint64_t* const transition_count = transition_count_.data();
    double* const charge_per_net = charge_per_net_.data();
    CellId* const touched = touched_.data();
    std::vector<WheelEvent>* const slots = wheel_.slots.data();
    std::uint64_t* const occupied = wheel_.occupied.data();
    const std::size_t occupied_words = wheel_.occupied.size();
    const std::size_t mask = wheel_.mask;
    const std::int64_t horizon = wheel_.horizon;
    const std::int64_t window = options_.inertial_window_ps;
    const double* const internal_charge = context_->internal_charges_fc().data();

    // Results accumulate in locals in toggle order, so the floating-point
    // charge is a deterministic function of the event order.
    double charge = 0.0;
    double internal = 0.0;
    std::uint64_t transitions = 0;
    std::int64_t settle = 0;
    auto toggle = [&](NetId net, std::uint8_t v, std::int64_t time, bool count_charge) {
        values[net] = v;
        ++transition_count[net];
        ++transitions;
        settle = std::max(settle, time);
        if (count_charge) {
            const double q = edge_charge[net];
            charge += q;
            charge_per_net[net] += q;
            if constexpr (kInternal) {
                internal += internal_charge[net];
            }
        }
    };
    // Fanout consumers are appended without per-cell deduplication: a cell
    // touched through two of its inputs evaluates twice, but the second
    // evaluation computes the same output and prepare_schedule sees the net
    // already heading there, so the event stream is unchanged while the
    // common case sheds one stamp read-modify-write per consumer (measured
    // duplicate rate is a few percent of visits).
    std::size_t num_touched = 0;
    auto touch_fanout = [&](NetId net) {
        for (std::uint32_t k = fanout_offset[net]; k < fanout_offset[net + 1]; ++k) {
            touched[num_touched++] = fanout_cell[k];
        }
    };
    // Evaluate the touched cells at time `now` and push every resulting
    // change into its slot; bucket order is push order, which is
    // schedule-sequence order.
    std::size_t pending = 0;
    auto evaluate_touched = [&](std::int64_t now) {
        for (std::size_t i = 0; i < num_touched; ++i) {
            const SimContext::CellRec& cr = cells[touched[i]];
            const std::uint8_t out = SimContext::eval_rec(cr, values);
            const NetId net = cr.out;
            const std::int64_t t = now + cr.delay_ps;
            NetSched& ns = sched[net];
            if (!prepare_schedule(ns, values[net], out, t, window)) {
                continue;
            }
            HDPM_ASSERT(t > now && t - now <= horizon,
                        "wheel push outside horizon at t=", t, " now=", now);
            const auto slot = static_cast<std::size_t>(t) & mask;
            std::vector<WheelEvent>& bucket = slots[slot];
            if (bucket.empty()) {
                occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
            }
            bucket.push_back(WheelEvent::make(net, out, ns.generation));
            ++pending;
        }
    };

    // Apply primary-input changes at t = 0.
    const auto& pis = netlist_->primary_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) {
        const NetId net = pis[i];
        const std::uint8_t v = inputs.get(static_cast<int>(i)) ? 1 : 0;
        if (v == values[net]) {
            continue;
        }
        toggle(net, v, 0, options_.count_input_charge);
        touch_fanout(net);
    }
    evaluate_touched(0);

    // Main event loop: drain the wheel one timestamp bucket at a time so
    // each cell evaluates at most once per time step. Queue depth peaks
    // right before an advance (it only grows between drains), so sampling
    // it there reports the same maximum as checking after every push.
    std::size_t max_depth = stats_.max_queue_depth;
    std::uint64_t processed = 0;
    std::int64_t now = 0;
    while (pending != 0) {
        max_depth = std::max(max_depth, pending);

        // Advance to the next occupied slot: a word scan from the slot
        // after `now`, wrapping once. The starting word is revisited
        // unmasked at the end so a lone bit below the start is found.
        const std::size_t start = (static_cast<std::size_t>(now) + 1) & mask;
        std::size_t w = start >> 6;
        std::uint64_t word = occupied[w] & (~std::uint64_t{0} << (start & 63));
        for (std::size_t n = 0; word == 0; ++n) {
            if (n == occupied_words) {
                HDPM_FAIL("timing wheel occupancy bitmap inconsistent with pending count");
            }
            w = w + 1 == occupied_words ? 0 : w + 1;
            word = occupied[w];
        }
        const std::size_t slot = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        now += static_cast<std::int64_t>(((slot - start) & mask) + 1);

        // The bucket stays queued (and its bit set) until it is drained, so
        // a budget fault leaves the wheel consistent for clear().
        std::vector<WheelEvent>& bucket = slots[slot];
        num_touched = 0;
        for (const WheelEvent ev : bucket) {
            if (++processed > budget) {
                stats_.max_queue_depth = max_depth;
                fail_event_budget(budget);
            }
            const NetId net = ev.net();
            NetSched& ns = sched[net];
            if (ev.generation != ns.generation) {
                continue; // superseded by an inertial cancellation
            }
            --ns.pending_count;
            const std::uint8_t v = ev.value();
            // Per-net event times are monotone and scheduled values
            // alternate, so a valid event always toggles its net.
            HDPM_ASSERT(v != values[net], "no-op event on net ", net);
            toggle(net, v, now, true);
            touch_fanout(net);
        }
        pending -= bucket.size();
        bucket.clear(); // keeps capacity: the slot arena never shrinks
        occupied[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));

        evaluate_touched(now);
    }

    stats_.max_queue_depth = max_depth;
    stats_.events_processed += processed;
    if constexpr (kInternal) {
        cycle_internal_charge_ = internal;
    }
    return CycleResult{charge, transitions, settle};
}

BitVec EventSimulator::outputs() const
{
    const auto& pos = netlist_->primary_outputs();
    BitVec out{static_cast<int>(pos.size())};
    for (std::size_t i = 0; i < pos.size(); ++i) {
        out.set(static_cast<int>(i), values_[pos[i]] != 0);
    }
    return out;
}

} // namespace hdpm::sim

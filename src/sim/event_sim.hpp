#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/electrical.hpp"
#include "sim/sim_context.hpp"
#include "util/bitvec.hpp"

namespace hdpm::sim {

/// Options of the event-driven simulator.
struct EventSimOptions {
    /// Include the charge absorbed by the module's input pin capacitance
    /// when a primary input toggles (PowerMill-style module accounting).
    bool count_input_charge = true;

    /// 0 = pure transport delays: every scheduled output change propagates,
    /// so all glitches are kept.
    /// > 0 = a scheduled change cancels a pending change on the same net if
    /// they are closer than this window — an inertial-delay approximation
    /// that filters narrow glitches, as transistor-level simulation (the
    /// paper's PowerMill reference) inherently does. The default of 100 ps
    /// is on the order of one gate delay in the generic350 library; the
    /// glitch-model ablation sweeps this knob. The window is in
    /// class-nominal time, like the cell delays it is compared with, so it
    /// dilates with the corner and filters the same pulses at every corner
    /// of a load class.
    std::int64_t inertial_window_ps = 100;

    /// Safety valve against runaway simulations. Exceeding it throws a
    /// util::FaultError of kind SimBudgetExceeded whose context carries the
    /// cycle's exact (u, v) input vector pair, so the offending transition
    /// can be replayed in isolation. The simulator itself stays usable: the
    /// next initialize()/load_state() performs a full scheduler reset.
    std::uint64_t max_events_per_cycle = 50'000'000;
};

/// Per-cycle simulation result.
struct CycleResult {
    double charge_fc = 0.0;          ///< supply charge drawn this cycle [fC]
    std::uint64_t transitions = 0;   ///< actual net toggles (including glitches)
    /// Time of the last toggle, in reported time (ElectricalView::dilate_ps
    /// of the class-nominal simulation time).
    std::int64_t settle_time_ps = 0;
};

/// Cumulative scheduler counters since construction (throughput
/// observability; folded into core::CharRunStats by the characterizer).
struct KernelStats {
    std::uint64_t events_processed = 0; ///< queue pops, incl. superseded events
    std::size_t max_queue_depth = 0;    ///< peak simultaneously pending events
};

/// Event-driven gate-level logic and power simulator.
///
/// This is the library's reference power estimator — the substitute for the
/// transistor-level PowerMill runs in the paper. It propagates input vector
/// changes through the netlist with per-cell load-dependent delays
/// (transport semantics by default), so unequal path delays produce
/// glitches whose charge is fully accounted. Charge per net toggle comes
/// from the ElectricalView.
///
/// Typical use: initialize(u) to settle on the first vector, then apply(v)
/// once per subsequent vector; each apply returns the cycle charge Q[j].
///
/// Threading: a simulator instance is not thread-safe, but all shared data
/// lives in the (immutable) SimContext — N instances over one context may
/// run concurrently on N threads. The context-borrowing constructor is the
/// cheap one (per-instance state only); the (netlist, library) convenience
/// constructor builds and owns a private context.
class EventSimulator {
public:
    /// Borrow a shared immutable context; it must outlive the simulator.
    explicit EventSimulator(const SimContext& context, EventSimOptions options = {});

    /// Share ownership of a context (for simulators that outlive the scope
    /// that built it).
    explicit EventSimulator(std::shared_ptr<const SimContext> context,
                            EventSimOptions options = {});

    /// Convenience: build (and own) a context for @p netlist.
    EventSimulator(const netlist::Netlist& netlist, const gate::TechLibrary& library,
                   EventSimOptions options = {});

    /// Establish the steady state for @p inputs (zero-delay evaluation, no
    /// charge is accounted) and reset all per-cycle scheduler state —
    /// repeated initialize calls start from an identical state regardless
    /// of what ran before. Cumulative counters (transition/charge per net,
    /// kernel stats) are not cleared.
    void initialize(const util::BitVec& inputs);

    /// Adopt an externally settled steady state instead of re-settling:
    /// @p net_values holds one 0/1 byte per net (the layout
    /// BatchedEvaluator::export_lane produces) and must be the zero-delay
    /// fixpoint of @p inputs — for a combinational netlist that fixpoint is
    /// unique, so the post-call state is exactly the post-initialize(inputs)
    /// state (same values, same full scheduler reset) without
    /// the O(cells) settle pass. The characterizer's batched pairs-mode
    /// warm-up is the intended caller.
    void load_state(const util::BitVec& inputs,
                    std::span<const std::uint8_t> net_values);

    /// Apply the next input vector and simulate until quiescence.
    CycleResult apply(const util::BitVec& inputs);

    /// Value of a net in the current steady state.
    [[nodiscard]] bool value(netlist::NetId net) const { return values_.at(net) != 0; }

    /// Primary outputs packed LSB-first.
    [[nodiscard]] util::BitVec outputs() const;

    /// Electrical annotation in use.
    [[nodiscard]] const ElectricalView& electrical() const noexcept
    {
        return context_->electrical();
    }

    /// The (possibly shared) immutable context this simulator reads.
    [[nodiscard]] const SimContext& context() const noexcept { return *context_; }

    /// Total toggles per net since construction (glitch analysis).
    [[nodiscard]] const std::vector<std::uint64_t>& cumulative_transitions() const noexcept
    {
        return transition_count_;
    }

    /// Also sum each cycle's internal charge (cycle_internal_charge_fc) —
    /// the q_int of gate::ChargeLaw, so the caller derives the cycle charge
    /// at every (Vdd, T) corner of the context's load class from one
    /// simulation. Off by default: apply() then runs the plain kernel,
    /// which carries none of this.
    void set_internal_charge_sum(bool enabled) noexcept
    {
        sum_internal_ = enabled;
        cycle_internal_charge_ = 0.0;
    }

    /// Internal-energy part of the last apply()'s CycleResult::charge_fc
    /// [fC]: the same counted toggles summed over
    /// SimContext::internal_charges_fc. 0 while the sum is disabled.
    [[nodiscard]] double cycle_internal_charge_fc() const noexcept
    {
        return cycle_internal_charge_;
    }

    /// Total charge drawn per net since construction [fC] (power hot-spot
    /// reports; see sim/report.hpp).
    [[nodiscard]] const std::vector<double>& cumulative_charge_per_net() const noexcept
    {
        return charge_per_net_;
    }

    /// Cumulative scheduler counters since construction.
    [[nodiscard]] const KernelStats& kernel_stats() const noexcept { return stats_; }

private:
    /// Per-net scheduler state, packed so the hot paths (event validation
    /// and schedule preparation) touch one 16-byte slot instead of four
    /// parallel arrays. pending_count is bounded by the number of distinct
    /// pending timestamps, which the wheel horizon caps far below 2^16.
    struct NetSched {
        std::uint8_t scheduled_value = 0; ///< value after all pending events
        std::uint8_t unused = 0;
        std::uint16_t pending_count = 0; ///< pending valid events on the net
        std::uint32_t generation = 0;    ///< current valid event generation
        std::int64_t pending_time = 0;   ///< time of the last scheduled event
    };
    static_assert(sizeof(NetSched) == 16);

    /// A pending net change in the timing wheel, packed into 8 bytes: bit 31
    /// of net_val is the scheduled value, the low bits the net (the netlist
    /// layer never allocates 2^31 nets). No time or sequence field: the slot
    /// encodes the time, and the bucket's push order is the schedule
    /// sequence order (the wheel only ever appends), so events of one
    /// timestamp drain in the order they were scheduled — the (time,
    /// schedule sequence) order of a priority-queue kernel.
    struct WheelEvent {
        std::uint32_t net_val;
        std::uint32_t generation;

        static WheelEvent make(netlist::NetId net, std::uint8_t value,
                               std::uint32_t generation) noexcept
        {
            return {net | (static_cast<std::uint32_t>(value) << 31), generation};
        }
        [[nodiscard]] netlist::NetId net() const noexcept
        {
            return net_val & 0x7fff'ffffU;
        }
        [[nodiscard]] std::uint8_t value() const noexcept
        {
            return static_cast<std::uint8_t>(net_val >> 31);
        }
    };
    static_assert(sizeof(WheelEvent) == 8);

    /// Calendar queue over slots [0, W) with W = bit_ceil(max delay + 1).
    /// All pending times lie in (now, now + max delay], a window shorter
    /// than W, so "time mod W" maps every pending timestamp to a distinct
    /// slot. Slot buckets are arena-style vectors that are cleared but
    /// never deallocated, and a bitmap tracks occupied slots so advancing
    /// to the next timestamp is a word scan + countr_zero, not a slot walk.
    /// Plain storage: apply_wheel pushes, advances and drains it inline
    /// with the current time and pending count in locals, and leaves it
    /// empty at the end of every completed cycle.
    struct TimingWheel {
        void configure(std::int64_t max_delay);
        /// Drop the events a faulted cycle left behind (keeps capacity).
        void clear();

        std::vector<std::vector<WheelEvent>> slots;
        std::vector<std::uint64_t> occupied; // bitmap, one bit per slot
        std::size_t mask = 0;                // slot count - 1 (power of two)
        std::int64_t horizon = 1;            // max schedulable delay
    };

    /// The kernel; kInternal instantiates the internal charge sum, so the
    /// plain loop carries no trace of it.
    template <bool kInternal>
    CycleResult apply_wheel(const util::BitVec& inputs, std::uint64_t budget);
    /// Throw the structured SimBudgetExceeded diagnostic for this cycle.
    [[noreturn]] void fail_event_budget(std::uint64_t budget) const;
    /// The per-cycle scheduler reset shared by initialize and load_state.
    void reset_cycle_state();
    /// Shared inertial-window/cancellation bookkeeping; returns true when
    /// the caller must enqueue an event for (net, value, time). Static and
    /// inline in the header so apply_wheel folds it into its hot loop with
    /// the window in a register.
    static bool prepare_schedule(NetSched& ns, std::uint8_t current, std::uint8_t value,
                                 std::int64_t time, std::int64_t inertial_window_ps)
    {
        if (ns.pending_count == 0) {
            ns.scheduled_value = current;
        }
        if (value == ns.scheduled_value) {
            return false; // the net already heads to this value
        }
        if (inertial_window_ps > 0 && ns.pending_count > 0 &&
            time - ns.pending_time <= inertial_window_ps) {
            // Inertial approximation: the new change supersedes pending ones.
            ++ns.generation;
            ns.pending_count = 0;
            if (value == current) {
                ns.scheduled_value = value;
                return false; // pulse fully swallowed
            }
        }
        ns.scheduled_value = value;
        ns.pending_time = time;
        ++ns.pending_count;
        return true;
    }

    std::shared_ptr<const SimContext> owned_context_; // set by the convenience ctor
    const SimContext* context_;
    const netlist::Netlist* netlist_;
    EventSimOptions options_;

    std::vector<std::uint8_t> values_;
    std::vector<NetSched> sched_; // per-net scheduler state

    TimingWheel wheel_;

    /// Cells to evaluate at the current timestamp, written by index. Sized
    /// once to the fanout CSR entry count, which bounds every timestamp's
    /// list: a net gets at most one event per timestamp (all evaluations of
    /// its driver at one time step see the same values), so each net's
    /// fanout row is appended at most once per timestamp.
    std::vector<netlist::CellId> touched_;
    KernelStats stats_;
    std::vector<std::uint64_t> transition_count_;
    std::vector<double> charge_per_net_;
    bool sum_internal_ = false;         ///< see set_internal_charge_sum
    double cycle_internal_charge_ = 0.0; ///< last apply only


    /// The current cycle's input vector pair (u = steady state before
    /// apply, v = the applied vector), captured so a budget-exceeded fault
    /// can name the exact transition to replay. Plain integer stores — no
    /// allocation on the apply hot path.
    std::uint64_t cycle_u_bits_ = 0;
    std::uint64_t cycle_v_bits_ = 0;

    bool initialized_ = false;
};

} // namespace hdpm::sim

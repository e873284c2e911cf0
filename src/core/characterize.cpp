#include "core/characterize.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/model_library.hpp"
#include "sim/batched.hpp"
#include "sim/sim_context.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/file_io.hpp"
#include "util/linalg.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdpm::core {

using util::BitVec;
using util::Rng;

namespace {

/// A uniformly random mask of exactly @p bits set bits out of @p m
/// (partial Fisher–Yates over bit positions).
BitVec random_mask(int m, int bits, Rng& rng, std::vector<int>& scratch)
{
    scratch.resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
        scratch[static_cast<std::size_t>(i)] = i;
    }
    BitVec mask{m};
    for (int i = 0; i < bits; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(m - 1)));
        std::swap(scratch[static_cast<std::size_t>(i)], scratch[j]);
        mask.set(scratch[static_cast<std::size_t>(i)], true);
    }
    return mask;
}

BitVec random_vector(int m, Rng& rng)
{
    return BitVec{m, rng.next_u64()};
}

/// Zero-cluster geometry shared by fitting and the EnhancedHdModel itself.
int clusters_for(int m, int hd, int zero_clusters)
{
    const int levels = m - hd + 1;
    return zero_clusters == 0 ? levels : std::min(zero_clusters, levels);
}

int cluster_index(int m, int hd, int zeros, int zero_clusters)
{
    const int levels = m - hd + 1;
    const int clusters = clusters_for(m, hd, zero_clusters);
    if (clusters == levels) {
        return zeros;
    }
    return std::min(clusters - 1, zeros * clusters / levels);
}

/// Convergence monitor over per-class running means.
class ConvergenceMonitor {
public:
    explicit ConvergenceMonitor(std::size_t num_classes)
        : sum_(num_classes, 0.0), count_(num_classes, 0), snapshot_(num_classes, 0.0)
    {
    }

    void add(std::size_t cls, double q)
    {
        sum_[cls] += q;
        ++count_[cls];
    }

    /// Max relative drift of populated class means since the last call;
    /// takes a new snapshot.
    double drift_and_snapshot()
    {
        double max_drift = 0.0;
        for (std::size_t i = 0; i < sum_.size(); ++i) {
            if (count_[i] == 0) {
                continue;
            }
            const double mean = sum_[i] / static_cast<double>(count_[i]);
            if (snapshot_[i] > 0.0) {
                max_drift = std::max(max_drift,
                                     std::abs(mean - snapshot_[i]) / snapshot_[i]);
            } else {
                max_drift = 1.0; // newly populated class: not converged yet
            }
            snapshot_[i] = mean;
        }
        return max_drift;
    }

private:
    std::vector<double> sum_;
    std::vector<std::size_t> count_;
    std::vector<double> snapshot_;
};

} // namespace

const char* char_backend_name(CharBackend backend) noexcept
{
    return backend == CharBackend::PowerEmulation ? "power-emulation" : "event-kernel";
}

Characterizer::Characterizer(const gate::TechLibrary& library,
                             sim::EventSimOptions sim_options)
    : library_(&library), sim_options_(sim_options)
{
}

namespace {

/// One shard's deterministic stimulus stream, factored out of the shard
/// runners so the event kernel, the power-emulation backend, and the
/// calibration passes all draw *identical* (u, v) sequences for a given
/// (seed, shard): same Rng seeding, same consumption order, same
/// stratification cycles.
class StimulusStream {
public:
    StimulusStream(int m, StimulusMode mode, std::uint64_t seed, std::uint64_t shard)
        : m_(m), mode_(mode), rng_(seed ^ util::splitmix64(shard))
    {
        hd_cycle_.resize(static_cast<std::size_t>(m));
        for (int i = 0; i < m; ++i) {
            hd_cycle_[static_cast<std::size_t>(i)] = i + 1;
        }
        rng_.shuffle(hd_cycle_);
        if (mode == StimulusMode::StratifiedPairs) {
            for (int hd = 1; hd <= m; ++hd) {
                for (int z = 0; z <= m - hd; ++z) {
                    class_cycle_.emplace_back(hd, z);
                }
            }
            rng_.shuffle(class_cycle_);
        }
        current_ = random_vector(m, rng_);
        stable_.reserve(static_cast<std::size_t>(m));
    }

    /// Chain modes: the current chain head (the start vector before the
    /// first chain_next() call).
    [[nodiscard]] const BitVec& current() const noexcept { return current_; }

    /// Pairs mode: generate the next stratified (u, v) pair — u with the
    /// prescribed stable-zero layout, v = u ^ mask — and return its
    /// (hd, stable-zeros) class.
    std::pair<int, int> next_pair(BitVec& u, BitVec& v)
    {
        const std::pair<int, int> cls = class_cycle_[class_cursor_];
        class_cursor_ = (class_cursor_ + 1) % class_cycle_.size();
        const auto [hd, zeros] = cls;
        const BitVec mask = random_mask(m_, hd, rng_, scratch_);
        u = BitVec{m_};
        // Positions outside the mask: exactly `zeros` of them are 0.
        stable_.clear();
        for (int i = 0; i < m_; ++i) {
            if (!mask.get(i)) {
                stable_.push_back(i);
            }
        }
        rng_.shuffle(stable_);
        for (std::size_t s = 0; s < stable_.size(); ++s) {
            u.set(stable_[s], s >= static_cast<std::size_t>(zeros));
        }
        for (int i = 0; i < m_; ++i) {
            if (mask.get(i)) {
                u.set(i, rng_.bernoulli(0.5));
            }
        }
        v = u ^ mask;
        return cls;
    }

    /// Chain modes: advance the chain to the next vector that differs from
    /// the head and return it (the previous head is current() before the
    /// call). Hd = 0 steps carry no class information; the head still
    /// advances through them, so every consumer skips the same steps.
    BitVec chain_next()
    {
        for (;;) {
            BitVec next{m_};
            if (mode_ == StimulusMode::RandomChain) {
                next = random_vector(m_, rng_);
            } else {
                const int hd = hd_cycle_[hd_cursor_];
                hd_cursor_ = (hd_cursor_ + 1) % hd_cycle_.size();
                if (hd_cursor_ == 0) {
                    rng_.shuffle(hd_cycle_);
                }
                next = current_ ^ random_mask(m_, hd, rng_, scratch_);
            }
            const bool moved = BitVec::hamming_distance(current_, next) != 0;
            current_ = next;
            if (moved) {
                return next;
            }
        }
    }

private:
    int m_;
    StimulusMode mode_;
    Rng rng_;
    std::vector<int> scratch_; // random_mask position pool
    std::vector<int> stable_;  // stable-position pool, reused per pair
    std::vector<int> hd_cycle_;
    std::size_t hd_cursor_ = 0;
    std::vector<std::pair<int, int>> class_cycle_; // (hd, zeros), pairs mode
    std::size_t class_cursor_ = 0;
    BitVec current_;
};

/// The record of chain step previous → next, its charge still unscored.
CharacterizationRecord chain_record(const BitVec& previous, const BitVec& next)
{
    return {BitVec::hamming_distance(previous, next),
            BitVec::stable_zeros(previous, next), 0.0, (previous ^ next).raw()};
}

constexpr std::size_t kLanes = static_cast<std::size_t>(sim::BatchedEvaluator::kLanes);

/// Calibration shard ids live in their own half of the 64-bit shard space,
/// so `seed ^ splitmix64(id)` can never collide with a measurement shard's
/// stimulus stream.
constexpr std::uint64_t kCalibrationShardBase = std::uint64_t{1} << 63;

/// One simulated shard of a run: K index-aligned record blocks (one per
/// corner) plus the simulation counters behind them.
struct SweepShard {
    std::vector<std::vector<CharacterizationRecord>> blocks;
    std::uint64_t sim_transitions = 0;  ///< net toggles (event: incl. glitches)
    std::uint64_t warmup_vectors = 0;   ///< pairs-mode warm-up vectors settled
    std::uint64_t warmup_batches = 0;   ///< 64-lane batched settle passes
    std::uint64_t emulation_passes = 0; ///< 64-lane zero-delay settle passes
    sim::KernelStats kernel;            ///< scheduler counters of the shard's simulator
};

struct CalibrationTotals;

/// Per-net scoring weights of one timing class at its class-nominal
/// corner, with the internal-energy part of each (gate::ChargeLaw's q and
/// q_int), whose sums over a transition's toggles are the class's (Q,
/// Q_int) for SweepPlan::derive. internal is empty when no corner of the
/// class has a temperature term.
struct ClassWeights {
    std::vector<double> charge;
    std::vector<double> internal;
};

/// Everything one characterization run needs, built once and shared
/// read-only by every shard. Every run is a sweep over a corner list —
/// options.corners, or the one-corner list {options.corner} of a
/// single-corner run — so collect_records, collect_records_corners and
/// ShardRunner all run on this one plan.
///
/// Only a load class changes delays, so the plan simulates and calibrates
/// once per timing class, at the class-nominal corner, and derives every
/// (Vdd, T) corner of the class from those charges by its charge law.
struct SweepPlan {
    /// The plan with its uncalibrated base weights; a plan with calibration
    /// pieces is complete once fit() has folded their totals in.
    SweepPlan(const dp::DatapathModule& module, const CharacterizationOptions& options,
              const gate::TechLibrary& library, const sim::EventSimOptions& sim_options);

    /// Fit the weights from the calibration totals of every piece.
    void fit(const CalibrationTotals& cal);

    /// Simulate shard @p shard (past the ShardException fault hook) and
    /// return its blocks; the shard's failure propagates. @p tick is the
    /// mid-shard heartbeat (ShardRunner::TickFn).
    [[nodiscard]] SweepShard run(std::size_t shard,
                                 const std::function<void()>& tick = {}) const;

    /// The one derivation of both backends: append @p rec to the block of
    /// every corner k of timing class @p c, charged laws[k].apply(charge,
    /// internal) from the class's (Q, Q_int) of the transition.
    void derive(std::size_t c, CharacterizationRecord rec, double charge, double internal,
                SweepShard& out) const
    {
        for (const std::size_t k : classes[c]) {
            rec.charge_fc = laws[k].apply(charge, internal);
            out.blocks[k].push_back(rec);
        }
    }

    /// derive() every class of an emulation plan from @p sum(set): the
    /// transition's toggle-weighted sum over sets[set].
    template <typename Sum>
    void derive_weighted(const CharacterizationRecord& rec, const Sum& sum,
                         SweepShard& out) const
    {
        std::size_t set = 0;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            const double charge = sum(set++);
            derive(c, rec, charge, class_weights[c].internal.empty() ? 0.0 : sum(set++), out);
        }
    }

    /// Some corner of timing class @p c needs the internal charge Q_int
    /// (its law has a temperature term).
    [[nodiscard]] bool has_internal(std::size_t c) const
    {
        return std::ranges::any_of(classes[c], [&](std::size_t k) {
            return laws[k].internal_excess != 0.0;
        });
    }

    [[nodiscard]] std::size_t corners() const noexcept { return laws.size(); }
    [[nodiscard]] bool zero_delay() const noexcept
    {
        return options.backend == CharBackend::PowerEmulation;
    }
    [[nodiscard]] std::size_t nets() const noexcept
    {
        return contexts[0]->netlist().num_nets();
    }

    const CharacterizationOptions& options;
    sim::EventSimOptions sim_options;
    int m;
    StimulusMode mode;
    /// Fixed shard geometry: the stimulus plan depends on (seed,
    /// shard_size, max_transitions) only — never on the thread count.
    std::size_t shard_size;
    std::size_t num_shards;
    /// The corner list's timing classes (corner_classes(options)).
    std::vector<std::vector<std::size_t>> classes;
    /// One immutable context (electrical view, fanout CSR, topo order) per
    /// timing class, shared read-only by every shard's simulators: the
    /// class-nominal library (the load class at native supply and 25 °C),
    /// or the base library itself for a native single-corner run.
    std::vector<std::unique_ptr<sim::SimContext>> contexts;
    /// Per corner: its charge law relative to its class's context (the
    /// identity for a native single-corner run).
    std::vector<gate::ChargeLaw> laws;
    /// The calibration's pieces (calibration_pieces(options)).
    std::vector<CalibrationPiece> pieces;
    /// Power emulation: per timing class, its class-nominal weights,
    /// glitch-corrected by fit(). Empty for the event kernel, which
    /// simulates every class.
    std::vector<ClassWeights> class_weights;
    /// The weight sets shards score, spans into class_weights: per class,
    /// its charge weights, then its internal ones if any.
    std::vector<std::span<const double>> sets;
    std::uint64_t calibration_pairs = 0; ///< emulation calibration, all classes
    double calibration_scale = 1.0;      ///< class 0's fitted residual scale
};

/// Event-kernel shard: simulate exactly @p count transitions of shard
/// @p shard. Each shard is a self-contained stimulus stream — its own Rng
/// (seeded seed^splitmix64(shard)), stratification cycles and start vector,
/// and its own EventSimulators over the shared immutable contexts — so
/// nothing here depends on which thread runs it or how many run
/// concurrently: that is the whole determinism argument.
///
/// Each timing class has its own simulator at its class-nominal corner,
/// and all of them run in lockstep on the shard's one stimulus draw. A
/// class takes (Q, Q_int) from its own cycle (its charge and
/// sim::EventSimulator::cycle_internal_charge_fc), and SweepPlan::derive
/// scores every corner of the class from them: the arithmetic an
/// independent run at that corner performs, so every corner's block is
/// bit-identical to it.
void run_event_shard(const SweepPlan& plan, std::size_t shard, std::size_t count,
                     const std::function<void()>& tick, SweepShard& out)
{
    const std::vector<CharacterizationRecord>& scored = out.blocks[0];

    StimulusStream stimulus{plan.m, plan.mode, plan.options.seed, shard};
    std::vector<sim::EventSimulator> simulators;
    simulators.reserve(plan.classes.size());
    for (std::size_t c = 0; c < plan.classes.size(); ++c) {
        simulators.emplace_back(*plan.contexts[c], plan.sim_options);
        simulators.back().set_internal_charge_sum(plan.has_internal(c));
    }

    // Apply one transition to every class's simulator through @p apply
    // and derive the class's corners from its cycle.
    const auto push = [&](const CharacterizationRecord& rec, const auto& apply) {
        for (std::size_t c = 0; c < simulators.size(); ++c) {
            const sim::CycleResult cycle = apply(simulators[c]);
            plan.derive(c, rec, cycle.charge_fc, simulators[c].cycle_internal_charge_fc(),
                        out);
            out.sim_transitions += cycle.transitions;
        }
    };

    if (plan.mode == StimulusMode::StratifiedPairs) {
        // Stimulus is generated in blocks of up to kLanes (u, v) pairs into
        // flat reusable arenas, then all warm-up vectors of a block settle
        // in one word-parallel BatchedEvaluator pass (borrowing class 0's
        // compiled view) and each lane is scattered into every class's
        // event simulator via load_state before the timed apply: zero-delay
        // values do not depend on the corner. RNG consumption order is
        // identical to per-record generation, and the zero-delay fixpoint
        // of u is unique, so each record is bit-identical to an
        // initialize(u) + apply(v) pair (tests/event_kernel_test.cpp,
        // LoadState.MatchesInitialize). The loop body performs no heap
        // allocation in steady state (tests/steady_alloc_test.cpp).
        sim::BatchedEvaluator evaluator{*plan.contexts[0]};
        std::vector<std::uint8_t> lane_values(plan.nets());
        std::array<BitVec, kLanes> u_block;
        std::array<BitVec, kLanes> v_block;
        std::array<std::pair<int, int>, kLanes> cls_block; // (hd, zeros)

        while (scored.size() < count) {
            if (tick) {
                tick(); // mid-shard heartbeat hook, once per 64-pair batch
            }
            const std::size_t block = std::min(kLanes, count - scored.size());
            for (std::size_t j = 0; j < block; ++j) {
                cls_block[j] = stimulus.next_pair(u_block[j], v_block[j]);
            }
            evaluator.settle({u_block.data(), block});
            ++out.warmup_batches;
            out.warmup_vectors += block;
            for (std::size_t j = 0; j < block; ++j) {
                evaluator.export_lane(static_cast<int>(j), lane_values);
                push({cls_block[j].first, cls_block[j].second, 0.0,
                      (u_block[j] ^ v_block[j]).raw()},
                     [&](sim::EventSimulator& simulator) {
                         simulator.load_state(u_block[j], lane_values);
                         return simulator.apply(v_block[j]);
                     });
            }
        }
    } else {
        for (sim::EventSimulator& simulator : simulators) {
            simulator.initialize(stimulus.current());
        }
        while (scored.size() < count) {
            if (tick && scored.size() % 64 == 0) {
                tick(); // mid-shard heartbeat hook, every 64 chain transitions
            }
            const BitVec previous = stimulus.current();
            const BitVec next = stimulus.chain_next();
            push(chain_record(previous, next),
                 [&](sim::EventSimulator& simulator) { return simulator.apply(next); });
        }
    }
    for (const sim::EventSimulator& simulator : simulators) {
        out.kernel.events_processed += simulator.kernel_stats().events_processed;
        out.kernel.max_queue_depth =
            std::max(out.kernel.max_queue_depth, simulator.kernel_stats().max_queue_depth);
    }
}

/// Power-emulation shard: the *exact* stimulus stream run_event_shard
/// draws for the same (seed, shard), settled word-parallel instead of
/// event by event — no event simulator is constructed at all, which is the
/// backend's whole speed argument. Zero-delay toggles are exactly
/// corner-invariant, so one settle scores every timing class: a class's
/// (Q, Q_int) are toggle-weighted sums of its glitch-corrected class
/// weights, one weighted pass plus one internal pass for a class with a
/// temperature corner, 64 pairs per settle_pairs call in pairs mode, 63
/// transitions per settle pass in chain modes. Each set accumulates in
/// ascending net order and SweepPlan::derive scores the corners, so every
/// corner's block is bit-identical to a one-corner run at that corner.
void run_emulation_shard(const SweepPlan& plan, std::size_t shard, std::size_t count,
                         const std::function<void()>& tick, SweepShard& out)
{
    StimulusStream stimulus{plan.m, plan.mode, plan.options.seed, shard};
    sim::BatchedEvaluator evaluator{*plan.contexts[0]};

    if (plan.mode == StimulusMode::StratifiedPairs) {
        std::array<BitVec, kLanes> u_block;
        std::array<BitVec, kLanes> v_block;
        std::array<std::pair<int, int>, kLanes> cls_block; // (hd, zeros)
        std::vector<std::array<double, kLanes>> charges(plan.sets.size());

        while (out.blocks[0].size() < count) {
            if (tick) {
                tick(); // mid-shard heartbeat hook, once per 64-pair batch
            }
            const std::size_t block = std::min(kLanes, count - out.blocks[0].size());
            for (std::size_t j = 0; j < block; ++j) {
                cls_block[j] = stimulus.next_pair(u_block[j], v_block[j]);
            }
            evaluator.settle_pairs({u_block.data(), block}, {v_block.data(), block});
            out.emulation_passes += 2; // one settle per pair side
            for (std::size_t set = 0; set < plan.sets.size(); ++set) {
                evaluator.weighted_pair_charges(plan.sets[set], {charges[set].data(), block});
            }
            for (const std::uint8_t toggles : evaluator.toggle_counts_per_net()) {
                out.sim_transitions += toggles;
            }
            for (std::size_t j = 0; j < block; ++j) {
                plan.derive_weighted({cls_block[j].first, cls_block[j].second, 0.0,
                                      (u_block[j] ^ v_block[j]).raw()},
                                     [&](std::size_t set) { return charges[set][j]; }, out);
            }
        }
        return;
    }

    // Chain modes: materialize the shard's chain (Hd = 0 steps are already
    // dropped — identical endpoints settle identically, so removing the
    // duplicate vector leaves every kept adjacent pair and its zero-delay
    // charge unchanged), then score it with the windowed weighted counter.
    std::vector<BitVec> chain;
    chain.reserve(count + 1);
    chain.push_back(stimulus.current());
    while (chain.size() <= count) {
        if (tick && (chain.size() - 1) % 64 == 0) {
            tick();
        }
        chain.push_back(stimulus.chain_next());
    }
    if (tick) {
        tick();
    }

    std::vector<std::vector<double>> charges(plan.sets.size());
    std::vector<std::uint64_t> toggles;
    evaluator.count_weighted_toggles(chain, plan.sets, charges, toggles);
    out.emulation_passes += (chain.size() - 2) / (kLanes - 1) + 1;
    for (std::size_t i = 0; i < count; ++i) {
        plan.derive_weighted(chain_record(chain[i], chain[i + 1]),
                             [&](std::size_t set) { return charges[set][i]; }, out);
        out.sim_transitions += toggles[i];
    }
}

/// Per-net base charge per toggle under the event kernel's accounting, and
/// its internal part: cell outputs always draw their edge charge, primary
/// inputs only when the physics counts input charge (with no internal
/// part), and nets nothing drives never toggle.
ClassWeights base_charge_weights(const sim::SimContext& context,
                                 const sim::EventSimOptions& sim_options, bool with_internal)
{
    const std::size_t nets = context.netlist().num_nets();
    ClassWeights weights{std::vector<double>(nets, 0.0),
                         std::vector<double>(with_internal ? nets : 0, 0.0)};
    for (netlist::NetId net = 0; net < nets; ++net) {
        if (context.is_cell_output(net)) {
            weights.charge[net] = context.edge_charge_fc(net);
            if (with_internal) {
                weights.internal[net] = context.internal_charges_fc()[net];
            }
        }
    }
    if (sim_options.count_input_charge) {
        for (const netlist::NetId pi : context.netlist().primary_inputs()) {
            weights.charge[pi] = context.edge_charge_fc(pi);
        }
    }
    return weights;
}

/// The emulation glitch-correction fit of one timing class from its
/// calibration shards: per shard, the zero-delay per-net toggles @p scored
/// the weights score, the event kernel's per-net toggles @p reference over
/// the same stimulus, and the event charges @p charges of its transitions,
/// whose sum the scored total should reproduce. Per cell output that the
/// scored toggles reach at all, fold the toggle ratio (reference toggles /
/// scored toggles — glitches multiply a net's toggle count but never its
/// per-toggle charge) into @p class_weights; then fit one residual scale
/// with util::least_squares through the origin over the per-shard
/// (corrected scored charge, reference charge) pairs, which absorbs charge
/// on nets the scored toggles never reach, and fold it in too. Ratios and
/// scale apply to the internal parts alike, so the corrected weights keep
/// the charge law. Shards and nets are summed in order, so the fit is
/// deterministic. Returns the scale.
double fit_toggle_correction(const sim::SimContext& context, ClassWeights& class_weights,
                             const std::vector<std::vector<std::uint64_t>>& scored,
                             const std::vector<std::vector<std::uint64_t>>& reference,
                             const std::vector<std::vector<double>>& charges)
{
    std::vector<double>& weights = class_weights.charge;
    std::vector<double>& internal = class_weights.internal;
    const std::size_t nets = weights.size();
    const std::size_t shards = scored.size();
    std::vector<std::uint64_t> scored_total(nets, 0);
    std::vector<std::uint64_t> reference_total(nets, 0);
    for (std::size_t s = 0; s < shards; ++s) {
        for (std::size_t net = 0; net < nets; ++net) {
            scored_total[net] += scored[s][net];
            reference_total[net] += reference[s][net];
        }
    }
    // Primary inputs never glitch (their ratio is exactly 1 by
    // construction), and a cell output the scored toggles never reach
    // contributes no charge for a factor to scale — the residual fit
    // absorbs its charge.
    for (netlist::NetId net = 0; net < nets; ++net) {
        if (context.is_cell_output(net) && scored_total[net] > 0) {
            const double ratio = static_cast<double>(reference_total[net]) /
                                 static_cast<double>(scored_total[net]);
            weights[net] *= ratio;
            if (!internal.empty()) {
                internal[net] *= ratio;
            }
        }
    }

    util::Matrix a{shards, 1};
    std::vector<double> b(shards, 0.0);
    double corrected_total = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
        double corrected = 0.0;
        for (std::size_t net = 0; net < nets; ++net) {
            corrected += weights[net] * static_cast<double>(scored[s][net]);
        }
        a.at(s, 0) = corrected;
        b[s] = std::accumulate(charges[s].begin(), charges[s].end(), 0.0);
        corrected_total += corrected;
    }
    double scale = 1.0;
    if (corrected_total > 0.0) {
        const std::vector<double> fit = util::least_squares(a, b);
        if (std::isfinite(fit[0]) && fit[0] > 0.0) {
            scale = fit[0];
        }
    }
    for (double& weight : weights) {
        weight *= scale;
    }
    for (double& weight : internal) {
        weight *= scale;
    }
    return scale;
}

/// Run transitions [first, first + count) of @p stimulus — one piece of
/// @p plan, the span of one 64-lane settle: up to 64 pairs, or up to 63
/// chain transitions (one 64-vector window of count_toggles' boundary
/// contract) — through a fresh event simulator at the class-nominal corner
/// of the piece's timing class, and, in class 0, through one zero-delay
/// settle. @p stimulus holds the piece's shard from
/// transition 0 on (the shard's stream is sequential).
///
/// A chain piece starts with initialize(its first vector). That is exact:
/// after a completed cycle the event kernel rests at the unique zero-delay
/// fixpoint of the applied vector with nothing pending — the state
/// initialize() produces, the same argument load_state() relies on — so
/// cutting a chain into pieces changes no cycle's result
/// (tests/event_kernel_test.cpp pins this). initialize() settles silently,
/// so the simulator's cumulative toggles cover exactly the timed applies.
CalibrationPieceResult simulate_piece(const SweepPlan& plan,
                                      const CalibrationPiece& piece,
                                      const ShardStimulus& stimulus)
{
    const sim::SimContext& context = *plan.contexts[piece.timing_class];
    const std::size_t first = piece.first;
    const std::size_t count = piece.count;
    const bool pairs = stimulus.chain.empty();
    CalibrationPieceResult out;
    out.charges.resize(count);
    {
        sim::EventSimulator simulator{context, plan.sim_options};
        if (pairs) {
            for (std::size_t j = 0; j < count; ++j) {
                simulator.initialize(stimulus.us[first + j]);
                out.charges[j] = simulator.apply(stimulus.vs[first + j]).charge_fc;
            }
        } else {
            simulator.initialize(stimulus.chain[first]);
            for (std::size_t j = 0; j < count; ++j) {
                out.charges[j] = simulator.apply(stimulus.chain[first + j + 1]).charge_fc;
            }
        }
        out.event_toggles = simulator.cumulative_transitions();
    }
    if (piece.timing_class != 0) {
        return out;
    }

    sim::BatchedEvaluator evaluator{context};
    if (pairs) {
        evaluator.settle_pairs({stimulus.us.data() + first, count},
                               {stimulus.vs.data() + first, count});
        const auto toggles = evaluator.toggle_counts_per_net();
        out.zero_toggles.assign(toggles.begin(), toggles.end());
    } else {
        evaluator.settle({stimulus.chain.data() + first, count + 1});
        const std::uint64_t pair_mask =
            count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
        const auto words = evaluator.lane_words();
        out.zero_toggles.resize(plan.nets());
        for (std::size_t net = 0; net < out.zero_toggles.size(); ++net) {
            out.zero_toggles[net] = static_cast<std::uint64_t>(
                std::popcount((words[net] ^ (words[net] >> 1)) & pair_mask));
        }
    }
    return out;
}

/// The calibration's per-shard totals of an emulation plan: the event
/// kernel's per-net toggles and per-transition charges per timing class, at
/// the class-nominal corner, and the zero-delay toggles (corner-invariant,
/// so once).
struct CalibrationTotals {
    /// All-zero totals shaped for the pieces of @p plan (which has some).
    explicit CalibrationTotals(const SweepPlan& plan);

    /// Add the result of piece @p index of @p plan: the one reduction of
    /// in-process and fleet calibration alike. Toggles are integer sums and
    /// each transition's charge has its own slot, summed per shard in
    /// stimulus order by the fit, so the totals are the same whatever order
    /// pieces are added in. Throws PreconditionError when the result does
    /// not have its piece's shape.
    void add(const SweepPlan& plan, std::size_t index,
             const CalibrationPieceResult& result);

    std::vector<std::vector<std::vector<std::uint64_t>>> event_toggles; ///< [class][shard][net]
    std::vector<std::vector<std::vector<double>>> charges; ///< [class][shard][transition]
    std::vector<std::vector<std::uint64_t>> zero_toggles;  ///< [shard][net]
};

CalibrationTotals::CalibrationTotals(const SweepPlan& plan)
{
    const std::size_t nets = plan.nets();
    const std::size_t shards = plan.pieces.back().shard + 1;
    event_toggles.assign(plan.classes.size(),
                         std::vector<std::vector<std::uint64_t>>(
                             shards, std::vector<std::uint64_t>(nets, 0)));
    charges.assign(plan.classes.size(), std::vector<std::vector<double>>(shards));
    for (const CalibrationPiece& piece : plan.pieces) {
        charges[piece.timing_class][piece.shard].resize(piece.first + piece.count);
    }
    zero_toggles.assign(shards, std::vector<std::uint64_t>(nets, 0));
}

void CalibrationTotals::add(const SweepPlan& plan, const std::size_t index,
                            const CalibrationPieceResult& result)
{
    const CalibrationPiece& piece = plan.pieces[index];
    const std::size_t nets = plan.nets();
    const bool zero_delay = piece.timing_class == 0;
    HDPM_REQUIRE(result.charges.size() == piece.count &&
                     result.event_toggles.size() == nets &&
                     result.zero_toggles.size() == (zero_delay ? nets : 0),
                 "calibration piece ", index, " result does not have the piece's shape");
    std::ranges::copy(result.charges,
                      charges[piece.timing_class][piece.shard].begin() +
                          static_cast<std::ptrdiff_t>(piece.first));
    std::vector<std::uint64_t>& event = event_toggles[piece.timing_class][piece.shard];
    for (std::size_t net = 0; net < nets; ++net) {
        event[net] += result.event_toggles[net];
    }
    if (zero_delay) {
        std::vector<std::uint64_t>& zero = zero_toggles[piece.shard];
        for (std::size_t net = 0; net < nets; ++net) {
            zero[net] += result.zero_toggles[net];
        }
    }
}

/// Run the calibration of @p plan on @p pool: every piece — each (class,
/// shard, piece) of the subsample, shards of plan.shard_size with ids
/// offset by kCalibrationShardBase — is one task of a single pool map, so
/// even a one-shard calibration spreads over the whole pool. Each shard's
/// stimulus is drawn once (it is corner-invariant). A task adds its piece's
/// result into the totals as soon as it finishes, so at most one result
/// per pool thread is alive.
///
/// The totals are the same in any completion order (CalibrationTotals::add),
/// so the fit is a pure function of the stimulus plan, recomputed
/// identically on a checkpoint resume and from pieces run in other
/// processes (ShardRunner::fit_calibration adds the same results).
CalibrationTotals run_calibration(const SweepPlan& plan, const util::ThreadPool& pool)
{
    CalibrationTotals out{plan};
    const std::vector<std::vector<double>>& shards = out.charges[0];
    const auto stimuli = pool.parallel_map(shards.size(), [&](std::size_t s) {
        return draw_shard_stimulus(plan.m, plan.mode, plan.options.seed,
                                   kCalibrationShardBase + s, shards[s].size());
    });
    std::mutex sums_mutex;
    pool.parallel_for(plan.pieces.size(), [&](std::size_t t) {
        const CalibrationPiece& piece = plan.pieces[t];
        const CalibrationPieceResult result = simulate_piece(plan, piece, stimuli[piece.shard]);
        const std::lock_guard<std::mutex> lock{sums_mutex};
        out.add(plan, t, result);
    });
    return out;
}

/// The timing classes of a plan's corner list (options.corners, or the
/// one-corner list of a single-corner plan): corner indices grouped by load
/// class, classes in order of first appearance and corners in list order,
/// so class 0 starts with corner 0. The corners of one class simulate the
/// identical event stream (timing is a dilation, gate::TechLibrary::at).
std::vector<std::vector<std::size_t>> corner_classes(const CharacterizationOptions& options)
{
    std::vector<std::vector<std::size_t>> classes;
    std::vector<gate::LoadClass> loads;
    for (std::size_t k = 0; k < options.corners.size(); ++k) {
        const gate::LoadClass load = options.corners[k].load_class;
        const auto found = std::ranges::find(loads, load);
        if (found == loads.end()) {
            loads.push_back(load);
            classes.push_back({k});
        } else {
            classes[static_cast<std::size_t>(found - loads.begin())].push_back(k);
        }
    }
    if (classes.empty()) {
        classes.push_back({0}); // a single-corner plan
    }
    return classes;
}

std::size_t plan_shard_size(const CharacterizationOptions& options) noexcept
{
    return options.shard_size != 0 ? options.shard_size : options.batch;
}

SweepPlan::SweepPlan(const dp::DatapathModule& module,
                     const CharacterizationOptions& opts,
                     const gate::TechLibrary& library,
                     const sim::EventSimOptions& sim_opts)
    : options(opts), sim_options(sim_opts), m(module.total_input_bits()),
      mode(options.mode.value_or(StimulusMode::StratifiedChain)),
      shard_size(plan_shard_size(options)), num_shards(0)
{
    HDPM_REQUIRE(m >= 1 && m <= BitVec::kMaxWidth, "module input width out of range");
    HDPM_REQUIRE(options.batch >= 1, "batch must be positive");
    HDPM_REQUIRE(options.max_transitions >= 1, "max_transitions must be positive");
    num_shards = (options.max_transitions + shard_size - 1) / shard_size;
    // The round-up wraps to 0 exactly when it overflows (the wrapped sum is
    // below shard_size), e.g. for a negative budget parsed as unsigned.
    HDPM_REQUIRE(num_shards > 0, "max_transitions ", options.max_transitions,
                 " overflows the shard count at shard size ", shard_size);

    // The plan's corners: the sweep list, or the one corner of a
    // single-corner run (unset: the native library itself).
    std::vector<std::optional<gate::Corner>> list(options.corners.begin(),
                                                  options.corners.end());
    if (list.empty()) {
        list.push_back(options.corner);
    }
    for (const std::optional<gate::Corner>& corner : list) {
        laws.push_back(corner.has_value() ? library.corner_charge_law(*corner)
                                          : gate::ChargeLaw{});
    }
    // A load class simulates at its nominal corner (native supply, 25 °C);
    // SimContext consumes the derived library during construction, so the
    // temporary may die right after.
    classes = corner_classes(options);
    for (const std::vector<std::size_t>& members : classes) {
        const std::optional<gate::Corner>& lead = list[members[0]];
        contexts.push_back(
            lead.has_value()
                ? std::make_unique<sim::SimContext>(module.netlist(),
                                                    library.at({0.0, 25.0, lead->load_class}))
                : std::make_unique<sim::SimContext>(module.netlist(), library));
    }

    // Emulation scores every class through weights; the event kernel
    // simulates them all.
    if (zero_delay()) {
        for (std::size_t c = 0; c < classes.size(); ++c) {
            class_weights.push_back(
                base_charge_weights(*contexts[c], sim_options, has_internal(c)));
        }
        for (const ClassWeights& weights : class_weights) {
            sets.emplace_back(weights.charge);
            if (!weights.internal.empty()) {
                sets.emplace_back(weights.internal);
            }
        }
    }
    pieces = calibration_pieces(options);
}

// Calibration is a pure function of the stimulus plan and corner list (its
// shard ids reuse the sharded seed scheme, offset into their own half of
// the id space), so every process running shards of this plan — and every
// resumed run — fits identical weights; nothing about it needs journaling.
// Only power emulation calibrates. It simulates and fits once per timing
// class, at the class-nominal corner; the class's corners derive their
// charges from the fitted weights' sums. Each class's glitch correction is
// fit_toggle_correction'd from the zero-delay toggles (scored) to its
// event toggles (reference) against its charges.
void SweepPlan::fit(const CalibrationTotals& cal)
{
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const double scale = fit_toggle_correction(*contexts[c], class_weights[c],
                                                   cal.zero_toggles, cal.event_toggles[c],
                                                   cal.charges[c]);
        if (c == 0) {
            calibration_scale = scale;
        }
    }
    calibration_pairs = options.calibration_pairs * classes.size();
}

SweepShard SweepPlan::run(std::size_t shard, const std::function<void()>& tick) const
{
    if (HDPM_FAULT_FIRE(util::FaultPoint::ShardException)) {
        util::FaultContext context;
        context.shard = static_cast<std::int64_t>(shard);
        context.detail = "injected shard failure";
        throw util::FaultError{util::FaultKind::ShardFailed, std::move(context)};
    }
    const std::size_t count =
        std::min(shard_size, options.max_transitions - shard * shard_size);
    SweepShard out;
    out.blocks.resize(corners());
    for (auto& block : out.blocks) {
        block.reserve(count);
    }
    (zero_delay() ? run_emulation_shard : run_event_shard)(*this, shard, count, tick, out);
    return out;
}

/// The resumable shard prefix of the journal at @p path. Only a journal
/// stamped like @p expected (fingerprint, module identity, width, corner
/// count) whose prefix fits the plan's @p num_shards is resumed; anything
/// else is a leftover of some other run and is discarded. A corrupt journal
/// is quarantined, and its surviving whole-block prefix salvaged and
/// republished in its place. Sets @p on_disk when @p path then holds
/// exactly the returned prefix, so the run appends to it. Records the
/// outcome in @p stats.
std::vector<CheckpointShard> resume_journal(const std::filesystem::path& path,
                                            const CharCheckpoint& expected,
                                            std::size_t num_shards, bool& on_disk,
                                            CharRunStats& stats)
{
    on_disk = false;
    {
        // A .tmp sibling is the debris of a run killed mid-publish.
        std::error_code ec;
        std::filesystem::remove(path.string() + ".tmp", ec);
    }
    const auto matches_plan = [&](const CharCheckpoint& loaded) {
        return loaded.fingerprint == expected.fingerprint &&
               loaded.module_key == expected.module_key &&
               loaded.input_bits == expected.input_bits &&
               loaded.corners == expected.corners && loaded.shards.size() <= num_shards;
    };
    try {
        if (auto loaded = load_checkpoint(path)) {
            if (matches_plan(*loaded)) {
                on_disk = true;
                return std::move(loaded->shards);
            }
            stats.checkpoint_discarded = true;
        }
    } catch (const util::FaultError& error) {
        if (error.kind() != util::FaultKind::CheckpointCorrupt) {
            throw;
        }
        // Tolerant second read: a torn tail (the short write of a killed
        // run) still holds every shard block that was appended whole. Keep
        // that prefix — it re-merges bit-identically — and set the damaged
        // file aside as evidence; the tail is re-simulated.
        CheckpointSalvage salvage = salvage_checkpoint(path);
        util::quarantine_file(path);
        stats.checkpoint_discarded = true;
        if (salvage.checkpoint.has_value() && matches_plan(*salvage.checkpoint) &&
            !salvage.checkpoint->shards.empty()) {
            stats.checkpoint_salvaged = true;
            save_checkpoint(path, *salvage.checkpoint);
            on_disk = true;
            return std::move(salvage.checkpoint->shards);
        }
    }
    return {};
}

/// The fingerprint a run's journal is stamped with: the options
/// fingerprint, with a sweep's corner list and the corner-timing stamp
/// folded in (the fingerprint itself ignores options.corners), so a journal
/// never resumes a run over another corner set or corner physics.
std::uint64_t journal_fingerprint(const CharacterizationOptions& options,
                                  const sim::EventSimOptions& sim_options)
{
    std::uint64_t fp = characterization_fingerprint(options, sim_options);
    for (const gate::Corner& corner : options.corners) {
        fp = util::splitmix64(fp ^ std::bit_cast<std::uint64_t>(corner.vdd_v));
        fp = util::splitmix64(fp ^ std::bit_cast<std::uint64_t>(corner.temp_c));
        fp = util::splitmix64(fp ^ static_cast<std::uint64_t>(corner.load_class));
    }
    if (!options.corners.empty()) {
        fp = util::splitmix64(fp ^ kCornerTimingStamp);
    }
    return fp;
}

/// A shard's outcome: its blocks, or the exception it threw (captured so a
/// failing shard never takes its in-flight siblings down with it — the
/// merge loop decides whether to rethrow or degrade).
struct ShardAttempt {
    std::optional<SweepShard> result;
    std::exception_ptr error;
};

/// Thrown from the heartbeat of a shard still in flight once the run has
/// converged, so the shard unwinds instead of finishing records nobody
/// will merge.
struct ShardAbandoned {};

/// The one record-collection pipeline, behind both collect_records (the
/// one-corner list {options.corner}) and collect_records_corners.
///
/// Shards stream through ThreadPool::for_each_ordered: the pool simulates
/// up to 2 × pool.size() shards ahead of the merge cursor while the
/// calling thread merges finished shards in shard order (simulating one
/// itself whenever the next is still in flight) into one ShardMerger per
/// corner — the loop an independent run at that corner runs — so each
/// corner's stopping point and record stream match that run exactly. No
/// worker waits for a merge or a journal publish. The run stops claiming
/// shards once every corner has converged; shards already in flight are
/// abandoned at their next heartbeat (every 64 pairs or transitions) and
/// discarded unmerged, so the join does not wait for them to finish.
///
/// Checkpointing keeps one append-only journal per run: every merged
/// shard becomes one framed block holding all K corners' records, and each
/// publish appends the blocks merged since the last one (the first creates
/// the file atomically). A kill leaves at worst a torn last block; resume
/// replays the longest whole-block prefix. A failed shard is journaled as
/// an empty block (the journal stays a contiguous prefix) and replays as a
/// failure.
std::vector<std::vector<CharacterizationRecord>> collect_sweep(
    const dp::DatapathModule& module, const CharacterizationOptions& options,
    const gate::TechLibrary& library, const sim::EventSimOptions& sim_options)
{
    HDPM_REQUIRE(options.checkpoint_every >= 1, "checkpoint_every must be positive");
    const auto start = std::chrono::steady_clock::now();
    const util::ThreadPool pool{options.threads};
    SweepPlan plan{module, options, library, sim_options};
    if (!plan.pieces.empty()) {
        plan.fit(run_calibration(plan, pool));
    }
    const std::size_t corners = plan.corners();
    const std::string module_key = module_journal_key(module);

    CharRunStats stats;
    stats.threads = pool.size();
    stats.backend = options.backend;
    stats.calibration_pairs = plan.calibration_pairs;
    stats.calibration_scale = plan.calibration_scale;
    stats.corners = options.corners.size();

    std::vector<std::unique_ptr<ShardMerger>> mergers;
    for (std::size_t k = 0; k < corners; ++k) {
        mergers.push_back(std::make_unique<ShardMerger>(plan.m, options));
    }
    const auto all_converged = [&] {
        return std::all_of(mergers.begin(), mergers.end(),
                           [](const auto& merger) { return merger->converged(); });
    };

    std::vector<CheckpointShard> resumed;
    std::optional<CheckpointAppender> journal;
    if (!options.checkpoint.empty()) {
        const CharCheckpoint identity{journal_fingerprint(options, sim_options), module_key,
                                      plan.m, {}, corners};
        bool on_disk = false;
        resumed = resume_journal(options.checkpoint, identity, plan.num_shards, on_disk,
                                 stats);
        journal.emplace(options.checkpoint, identity, on_disk);
    }
    const std::size_t resume_len = resumed.size();

    std::exception_ptr first_failure;
    const auto report_progress = [&] {
        if (options.progress) {
            options.progress(CharProgress{stats.shards, plan.num_shards,
                                          mergers[0]->records().size(),
                                          options.max_transitions});
        }
    };

    // A propagating shard failure is tagged with its location before any
    // further handling, so strict aborts and captured degradations both
    // point at the exact (module, bitwidth, shard) to replay.
    const auto handle_shard_failure = [&](std::size_t shard, std::exception_ptr error) {
        if (first_failure == nullptr) {
            first_failure = error;
        }
        try {
            std::rethrow_exception(error);
        } catch (util::FaultError& fault) {
            fault.context().shard = static_cast<std::int64_t>(shard);
            fault.context().bitwidth = plan.m;
            if (fault.context().component.empty()) {
                fault.context().component = module_key;
            }
            if (options.strict_faults) {
                throw;
            }
            stats.shard_failures.push_back(
                ShardFailure{shard, fault.kind(), fault.what()});
        } catch (const std::exception& e) {
            if (options.strict_faults) {
                throw;
            }
            stats.shard_failures.push_back(
                ShardFailure{shard, util::FaultKind::ShardFailed, e.what()});
        }
    };

    // Replay the journaled prefix through the merge loops (no simulation).
    // Replayed shards pass through the identical ShardMerger path as
    // freshly simulated ones, which is what makes a resumed run reproduce
    // the uninterrupted record stream — the stopping point included — bit
    // for bit. An empty block is a shard the interrupted run failed; it
    // replays as that failure, so the resumed run reports the same
    // degradation.
    for (std::size_t r = 0; r < resume_len && !all_converged(); ++r) {
        const CheckpointShard& block = resumed[r];
        if (block.records.empty()) {
            util::FaultContext context;
            context.detail = "shard failed in the interrupted run this journal resumes";
            handle_shard_failure(block.index, std::make_exception_ptr(util::FaultError{
                                                  util::FaultKind::ShardFailed, context}));
        } else {
            const std::size_t n = block.records.size() / corners;
            for (std::size_t k = 0; k < corners; ++k) {
                mergers[k]->merge(std::span{block.records}.subspan(k * n, n));
            }
            ++stats.shards;
        }
        report_progress();
    }
    resumed = {};
    stats.shards_resumed = stats.shards;
    std::size_t unpublished = 0;

    // Convergence is evaluated over the merged stream at batch boundaries,
    // so the stopping point — like every record before it — is a pure
    // function of the stimulus plan.
    std::atomic<bool> converged{false};
    const auto abandon_if_converged = [&] {
        if (converged.load(std::memory_order_relaxed)) {
            throw ShardAbandoned{};
        }
    };
    const auto simulate = [&](std::size_t i) {
        ShardAttempt attempt;
        try {
            attempt.result = plan.run(resume_len + i, abandon_if_converged);
        } catch (...) {
            attempt.error = std::current_exception();
        }
        return attempt;
    };
    const auto merge = [&](std::size_t i, ShardAttempt& attempt) {
        const std::size_t shard = resume_len + i;
        if (attempt.error != nullptr) {
            handle_shard_failure(shard, attempt.error);
        } else {
            const SweepShard& result = *attempt.result;
            for (std::size_t k = 0; k < corners; ++k) {
                mergers[k]->merge(result.blocks[k]);
            }
            stats.sim_transitions += result.sim_transitions;
            stats.sim_events += result.kernel.events_processed;
            stats.warmup_vectors += result.warmup_vectors;
            stats.warmup_batches += result.warmup_batches;
            stats.emulation_passes += result.emulation_passes;
            stats.max_queue_depth =
                std::max(stats.max_queue_depth, result.kernel.max_queue_depth);
            if (plan.zero_delay()) {
                stats.emulated_pairs += result.blocks[0].size() * corners;
            }
            ++stats.shards;
        }
        if (journal.has_value()) {
            std::span<const std::vector<CharacterizationRecord>> blocks;
            if (attempt.result.has_value()) {
                blocks = attempt.result->blocks;
            }
            journal->add(shard, blocks); // a failed shard journals as an empty block
        }
        ++unpublished;
        report_progress();
        if (all_converged()) {
            converged.store(true, std::memory_order_relaxed);
            return false;
        }
        if (journal.has_value() && unpublished >= options.checkpoint_every) {
            journal->publish();
            unpublished = 0;
            ++stats.checkpoints_published;
        }
        return true;
    };
    // The window holds the pool's shards in flight plus the results the
    // workers finish while the calling thread simulates a shard of its own
    // (up to pool.size() - 1); a smaller one stalls the workers behind
    // that shard.
    if (!all_converged()) {
        pool.for_each_ordered(plan.num_shards - resume_len, 2 * std::size_t{pool.size()},
                              simulate, merge);
    }

    std::vector<std::vector<CharacterizationRecord>> records;
    bool any_records = false;
    for (const auto& merger : mergers) {
        records.push_back(merger->take_records());
        any_records = any_records || !records.back().empty();
    }
    if (!any_records && first_failure != nullptr) {
        // Degraded continuation produced nothing at all — that is not a
        // result, it is the first failure wearing a disguise.
        std::rethrow_exception(first_failure);
    }
    if (journal.has_value()) {
        // The run is complete; the journal has served its purpose.
        std::error_code ec;
        std::filesystem::remove(options.checkpoint, ec);
    }

    if (options.stats != nullptr) {
        stats.collect_wall_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
        stats.events_per_sec = stats.collect_wall_ms > 0.0
                                   ? static_cast<double>(stats.sim_events) /
                                         (stats.collect_wall_ms / 1000.0)
                                   : 0.0;
        stats.records = records[0].size();
        *options.stats = std::move(stats);
    }
    return records;
}

} // namespace

// The checkpoint/fleet journal's module identity: type id plus operand
// widths (one whitespace-free token, e.g. "csa_multiplier_16x16"), so a
// journal can never resume against a different instance that shares m.
std::string module_journal_key(const dp::DatapathModule& module)
{
    std::string key = module.netlist().name();
    for (std::size_t i = 0; i < module.operand_widths().size(); ++i) {
        key += i == 0 ? '_' : 'x';
        key += std::to_string(module.operand_widths()[i]);
    }
    return key;
}

ShardStimulus draw_shard_stimulus(int m, StimulusMode mode, std::uint64_t seed,
                                  std::uint64_t shard, std::size_t count)
{
    ShardStimulus out;
    StimulusStream stimulus{m, mode, seed, shard};
    if (mode == StimulusMode::StratifiedPairs) {
        out.us.resize(count);
        out.vs.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            (void)stimulus.next_pair(out.us[i], out.vs[i]);
        }
    } else {
        out.chain.reserve(count + 1);
        out.chain.push_back(stimulus.current());
        while (out.chain.size() < count + 1) {
            out.chain.push_back(stimulus.chain_next());
        }
    }
    return out;
}

std::vector<CalibrationPiece> calibration_pieces(const CharacterizationOptions& options)
{
    const std::size_t classes = corner_classes(options).size();
    const std::size_t total = options.calibration_pairs;
    if (total == 0 || options.backend == CharBackend::EventKernel) {
        return {};
    }
    const std::size_t shard_size = plan_shard_size(options);
    HDPM_REQUIRE(shard_size >= 1, "shard size must be positive");
    const std::size_t piece =
        options.mode.value_or(StimulusMode::StratifiedChain) == StimulusMode::StratifiedPairs
            ? kLanes
            : kLanes - 1;
    std::vector<CalibrationPiece> pieces;
    for (std::size_t c = 0; c < classes; ++c) {
        for (std::size_t s = 0; s * shard_size < total; ++s) {
            const std::size_t pairs = std::min(shard_size, total - s * shard_size);
            for (std::size_t first = 0; first < pairs; first += piece) {
                pieces.push_back({c, s, first, std::min(piece, pairs - first)});
            }
        }
    }
    return pieces;
}

// ---------------------------------------------------------------------------
// ShardRunner / ShardMerger — the distribution-facing faces of the sharded
// plan. ShardRunner is built on the same SweepPlan (and so the same shard
// runners and calibration) the in-process pipeline schedules, and
// ShardMerger is the merge-and-convergence loop that pipeline itself runs
// on, so "merge worker-journaled blocks in shard order" and "run everything
// in one process" are the same computation by construction.
// ---------------------------------------------------------------------------

struct ShardRunner::Impl {
    Impl(const dp::DatapathModule& module, CharacterizationOptions opts,
         const gate::TechLibrary& library, sim::EventSimOptions sim_options)
        : options(std::move(opts)), plan(module, options, library, sim_options),
          fingerprint(characterization_fingerprint(options, sim_options)),
          module_key(module_journal_key(module)), calibrated(plan.pieces.empty())
    {
    }

    CharacterizationOptions options;
    SweepPlan plan;
    std::uint64_t fingerprint;
    std::string module_key;
    bool calibrated; ///< the weights are final: shards may run
};

ShardRunner::ShardRunner(const dp::DatapathModule& module,
                         CharacterizationOptions options,
                         const gate::TechLibrary& library,
                         sim::EventSimOptions sim_options, Calibration calibration)
{
    HDPM_REQUIRE(options.corners.empty(),
                 "ShardRunner plans are single-corner; sweeps use "
                 "collect_records_corners");
    impl_ = std::make_unique<Impl>(module, std::move(options), library, sim_options);
    if (calibration == Calibration::InProcess && !impl_->calibrated) {
        impl_->plan.fit(
            run_calibration(impl_->plan, util::ThreadPool{impl_->options.threads}));
        impl_->calibrated = true;
    }
}

ShardRunner::~ShardRunner() = default;

std::size_t ShardRunner::num_shards() const noexcept
{
    return impl_->plan.num_shards;
}

std::size_t ShardRunner::shard_size() const noexcept
{
    return impl_->plan.shard_size;
}

int ShardRunner::input_bits() const noexcept
{
    return impl_->plan.m;
}

std::uint64_t ShardRunner::fingerprint() const noexcept
{
    return impl_->fingerprint;
}

const std::string& ShardRunner::module_key() const noexcept
{
    return impl_->module_key;
}

const std::vector<CalibrationPiece>& ShardRunner::calibration_pieces() const noexcept
{
    return impl_->plan.pieces;
}

CalibrationPieceResult ShardRunner::run_calibration_piece(std::size_t index) const
{
    HDPM_REQUIRE(index < impl_->plan.pieces.size(), "calibration piece outside the plan");
    // Only the stimulus prefix the piece ends in is drawn: the shard's
    // stream is sequential.
    const SweepPlan& plan = impl_->plan;
    const CalibrationPiece& piece = plan.pieces[index];
    return simulate_piece(
        plan, piece,
        draw_shard_stimulus(plan.m, plan.mode, plan.options.seed,
                            kCalibrationShardBase + piece.shard, piece.first + piece.count));
}

void ShardRunner::fit_calibration(std::span<const CalibrationPieceResult> results)
{
    HDPM_REQUIRE(!impl_->calibrated, "the runner is already calibrated");
    const SweepPlan& plan = impl_->plan;
    HDPM_REQUIRE(results.size() == plan.pieces.size(), "got ", results.size(),
                 " calibration piece results for ", plan.pieces.size(), " pieces");
    CalibrationTotals totals{plan};
    for (std::size_t i = 0; i < results.size(); ++i) {
        totals.add(plan, i, results[i]);
    }
    impl_->plan.fit(totals);
    impl_->calibrated = true;
}

std::vector<CharacterizationRecord> ShardRunner::run(std::size_t shard,
                                                     const TickFn& tick) const
{
    HDPM_REQUIRE(impl_->calibrated, "fit the calibration pieces before running shards");
    HDPM_REQUIRE(shard < impl_->plan.num_shards, "shard index outside the plan");
    return std::move(impl_->plan.run(shard, tick).blocks[0]);
}

struct ShardMerger::Impl {
    Impl(int input_bits, const CharacterizationOptions& options)
        : monitor(static_cast<std::size_t>(input_bits)), batch(options.batch),
          min_transitions(options.min_transitions), tolerance(options.tolerance)
    {
        HDPM_REQUIRE(input_bits >= 1, "bad input width");
        HDPM_REQUIRE(batch >= 1, "batch must be positive");
        records.reserve(std::min(options.max_transitions, std::size_t{1} << 20));
    }

    ConvergenceMonitor monitor;
    std::size_t batch;
    std::size_t min_transitions;
    double tolerance;
    std::vector<CharacterizationRecord> records;
    std::size_t since_check = 0;
    std::size_t shards_merged = 0;
    bool stop = false;
};

ShardMerger::ShardMerger(int input_bits, const CharacterizationOptions& options)
    : impl_(std::make_unique<Impl>(input_bits, options))
{
}

ShardMerger::~ShardMerger() = default;

bool ShardMerger::merge(std::span<const CharacterizationRecord> block)
{
    Impl& impl = *impl_;
    if (impl.stop) {
        return false; // converged: later blocks are discarded, never merged
    }
    for (const CharacterizationRecord& rec : block) {
        impl.monitor.add(static_cast<std::size_t>(rec.hd - 1), rec.charge_fc);
        impl.records.push_back(rec);
        if (++impl.since_check >= impl.batch) {
            impl.since_check = 0;
            const double drift = impl.monitor.drift_and_snapshot();
            if (impl.records.size() >= impl.min_transitions &&
                drift < impl.tolerance) {
                impl.stop = true; // stopping mid-block is part of the contract
                break;
            }
        }
    }
    ++impl.shards_merged;
    return !impl.stop;
}

bool ShardMerger::converged() const noexcept
{
    return impl_->stop;
}

std::size_t ShardMerger::shards_merged() const noexcept
{
    return impl_->shards_merged;
}

const std::vector<CharacterizationRecord>& ShardMerger::records() const noexcept
{
    return impl_->records;
}

std::vector<CharacterizationRecord> ShardMerger::take_records()
{
    return std::move(impl_->records);
}


std::vector<CharacterizationRecord> Characterizer::collect_records(
    const dp::DatapathModule& module, const CharacterizationOptions& options) const
{
    HDPM_REQUIRE(options.corners.empty(),
                 "multi-corner sweeps go through collect_records_corners");
    return std::move(collect_sweep(module, options, *library_, sim_options_)[0]);
}

std::vector<std::vector<CharacterizationRecord>> Characterizer::collect_records_corners(
    const dp::DatapathModule& module, const CharacterizationOptions& options) const
{
    HDPM_REQUIRE(!options.corners.empty(), "corner sweep needs at least one corner");
    HDPM_REQUIRE(!options.corner.has_value(),
                 "options.corner and options.corners are mutually exclusive");
    return collect_sweep(module, options, *library_, sim_options_);
}

HdModel fit_basic_model(int input_bits, std::span<const CharacterizationRecord> records)
{
    HDPM_REQUIRE(input_bits >= 1, "bad input width");
    // An all-zero model from zero records would pass for a characterized
    // one in every cache it reaches.
    HDPM_REQUIRE(!records.empty(), "cannot fit a model from zero records");
    const auto m = static_cast<std::size_t>(input_bits);
    std::vector<double> sum(m, 0.0);
    std::vector<std::size_t> count(m, 0);
    for (const auto& rec : records) {
        HDPM_REQUIRE(rec.hd >= 1 && rec.hd <= input_bits, "record Hd out of range");
        sum[static_cast<std::size_t>(rec.hd - 1)] += rec.charge_fc;
        ++count[static_cast<std::size_t>(rec.hd - 1)];
    }
    std::vector<double> p(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
        if (count[i] > 0) {
            p[i] = sum[i] / static_cast<double>(count[i]);
        }
    }
    // Second pass: ε_i = mean |Q - p_i| / p_i (eq. 5).
    std::vector<double> dev(m, 0.0);
    for (const auto& rec : records) {
        const auto i = static_cast<std::size_t>(rec.hd - 1);
        if (p[i] > 0.0) {
            dev[i] += std::abs(rec.charge_fc - p[i]) / p[i];
        }
    }
    for (std::size_t i = 0; i < m; ++i) {
        if (count[i] > 0) {
            dev[i] /= static_cast<double>(count[i]);
        }
    }
    return HdModel{input_bits, std::move(p), std::move(dev), std::move(count)};
}

EnhancedHdModel fit_enhanced_model(int input_bits, int zero_clusters,
                                   std::span<const CharacterizationRecord> records)
{
    HDPM_REQUIRE(input_bits >= 1, "bad input width");
    HdModel fallback = fit_basic_model(input_bits, records);

    std::vector<std::vector<double>> sum(static_cast<std::size_t>(input_bits));
    std::vector<std::vector<std::size_t>> count(static_cast<std::size_t>(input_bits));
    for (int hd = 1; hd <= input_bits; ++hd) {
        const auto clusters =
            static_cast<std::size_t>(clusters_for(input_bits, hd, zero_clusters));
        sum[static_cast<std::size_t>(hd - 1)].assign(clusters, 0.0);
        count[static_cast<std::size_t>(hd - 1)].assign(clusters, 0);
    }
    for (const auto& rec : records) {
        const auto row = static_cast<std::size_t>(rec.hd - 1);
        const auto c = static_cast<std::size_t>(
            cluster_index(input_bits, rec.hd, rec.stable_zeros, zero_clusters));
        sum[row][c] += rec.charge_fc;
        ++count[row][c];
    }

    std::vector<std::vector<double>> p(sum.size());
    std::vector<std::vector<double>> dev(sum.size());
    for (std::size_t row = 0; row < sum.size(); ++row) {
        p[row].assign(sum[row].size(), 0.0);
        dev[row].assign(sum[row].size(), 0.0);
        for (std::size_t c = 0; c < sum[row].size(); ++c) {
            if (count[row][c] > 0) {
                p[row][c] = sum[row][c] / static_cast<double>(count[row][c]);
            }
        }
    }
    for (const auto& rec : records) {
        const auto row = static_cast<std::size_t>(rec.hd - 1);
        const auto c = static_cast<std::size_t>(
            cluster_index(input_bits, rec.hd, rec.stable_zeros, zero_clusters));
        if (p[row][c] > 0.0) {
            dev[row][c] += std::abs(rec.charge_fc - p[row][c]) / p[row][c];
        }
    }
    for (std::size_t row = 0; row < dev.size(); ++row) {
        for (std::size_t c = 0; c < dev[row].size(); ++c) {
            if (count[row][c] > 0) {
                dev[row][c] /= static_cast<double>(count[row][c]);
            }
        }
    }

    return EnhancedHdModel{input_bits, zero_clusters,    std::move(p),
                           std::move(dev), std::move(count), std::move(fallback)};
}

HdModel Characterizer::characterize(const dp::DatapathModule& module,
                                    const CharacterizationOptions& options) const
{
    return fit_basic_model(module.total_input_bits(), collect_records(module, options));
}

EnhancedHdModel Characterizer::characterize_enhanced(
    const dp::DatapathModule& module, int zero_clusters,
    CharacterizationOptions options) const
{
    // Default (not override): only an unset mode falls back to
    // StratifiedPairs, the one mode that populates every (i, z) class.
    if (!options.mode.has_value()) {
        options.mode = StimulusMode::StratifiedPairs;
    }
    return fit_enhanced_model(module.total_input_bits(), zero_clusters,
                              collect_records(module, options));
}

std::vector<HdModel> Characterizer::characterize_corners(
    const dp::DatapathModule& module, const CharacterizationOptions& options) const
{
    std::vector<HdModel> models;
    for (const auto& records : collect_records_corners(module, options)) {
        models.push_back(fit_basic_model(module.total_input_bits(), records));
    }
    return models;
}

} // namespace hdpm::core

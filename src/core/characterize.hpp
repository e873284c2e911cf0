#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/enhanced_model.hpp"
#include "core/hd_model.hpp"
#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "sim/event_sim.hpp"
#include "util/bitvec.hpp"
#include "util/fault.hpp"

namespace hdpm::core {

/// How characterization stimuli are generated.
enum class StimulusMode {
    /// Consecutive uniform random vectors — the paper's characterization
    /// stream. Hd concentrates binomially around m/2, so extreme classes
    /// converge slowly.
    RandomChain,

    /// A chain whose per-transition Hamming distance cycles uniformly over
    /// 1..m (switching bit subsets uniform within each class). The
    /// conditional distribution within each class matches RandomChain, so
    /// coefficients are unbiased while every class is populated equally.
    /// Default for the basic model.
    StratifiedChain,

    /// Independent (settle, step) pairs stratified over both Hamming
    /// distance and stable-zero count; required to populate the enhanced
    /// model's (i, z) classes, whose extremes random streams never reach.
    StratifiedPairs,
};

/// Which reference engine produces record charges.
enum class CharBackend {
    /// The timed event kernel: full glitch activity under inertial
    /// filtering. Exact — the reference physics and the differential
    /// oracle for every other backend.
    EventKernel,

    /// 64-lane word-parallel power emulation: each block of up to 64
    /// stimulus pairs settles zero-delay in sim::BatchedEvaluator, and the
    /// pair charge is the toggle-weighted sum of per-net edge charges. A
    /// zero-delay settle sees no glitches, so a calibration phase runs a
    /// small deterministic event-kernel subsample (same sharded seed
    /// scheme, disjoint shard ids) and fits per-cell glitch-correction
    /// factors plus a residual least-squares scale into the weights.
    /// Approximate but an order of magnitude faster — the screening /
    /// regression-volume path; see docs/simulator.md for the accuracy
    /// contract.
    PowerEmulation,
};

/// Human-readable backend name ("event-kernel" / "power-emulation").
[[nodiscard]] const char* char_backend_name(CharBackend backend) noexcept;

/// One stimulus-shard failure captured by a non-strict run. The shard
/// index plus the run's (seed, shard_size) locate the exact stimulus
/// stream, so a captured failure can be replayed in isolation by re-running
/// just that shard.
struct ShardFailure {
    std::size_t shard = 0; ///< stimulus shard index in the plan
    util::FaultKind kind = util::FaultKind::ShardFailed;
    std::string message; ///< the failure's what() text
};

/// Wall-clock and volume counters of one characterization run, filled when
/// CharacterizationOptions::stats points at an instance. Only counters of
/// work that contributed to the result are reported (shards simulated ahead
/// of a convergence stop and then discarded are not; shards replayed from a
/// checkpoint journal were simulated by the interrupted run, so they count
/// toward records/shards but not toward this run's simulation counters).
struct CharRunStats {
    double collect_wall_ms = 0.0; ///< record-collection (simulation) wall time
    std::uint64_t sim_transitions = 0; ///< net toggles simulated, incl. glitches
    std::uint64_t sim_events = 0; ///< scheduler events processed (queue pops)
    double events_per_sec = 0.0;  ///< sim_events over the collect wall time
    std::size_t max_queue_depth = 0; ///< peak pending events in any shard's queue
    std::size_t records = 0;      ///< measured transitions kept
    std::size_t shards = 0;       ///< stimulus shards merged into the result
    unsigned threads = 1;         ///< worker threads used
    std::uint64_t warmup_vectors = 0; ///< pairs-mode warm-up vectors settled
    std::uint64_t warmup_batches = 0; ///< 64-lane batched warm-up settle passes

    /// Backend that produced the records, plus its emulated-vs-event pass
    /// counters (all zero / EventKernel for a pure event-kernel run).
    CharBackend backend = CharBackend::EventKernel;
    std::uint64_t emulated_pairs = 0;   ///< records scored word-parallel this run
    std::uint64_t emulation_passes = 0; ///< 64-lane zero-delay settle passes
    std::uint64_t calibration_pairs = 0; ///< event-kernel pairs run for calibration
    double calibration_scale = 1.0; ///< fitted residual glitch scale (1 = none)

    /// Corners scored by a multi-corner sweep (0 = single-corner run).
    std::size_t corners = 0;

    /// Shards that failed and were skipped (non-strict runs only; empty
    /// means the run completed clean).
    std::vector<ShardFailure> shard_failures;
    std::size_t shards_resumed = 0; ///< shards replayed from a checkpoint journal
    std::size_t checkpoints_published = 0; ///< journal publishes this run
    bool checkpoint_discarded = false; ///< a stale or corrupt journal was set aside
    /// A damaged journal's surviving whole-shard prefix was resumed (the
    /// torn tail was quarantined as .corrupt and re-simulated).
    bool checkpoint_salvaged = false;
};

/// Progress of a characterization run, reported once per merged shard.
struct CharProgress {
    std::size_t shards_merged = 0;  ///< shards merged so far
    std::size_t shards_planned = 0; ///< upper bound (budget / shard size)
    std::size_t records = 0;        ///< records merged so far
    std::size_t max_records = 0;    ///< the transition budget
};

/// Progress callback. Always invoked on the thread that called into the
/// Characterizer (never from a worker), so it may touch non-thread-safe
/// state such as std::cout.
using ProgressFn = std::function<void(const CharProgress&)>;

/// Characterization options.
struct CharacterizationOptions {
    std::size_t max_transitions = 20000; ///< hard budget of measured transitions
    std::size_t min_transitions = 4000;  ///< measure at least this many
    std::size_t batch = 2000;            ///< convergence check cadence
    double tolerance = 0.01; ///< stop when max relative coefficient drift per batch < this
    std::uint64_t seed = 1;

    /// Stimulus mode. Unset picks the entry point's natural default —
    /// StratifiedChain for basic characterization and collect_records,
    /// StratifiedPairs for the enhanced model. An explicitly set mode is
    /// always respected.
    std::optional<StimulusMode> mode;

    /// Reference engine for record charges. Unlike threads — and like
    /// shard_size — the backend is part of the measurement plan:
    /// emulated charges approximate the event kernel's, so the choice is
    /// fingerprinted into stored models and checkpoint journals.
    CharBackend backend = CharBackend::EventKernel;

    /// PowerEmulation only: event-kernel transitions simulated for the
    /// glitch-correction calibration fit (0 disables correction — raw
    /// zero-delay charge, which underestimates glitch-heavy modules).
    /// Part of the measurement plan, fingerprinted. Calibration shards are
    /// seeded `seed ^ splitmix64(kCalibrationShardBase + i)` with ids
    /// disjoint from measurement shards, merged in shard order — so the
    /// fitted correction, like the records, is bit-identical for any
    /// thread count and recomputed identically on a checkpoint resume.
    std::size_t calibration_pairs = 512;

    /// Worker threads for sharded stimulus collection (0 = one per
    /// hardware thread, the default). Results are bit-identical for every
    /// thread count, including 1: the stimulus plan is split into
    /// fixed-size, independently seeded shards and merged in shard order,
    /// so the thread count only changes how shards are scheduled — which
    /// is why characterization can default to all cores.
    unsigned threads = 0;

    /// Transitions per stimulus shard (0 = batch). Unlike threads, the
    /// shard size is part of the stimulus plan: changing it changes the
    /// generated stream (and therefore the fitted coefficients).
    std::size_t shard_size = 0;

    /// Checkpoint journal path (empty = no checkpointing). When set, the
    /// run keeps one append-only journal there (stamped with the run's
    /// options fingerprint, the corner list, the module identity and the
    /// corner count): every checkpoint_every merged shards it appends their
    /// framed, checksummed record blocks, all corners in each block. The
    /// first publish creates the file atomically (sibling .tmp + rename).
    /// A later run with the same stimulus plan resumes from the longest
    /// whole-block prefix and produces bit-identical records; the journal
    /// is deleted once the run completes. A journal from a different plan
    /// or module is discarded; a damaged one (e.g. a torn last block) is
    /// quarantined with a ".corrupt" suffix after its whole blocks are
    /// salvaged. Like threads, this knob is execution-only: it never
    /// changes the records and is excluded from the options fingerprint.
    std::filesystem::path checkpoint;

    /// Merged shards between checkpoint publishes (must be >= 1).
    std::size_t checkpoint_every = 1;

    /// Operating corner the reference library is derived at
    /// (gate::TechLibrary::at) before any simulation. Unset = the
    /// library's native corner — bit-identical to pre-corner behaviour.
    /// Like the backend, the corner is part of the measurement plan:
    /// fingerprinted into stored models and checkpoint journals.
    std::optional<gate::Corner> corner;

    /// Multi-corner sweep list consumed by the *_corners entry points: one
    /// stimulus sweep scores every listed corner from its load class's
    /// nominal charge by the corner's law (docs/corners.md). An event
    /// sweep simulates each load class; an emulation sweep shares only
    /// the zero-delay settle. Result vectors are index-aligned with this
    /// list. Ignored by the single-corner entry points; mutually exclusive
    /// with `corner`.
    std::vector<gate::Corner> corners;

    /// When true, the first failing shard aborts the whole run (the
    /// historical behaviour). When false — the default — a shard failure
    /// is captured in CharRunStats::shard_failures with its fault kind and
    /// the sibling shards continue, so one poisoned stimulus region
    /// degrades coverage instead of losing the run. A run in which *no*
    /// shard succeeds still throws the first failure.
    bool strict_faults = false;

    ProgressFn progress;           ///< per-merged-shard progress callback
    CharRunStats* stats = nullptr; ///< filled with run counters when non-null
};

/// One measured transition.
struct CharacterizationRecord {
    int hd = 0;          ///< Hamming distance of the input transition
    int stable_zeros = 0; ///< stable-zero bit count of the transition
    double charge_fc = 0.0; ///< reference cycle charge from the selected backend
    std::uint64_t toggle_mask = 0; ///< which input bits switched (u XOR v)
};

/// Runs reference power simulations on a module prototype and fits the
/// macro-model coefficients (paper section 4.1): p_i is the mean charge of
/// class E_i (eq. 4), ε_i its mean relative deviation (eq. 5).
/// Characterization stops when the coefficients have converged or the
/// transition budget is exhausted.
class Characterizer {
public:
    explicit Characterizer(const gate::TechLibrary& library = gate::TechLibrary::generic350(),
                           sim::EventSimOptions sim_options = {});

    /// Characterize the basic Hd-model of a module.
    [[nodiscard]] HdModel characterize(const dp::DatapathModule& module,
                                       const CharacterizationOptions& options = {}) const;

    /// Characterize the enhanced (Hd, stable-zeros) model; @p zero_clusters
    /// = 0 keeps one class per zero count. When options.mode is unset this
    /// defaults to StratifiedPairs (the only mode that populates every
    /// (i, z) class); an explicitly set mode is respected as-is.
    [[nodiscard]] EnhancedHdModel characterize_enhanced(
        const dp::DatapathModule& module, int zero_clusters = 0,
        CharacterizationOptions options = {}) const;

    /// Raw measured transitions (for ablations and convergence studies).
    /// This is the one-corner sweep: the collect_records_corners pipeline
    /// run on the list {options.corner}, with a one-corner journal.
    ///
    /// The stimulus plan is split into fixed-size shards, each seeded
    /// `seed ^ splitmix64(shard)` and simulated independently (its own
    /// EventSimulator over one shared immutable SimContext), then merged
    /// in shard order; convergence is evaluated over the merged stream at
    /// batch boundaries. The returned records are therefore bit-identical
    /// for any options.threads value.
    [[nodiscard]] std::vector<CharacterizationRecord> collect_records(
        const dp::DatapathModule& module, const CharacterizationOptions& options) const;

    /// Multi-corner single-sweep record collection — the amortization path
    /// (docs/corners.md). Draws the stimulus sweep *once* and scores every
    /// corner in options.corners from it. Corner timing is a dilation
    /// (gate::TechLibrary::at), so the corners of one load class share one
    /// event stream exactly, and only their charge per toggle differs by
    /// the exact law gate::ChargeLaw. The sweep therefore builds one
    /// context per load class, at the class-nominal corner (native supply,
    /// 25 °C). Per transition each load class yields its nominal charge Q
    /// and that charge's internal part Q_int, and every (Vdd, T) corner of
    /// the class takes a·(Q + b·Q_int) by its law, in both backends:
    ///
    ///  - PowerEmulation: zero-delay toggles are exactly corner-invariant,
    ///    so each shard settles once and scores each load class with its
    ///    weights, glitch-calibrated once per class: one weighted pass for
    ///    Q, plus one for Q_int when a corner has a temperature term.
    ///  - EventKernel: each load class has its own simulator, and all of
    ///    them run in lockstep on the shard's stimulus; a class takes (Q,
    ///    Q_int) from its own cycle (its charge and
    ///    sim::EventSimulator::cycle_internal_charge_fc). Nothing is
    ///    calibrated.
    ///
    /// Every corner is bit-identical to an independent single-corner run
    /// at that corner, which derives its records the same way.
    ///
    /// Element k of the result aligns with options.corners[k]. Convergence
    /// is tracked per corner (a corner's record stream stops exactly where
    /// its independent run would); the sweep runs until every corner has
    /// converged or the budget is exhausted. Checkpointing keeps one
    /// journal at options.checkpoint whose shard blocks hold every
    /// corner's records; resume is bit-identical.
    [[nodiscard]] std::vector<std::vector<CharacterizationRecord>>
    collect_records_corners(const dp::DatapathModule& module,
                            const CharacterizationOptions& options) const;

    /// Fit one basic model per corner from a single sweep (see
    /// collect_records_corners).
    [[nodiscard]] std::vector<HdModel> characterize_corners(
        const dp::DatapathModule& module, const CharacterizationOptions& options) const;

    /// The reference-simulation physics this characterizer runs under (used
    /// e.g. to fingerprint checkpoint journals).
    [[nodiscard]] const sim::EventSimOptions& sim_options() const noexcept
    {
        return sim_options_;
    }

private:
    const gate::TechLibrary* library_;
    sim::EventSimOptions sim_options_;
};

/// The first transitions of one stimulus shard: `count` (u, v) pairs in
/// pairs mode, else a chain of count + 1 vectors (transition i is
/// chain[i] → chain[i+1]).
struct ShardStimulus {
    std::vector<util::BitVec> us;    ///< pairs mode
    std::vector<util::BitVec> vs;    ///< pairs mode
    std::vector<util::BitVec> chain; ///< chain modes
};

/// Draw the first @p count transitions of stimulus shard @p shard of a plan
/// over @p m input bits: the stream, seeded `seed ^ splitmix64(shard)`, that
/// every backend scores and that calibration shards (ids offset into their
/// own half of the id space) simulate.
[[nodiscard]] ShardStimulus draw_shard_stimulus(int m, StimulusMode mode,
                                                std::uint64_t seed, std::uint64_t shard,
                                                std::size_t count);

/// One piece of a plan's glitch calibration, the unit calibration is
/// scheduled in (on the in-process pool and as leased fleet work):
/// transitions [first, first + count) of calibration shard `shard`,
/// simulated once through the event kernel at the class-nominal corner of
/// timing class `timing_class` (load classes in order of first appearance
/// in the corner list, so class 0 holds corner 0), for every corner of the
/// class. A piece spans one 64-lane settle: up to 64 pairs, or up to 63
/// chain transitions.
struct CalibrationPiece {
    std::size_t timing_class = 0;
    std::size_t shard = 0;
    std::size_t first = 0;
    std::size_t count = 0;
};

/// What one calibration piece measured. Pieces reduce into the fit by
/// integer sums (toggles) and by summing each shard's charges in stimulus
/// order, so the fit is the same wherever and in whatever order they ran.
struct CalibrationPieceResult {
    /// Event charge per transition at the class-nominal corner of the
    /// piece's timing class.
    std::vector<double> charges;
    std::vector<std::uint64_t> event_toggles; ///< per-net event-kernel toggles
    /// Per-net zero-delay toggles: class 0's pieces, else empty.
    std::vector<std::uint64_t> zero_toggles;
};

/// The calibration pieces of the plan @p options describe, in reduction
/// order (class, then shard, then first transition). Empty when the plan
/// calibrates nothing: calibration_pairs = 0, or the event backend (every
/// corner derived exactly from its class's simulation).
[[nodiscard]] std::vector<CalibrationPiece> calibration_pieces(
    const CharacterizationOptions& options);

/// Runs single stimulus shards of a characterization plan — the unit of
/// distribution. A ShardRunner owns everything a shard simulation needs
/// (the compiled SimContext, the options, and — for the power-emulation
/// backend — the calibrated class weights) so shard @p i of the plan can be
/// simulated in any process, on any host, and produce the identical record
/// block: the stream is seeded `seed ^ splitmix64(i)` and nothing about it
/// depends on which shards ran before or elsewhere. This is exactly the
/// per-shard work Characterizer::collect_records schedules onto its thread
/// pool, exposed so a fleet worker can run a leased shard range
/// out-of-process.
class ShardRunner {
public:
    /// Where the weights' calibration runs.
    enum class Calibration {
        /// At construction, every piece on a pool of options.threads.
        InProcess,
        /// Wherever the caller runs the pieces (run_calibration_piece); the
        /// results are handed to fit_calibration before the first shard.
        FromPieces,
    };

    /// @p module (its netlist) and @p library must outlive the runner, as
    /// for every simulator built on SimContext.
    ShardRunner(const dp::DatapathModule& module, CharacterizationOptions options,
                const gate::TechLibrary& library = gate::TechLibrary::generic350(),
                sim::EventSimOptions sim_options = {},
                Calibration calibration = Calibration::InProcess);
    ~ShardRunner();
    ShardRunner(const ShardRunner&) = delete;
    ShardRunner& operator=(const ShardRunner&) = delete;

    /// Shard geometry of the plan (identical to collect_records').
    [[nodiscard]] std::size_t num_shards() const noexcept;
    [[nodiscard]] std::size_t shard_size() const noexcept;
    [[nodiscard]] int input_bits() const noexcept;

    /// The plan's options fingerprint (characterization_fingerprint) and
    /// the module's checkpoint-journal identity key.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;
    [[nodiscard]] const std::string& module_key() const noexcept;

    /// The plan's calibration pieces (calibration_pieces of its options).
    [[nodiscard]] const std::vector<CalibrationPiece>& calibration_pieces() const noexcept;

    /// Run calibration piece @p index on the calling thread: the piece
    /// function the in-process calibration schedules on its pool.
    [[nodiscard]] CalibrationPieceResult run_calibration_piece(std::size_t index) const;

    /// FromPieces runners: fit the weights from the results of every piece,
    /// index-aligned with calibration_pieces() and reduced in piece order,
    /// so shard blocks are bit-identical to an InProcess runner's. Throws
    /// PreconditionError when a result does not have its piece's shape, or
    /// when the runner is already calibrated.
    void fit_calibration(std::span<const CalibrationPieceResult> results);

    /// Mid-shard progress callback: invoked between stimulus batches
    /// *inside* a shard (roughly every 64 simulated transitions), so a
    /// fleet worker can heartbeat its lease while a large shard is still
    /// simulating — which is what lets the lease TTL shrink below one
    /// shard's wall time.
    using TickFn = std::function<void()>;

    /// Simulate shard @p shard of the plan and return its record block.
    /// Throws the shard's failure (FaultError etc.) — the caller owns the
    /// degrade/abort decision — and PreconditionError on a FromPieces
    /// runner whose pieces are not fitted yet. @p tick, when set, is
    /// invoked between batches inside the shard (see TickFn); it must not
    /// throw.
    [[nodiscard]] std::vector<CharacterizationRecord> run(
        std::size_t shard, const TickFn& tick = {}) const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Replays collect_records' merge-and-convergence loop over shard record
/// blocks delivered strictly in plan order. The merged stream — including
/// the exact record the run stops at — is a pure function of the blocks,
/// so a coordinator merging journaled blocks from any number of worker
/// processes reproduces a single-process run bit for bit. Blocks merged
/// after convergence are ignored, exactly as collect_records discards
/// shards simulated ahead of a stop.
class ShardMerger {
public:
    ShardMerger(int input_bits, const CharacterizationOptions& options);
    ~ShardMerger();
    ShardMerger(const ShardMerger&) = delete;
    ShardMerger& operator=(const ShardMerger&) = delete;

    /// Merge the next shard's record block (plan order). Returns false once
    /// the run has converged (further blocks are ignored).
    bool merge(std::span<const CharacterizationRecord> block);

    [[nodiscard]] bool converged() const noexcept;
    [[nodiscard]] std::size_t shards_merged() const noexcept;
    [[nodiscard]] const std::vector<CharacterizationRecord>& records() const noexcept;
    [[nodiscard]] std::vector<CharacterizationRecord> take_records();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The checkpoint/fleet journal identity key of a module: netlist name plus
/// operand widths as one whitespace-free token (e.g. "csa_multiplier_16x16").
[[nodiscard]] std::string module_journal_key(const dp::DatapathModule& module);

/// Build a basic HdModel from raw records (mean + deviation per class).
[[nodiscard]] HdModel fit_basic_model(int input_bits,
                                      std::span<const CharacterizationRecord> records);

/// Build an enhanced model (and its embedded basic fallback) from records.
[[nodiscard]] EnhancedHdModel fit_enhanced_model(
    int input_bits, int zero_clusters,
    std::span<const CharacterizationRecord> records);

} // namespace hdpm::core

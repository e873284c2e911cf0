#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/error.hpp"

namespace hdpm::util {

/// Failure taxonomy of the characterization runtime. Every structured
/// failure carries one of these kinds plus a FaultContext, so callers can
/// dispatch on the class of fault (quarantine, retry, degrade, abort)
/// instead of parsing message strings.
enum class FaultKind : std::uint8_t {
    /// The event simulator exceeded max_events_per_cycle (runaway
    /// oscillation or an absurdly small budget). Carries the offending
    /// (u, v) vector pair for single-record replay.
    SimBudgetExceeded,

    /// A stored model file has a valid fingerprint header but a corrupt
    /// body (truncation, bit rot, non-finite coefficients). The library
    /// quarantines such files and recharacterizes.
    ModelFileCorrupt,

    /// A linear system was numerically singular / non-finite. least_squares
    /// degrades to a ridge-regularized solve and records the fallback.
    RegressionIllConditioned,

    /// A stimulus shard failed; in non-strict runs the failure is captured
    /// in CharRunStats::shard_failures and sibling shards continue.
    ShardFailed,

    /// A checkpoint journal exists but is malformed (e.g. a short write
    /// from a killed run). The journal is quarantined and the run starts
    /// fresh rather than resuming from bad state.
    CheckpointCorrupt,

    /// A filesystem operation (publish, rename, remove) failed.
    IoError,

    /// A serving-side bounded queue was full and the request was shed
    /// rather than queued unboundedly. Clients should back off and retry;
    /// the daemon reports this as a structured response, never by hanging
    /// or silently dropping the connection.
    Overloaded,

    /// A wire message violated the serving protocol (bad magic, truncated
    /// frame, out-of-range field). The offending connection is closed
    /// after the error response; other connections are unaffected.
    ProtocolError,

    /// A fleet worker's lease on a shard range expired (its heartbeat went
    /// stale past the TTL) and the range was handed to another worker. A
    /// worker observing its own lease gone must abandon the range without
    /// publishing; the context carries the range so the abandonment is
    /// replayable.
    LeaseExpired,

    /// The fleet coordinator observed a worker die (lease expired with no
    /// published result, or a corrupt lease file left behind by a kill).
    /// Informational on the coordinator side: the range is re-leased and
    /// the run continues; strict runs can escalate.
    WorkerLost,

    /// A bounded retry loop (e.g. a client reconnect with exponential
    /// backoff) exhausted its attempt or time budget without succeeding.
    /// The context's detail records the attempts made and the last
    /// underlying failure.
    RetriesExhausted,
};

/// Stable short name of a fault kind (for logs, reports and tests).
[[nodiscard]] const char* fault_kind_name(FaultKind kind) noexcept;

/// Everything needed to locate and replay a failure: which component it
/// happened in, on which (module, bitwidth) instance, in which shard and
/// record of the stimulus plan, and — when the fault occurred inside a
/// simulated transition — the exact input vector pair, so one record can
/// be re-simulated in isolation.
struct FaultContext {
    std::string component;      ///< netlist/module/file the fault hit
    int bitwidth = -1;          ///< module input bits m (-1 = n/a)
    std::int64_t shard = -1;    ///< stimulus shard index (-1 = n/a)
    std::int64_t record = -1;   ///< record index within the shard (-1 = n/a)
    std::uint64_t vector_u = 0; ///< pre-transition input vector (raw bits)
    std::uint64_t vector_v = 0; ///< applied input vector (raw bits)
    bool has_vectors = false;   ///< vector_u / vector_v are meaningful
    std::string detail;         ///< free-form cause description

    /// One-line human-readable rendering (also used for what()).
    [[nodiscard]] std::string describe() const;
};

/// A structured runtime failure: FaultKind + FaultContext. Derives from
/// RuntimeError so existing catch sites keep working unchanged.
class FaultError : public RuntimeError {
public:
    FaultError(FaultKind kind, FaultContext context);

    [[nodiscard]] FaultKind kind() const noexcept { return kind_; }
    [[nodiscard]] const FaultContext& context() const noexcept { return context_; }

    /// Mutable context access so fault boundaries (e.g. the shard loop)
    /// can enrich a propagating fault with location tags before rethrow.
    [[nodiscard]] FaultContext& context() noexcept { return context_; }

private:
    FaultKind kind_;
    FaultContext context_;
};

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// Named injection points wired into the production code paths (behind the
/// HDPM_FAULT_INJECTION compile-time gate — see below).
enum class FaultPoint : std::uint8_t {
    ModelShortWrite,      ///< truncate a model payload before publish
    ModelBitFlip,         ///< flip one payload bit before publish
    ShardException,       ///< throw on entry of a stimulus shard
    EventBudget,          ///< force the event budget to zero for one apply
    RegressionRank,       ///< degrade normal equations to rank one
    CheckpointShortWrite, ///< truncate a checkpoint journal or calibration piece before publish
    LeaseCorrupt,         ///< corrupt a fleet lease payload before publish
    HeartbeatSkew,        ///< backdate a heartbeat as if the clock jumped
};

inline constexpr std::size_t kNumFaultPoints = 8;

/// A deterministic, seeded fault injector for end-to-end testing of every
/// degradation path. Each point is armed with a countdown: the N-th time
/// execution passes the point it fires (once), every earlier and later
/// pass is a no-op. Payload corruption (short writes, bit flips) derives
/// its position from the seed and the payload size, so a given
/// (seed, countdown) always produces the identical corruption.
///
/// Installation is process-global and not thread-safe by design: tests
/// install an injector, run the scenario, and uninstall. Passes are
/// thread-safe — concurrently running shards may hit one point, and
/// exactly one hit fires. Production code
/// never installs one, and with HDPM_FAULT_INJECTION compiled out (the
/// default in Release builds) the hooks vanish entirely.
class FaultInjector {
public:
    explicit FaultInjector(std::uint64_t seed = 1) : seed_(seed) {}

    /// Arm @p point to fire on its @p countdown-th hit (1 = next hit).
    void arm(FaultPoint point, std::uint64_t countdown = 1);

    /// True when the point is armed and this hit is the firing one.
    /// Decrements the countdown on every call while armed.
    [[nodiscard]] bool fire(FaultPoint point) noexcept;

    /// Number of times @p point fired since construction.
    [[nodiscard]] std::uint64_t fired_count(FaultPoint point) const noexcept;

    /// Corrupt @p payload in place if the matching point fires:
    /// ModelShortWrite / CheckpointShortWrite truncate to a seed-derived
    /// fraction; ModelBitFlip flips one seed-derived bit. The header line
    /// (up to and including the first '\n') is never touched, so the
    /// corruption models "valid header, bad body".
    void mutate_payload(FaultPoint point, std::string& payload);

    /// Install @p injector as the process-global instance (nullptr
    /// uninstalls). Returns the previous instance.
    static FaultInjector* install(FaultInjector* injector) noexcept;

    /// The installed instance, or nullptr.
    [[nodiscard]] static FaultInjector* instance() noexcept;

private:
    struct Point {
        bool armed = false;
        std::uint64_t countdown = 0;
        std::uint64_t fired = 0;
    };

    std::uint64_t seed_;
    mutable std::mutex mutex_; ///< guards points_
    std::array<Point, kNumFaultPoints> points_{};
};

/// RAII installer: installs an injector for one scope (tests).
class ScopedFaultInjector {
public:
    explicit ScopedFaultInjector(FaultInjector& injector)
        : previous_(FaultInjector::install(&injector))
    {
    }
    ~ScopedFaultInjector() { FaultInjector::install(previous_); }
    ScopedFaultInjector(const ScopedFaultInjector&) = delete;
    ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

private:
    FaultInjector* previous_;
};

} // namespace hdpm::util

// ---------------------------------------------------------------------------
// Injection hooks. With HDPM_FAULT_INJECTION unset (Release builds) they
// compile to constant-false / nothing — zero code, zero branches — which is
// what keeps the steady-state shard loop allocation- and overhead-free.
// ---------------------------------------------------------------------------
#if defined(HDPM_FAULT_INJECTION) && HDPM_FAULT_INJECTION

/// True when @p point is armed and fires at this hit.
#define HDPM_FAULT_FIRE(point)                                                           \
    (::hdpm::util::FaultInjector::instance() != nullptr &&                               \
     ::hdpm::util::FaultInjector::instance()->fire(point))

/// Corrupt @p payload (a std::string) in place if @p point fires.
#define HDPM_FAULT_MUTATE(point, payload)                                                \
    do {                                                                                 \
        if (auto* hdpm_inj_ = ::hdpm::util::FaultInjector::instance()) {                 \
            hdpm_inj_->mutate_payload(point, payload);                                   \
        }                                                                                \
    } while (false)

#else

#define HDPM_FAULT_FIRE(point) false
#define HDPM_FAULT_MUTATE(point, payload) ((void)0)

#endif

#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "core/characterize.hpp"

namespace hdpm::fleet {

/// Filesystem primitives of the fleet coordination protocol. Everything in
/// a fleet run lives in one shared directory (local or network filesystem):
///
///   plan.fleet            the coordinator's published stimulus plan
///   calib_<i>.lease       a worker's claim on calibration piece i
///   calib_<i>.done        the piece's measured totals (core::CalibrationPieceResult)
///   range_<S>.lease       a worker's claim on shards [S, S+count)
///   range_<S>.done        the range's completed record blocks (journal)
///
/// Claims are `open(O_CREAT|O_EXCL)` — the filesystem's atomic test-and-set
/// — heartbeats refresh the lease file's mtime, and results are published
/// first-wins with `link()` (a second publisher of the same range or piece
/// gets EEXIST, which is safe to discard because shards and pieces are
/// deterministic: both payloads are byte-identical). The plan and every
/// result publish go through a sibling tmp + atomic rename, so no reader
/// ever observes a half-written file.

/// Coordination file names inside the fleet directory.
inline constexpr const char* kPlanFileName = "plan.fleet";
[[nodiscard]] std::string lease_name(std::size_t range_start);
[[nodiscard]] std::string done_name(std::size_t range_start);
[[nodiscard]] std::string calib_lease_name(std::size_t piece);
[[nodiscard]] std::string calib_done_name(std::size_t piece);

/// True when @p id is a usable worker id: 1 to 64 characters of
/// [A-Za-z0-9._-]. The id is one token of a lease file and part of a
/// publish's tmp file name, so nothing else is accepted.
[[nodiscard]] bool valid_worker_id(std::string_view id) noexcept;

/// Payload of a lease file: who holds the range, and a claim token so a
/// worker can tell its own lease from a successor's after an expiry.
struct LeaseInfo {
    std::string worker;      ///< claiming worker's id (diagnostics)
    std::uint64_t token = 0; ///< ownership token, checked on heartbeat
    std::size_t start = 0;   ///< first shard of the leased range
    std::size_t count = 0;   ///< shards in the range
};

/// The coordinator's published plan: the full identity of the stimulus
/// plan (the same fingerprint the checkpoint journal and model library
/// use), so a worker started with mismatched options refuses loudly
/// instead of contributing foreign records.
struct FleetPlan {
    std::uint64_t fingerprint = 0; ///< characterization_fingerprint
    std::string module_key;        ///< module identity (name + widths)
    int input_bits = 0;            ///< m
    std::size_t num_shards = 0;    ///< shards in the plan
    std::size_t shard_size = 0;    ///< transitions per shard
    std::size_t lease_shards = 0;  ///< shards per leased range
    bool enhanced = false;         ///< fit the enhanced (Hd, zeros) model
    int zero_clusters = 0;         ///< enhanced-model cluster count
    /// Calibration pieces the workers lease before any range
    /// (core::calibration_pieces of the plan's options; 0 = none).
    std::size_t calibration_pieces = 0;
};

/// The effective characterization options a fleet plan runs under. The
/// single-process entry points resolve an unset stimulus mode at different
/// layers (Characterizer::characterize_enhanced pins StratifiedPairs before
/// collect_records; the basic path leaves the mode unset and lets the shard
/// loop default to StratifiedChain), and the resolution is fingerprinted —
/// so coordinator and workers must resolve identically or their
/// fingerprints diverge. This is that one shared resolution.
[[nodiscard]] core::CharacterizationOptions resolve_plan_options(
    core::CharacterizationOptions options, bool enhanced);

/// Number of leased ranges in a plan (ceil division).
[[nodiscard]] std::size_t num_ranges(const FleetPlan& plan) noexcept;

/// Shards in the range starting at @p start (the last range may be short).
[[nodiscard]] std::size_t range_count(const FleetPlan& plan,
                                      std::size_t start) noexcept;

/// Atomically publish @p plan as <dir>/plan.fleet (tmp + rename). Throws
/// FaultError{IoError} when the filesystem refuses.
void write_plan(const std::filesystem::path& dir, const FleetPlan& plan);

/// Load a published plan. Returns nullopt when none is published yet;
/// throws FaultError{ProtocolError} when the file exists but is malformed
/// or of another format version (the publish is atomic, so damage means
/// corruption, not a race).
[[nodiscard]] std::optional<FleetPlan> read_plan(const std::filesystem::path& dir);

/// Everything a calibration piece file is stamped with and checked
/// against: the plan identity, the piece's index and geometry, and the
/// shape of its result (net count; zero-delay toggles or not).
struct PieceStamp {
    std::uint64_t fingerprint = 0;
    std::string module_key;
    std::size_t index = 0;
    core::CalibrationPiece piece;
    std::size_t nets = 0;
    bool zero_delay = false;
};

/// Atomically write @p result as the piece file @p path (tmp + rename),
/// stamped with @p stamp: a header line per identity field, then one
/// framed body (byte length + FNV-1a checksum) holding the per-transition
/// charges as raw IEEE-754 bits (at the class-nominal corner of the
/// piece's timing class) and the per-net toggle counts. The
/// CheckpointShortWrite fault-injection point may tear the payload.
void write_calibration_piece(const std::filesystem::path& path, const PieceStamp& stamp,
                             const core::CalibrationPieceResult& result);

/// Outcome of reading a calibration piece file.
enum class PieceRead {
    Missing,  ///< no piece file
    Rejected, ///< damaged, or stamped for another plan, piece or shape
    Ok,       ///< parsed and checked
};

/// Read the piece file @p path into @p out, accepting it only when its
/// stamp equals @p expected and its body is whole. Reads at most the bytes
/// a piece of the expected shape can take, so a foreign file never drives
/// an allocation.
[[nodiscard]] PieceRead read_calibration_piece(const std::filesystem::path& path,
                                               const PieceStamp& expected,
                                               core::CalibrationPieceResult& out);

/// Claim @p path with O_CREAT|O_EXCL and write @p info. Returns false when
/// the lease is already held (EEXIST); throws FaultError{IoError} on any
/// other failure. The LeaseCorrupt fault-injection point corrupts the
/// payload on its way to disk (behind an intact header line).
[[nodiscard]] bool claim_lease(const std::filesystem::path& path,
                               const LeaseInfo& info);

/// Outcome of reading a lease file.
enum class LeaseRead {
    Missing, ///< no lease file
    Corrupt, ///< present but unparseable (torn write or bit rot)
    Ok,      ///< parsed
};

[[nodiscard]] LeaseRead read_lease(const std::filesystem::path& path, LeaseInfo& out);

/// Refresh the lease's heartbeat (set its mtime to now). Returns false when
/// the lease file is gone — the holder's cue that its lease expired and was
/// re-leased; it must abandon the range without publishing. The
/// HeartbeatSkew fault-injection point writes a far-future mtime instead,
/// modelling a worker whose clock jumped.
[[nodiscard]] bool heartbeat_lease(const std::filesystem::path& path);

/// Milliseconds since the file's last heartbeat (mtime). Negative when the
/// mtime is in the future (clock skew — the caller should clamp and count).
/// nullopt when the file is gone.
[[nodiscard]] std::optional<double> file_age_ms(const std::filesystem::path& path);

/// Publish @p tmp at @p final first-wins: link() the finished payload to
/// the final name and unlink the tmp. Returns true when this call won the
/// name, false when a sibling published first (EEXIST — the duplicate is
/// discarded). Throws FaultError{IoError} on any other failure.
[[nodiscard]] bool publish_first_wins(const std::filesystem::path& tmp,
                                      const std::filesystem::path& final_path);

} // namespace hdpm::fleet

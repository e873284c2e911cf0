#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/characterize.hpp"

namespace hdpm::core {

/// One completed stimulus shard's record block, as stored in a
/// characterization checkpoint journal. A K-corner block stores its
/// records corner-major: corner k's n records are records[k*n, (k+1)*n).
/// Every corner scores the same transitions, so the corners share each
/// transition's Hd, stable zeros and toggle mask and differ only in charge.
struct CheckpointShard {
    std::size_t index = 0; ///< shard index in the stimulus plan
    std::vector<CharacterizationRecord> records;
};

/// A crash-safe characterization checkpoint: the completed prefix of a
/// run's stimulus plan, stamped with the same options fingerprint the
/// model library uses (plus the module key and the corner count), so a
/// journal can never be resumed against a different module or a changed
/// stimulus plan.
///
/// Because shards are independent and merged strictly in shard order, the
/// journal is always a prefix [0, shards.size()) of the plan: replaying it
/// through the merge loop and simulating the remaining shards reproduces
/// the record stream of an uninterrupted run bit-identically (charges are
/// stored as raw IEEE-754 bit patterns, so the round trip is exact).
struct CharCheckpoint {
    std::uint64_t fingerprint = 0; ///< journal fingerprint of the run
    std::string module_key;        ///< module identity (name + widths)
    int input_bits = 0;            ///< m, a cheap second identity check
    std::vector<CheckpointShard> shards;
    std::size_t corners = 1; ///< K, the corners every shard block scores
};

/// Atomically publish the whole journal @p checkpoint to @p path (see
/// util::publish_file). Throws FaultError(IoError) when the filesystem
/// refuses.
void save_checkpoint(const std::filesystem::path& path,
                     const CharCheckpoint& checkpoint);

/// The append-only writer of one run's journal. Each merged shard is
/// encoded once into a framed block; publish() creates the file atomically
/// (header plus the queued blocks) the first time and only appends after
/// that, so bytes written grow linearly with the run, and every earlier
/// publish stays a byte prefix of every later one. A kill mid-append
/// leaves a torn last block, which salvage_checkpoint drops.
class CheckpointAppender {
public:
    /// @p identity stamps the journal (its shards are ignored). With
    /// @p on_disk, @p path already holds a valid journal of this identity
    /// and the first publish appends to it.
    CheckpointAppender(std::filesystem::path path, const CharCheckpoint& identity,
                       bool on_disk);

    /// Queue shard @p index's block: @p corners[k] is corner k's records
    /// (all of equal length). No corners, or empty ones, is the empty
    /// block of a failed shard.
    void add(std::size_t index, std::span<const std::vector<CharacterizationRecord>> corners);

    /// Write the queued blocks. The CheckpointShortWrite fault-injection
    /// point may truncate each write on its way to disk.
    void publish();

private:
    std::filesystem::path path_;
    std::size_t corners_;
    std::string pending_; ///< header (until the file exists) plus queued blocks
    bool on_disk_;
};

/// Load a journal. Returns nullopt when @p path does not exist; throws
/// FaultError(CheckpointCorrupt) when the file exists but is malformed
/// (e.g. the torn tail of a killed run, or bit rot).
///
/// @p first_shard is the plan index the journal's shard block sequence must
/// start at: 0 for a whole-run checkpoint, the range start for a fleet
/// worker's per-range journal. Blocks must be contiguous from there.
[[nodiscard]] std::optional<CharCheckpoint> load_checkpoint(
    const std::filesystem::path& path, std::size_t first_shard = 0);

/// Outcome of a tolerant journal read (see salvage_checkpoint).
struct CheckpointSalvage {
    /// The longest valid prefix of the journal's shard blocks; nullopt when
    /// the file does not exist or its identity header is unusable.
    std::optional<CharCheckpoint> checkpoint;
    /// False when any damage was found (a torn tail was dropped, or the
    /// header was unreadable). The caller should quarantine the file as
    /// evidence before republishing over it.
    bool clean = true;
    /// What was wrong, when !clean.
    std::string detail;
};

/// Tolerantly load a journal: where load_checkpoint throws on the torn tail
/// a killed writer leaves behind, this drops the damaged suffix and returns
/// every shard block that parsed whole, so a resume can keep the surviving
/// work instead of recharacterizing from scratch. A block whose frame,
/// checksum or records are damaged is dropped with everything behind it.
/// Never throws CheckpointCorrupt; filesystem-level open failures read as
/// "no checkpoint".
[[nodiscard]] CheckpointSalvage salvage_checkpoint(
    const std::filesystem::path& path, std::size_t first_shard = 0);

} // namespace hdpm::core

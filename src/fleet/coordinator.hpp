#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "dpgen/module.hpp"
#include "fleet/lease.hpp"
#include "gatelib/techlib.hpp"
#include "sim/event_sim.hpp"

namespace hdpm::fleet {

/// One fleet run's configuration, shared in spirit (and partly in fields)
/// between the coordinator and its workers. The characterization options
/// are the same struct a single-process run takes — the fleet is an
/// execution strategy, not a different measurement plan — and everything
/// the plan's identity depends on is fingerprinted into plan.fleet so a
/// mismatched worker refuses instead of contributing foreign records.
struct FleetOptions {
    /// Shared coordination directory (plan / lease / done files). Local or
    /// network filesystem; it only needs atomic O_EXCL create, rename and
    /// link, which POSIX filesystems (incl. NFSv4) provide.
    std::filesystem::path fleet_dir;

    /// Model library directory the coordinator publishes the fitted model
    /// into (coordinator only).
    std::filesystem::path models_dir;

    dp::ModuleType module_type = dp::ModuleType::RippleAdder;
    std::vector<int> widths;
    bool enhanced = false;  ///< fit the enhanced (Hd, zeros) model
    int zero_clusters = 0;  ///< enhanced-model cluster count

    /// The measurement plan. threads is unused: the coordinator never
    /// simulates, and workers run their leased pieces and shards on their
    /// own thread.
    core::CharacterizationOptions char_options;

    /// Shards per leased range — the granularity of work handed to one
    /// worker claim (and therefore of loss on a kill).
    std::size_t lease_shards = 4;

    /// Heartbeat TTL: a lease whose mtime is older than this is considered
    /// dead and re-leased. Must comfortably exceed a worker's worst-case
    /// per-shard wall time plus heartbeat interval.
    double lease_ttl_ms = 5000.0;

    /// Supervision / claim polling cadence.
    double poll_ms = 50.0;

    /// Coordinator only: abort with FaultError{WorkerLost} when no range
    /// completes and no lease activity is observed for this long — the
    /// whole fleet is gone and waiting further would hang forever.
    double idle_timeout_ms = 60000.0;
};

/// Counters of one coordinator run.
struct FleetStats {
    std::size_t num_shards = 0;    ///< shards in the plan
    std::size_t num_ranges = 0;    ///< leased ranges in the plan
    std::size_t calibration_pieces = 0; ///< leased calibration pieces in the plan
    std::size_t ranges_done = 0;   ///< ranges with a validated done file
    std::size_t leases_expired = 0; ///< stale leases removed (range or piece re-opened)
    std::size_t leases_corrupt = 0; ///< corrupt stale leases quarantined
    std::size_t done_corrupt = 0;  ///< corrupt/foreign done files quarantined
    std::size_t skewed_heartbeats = 0; ///< future-dated lease mtimes observed
    std::size_t workers_lost = 0;  ///< distinct worker losses inferred (expiry/corrupt)
    std::size_t shards_merged = 0; ///< shards merged into the final record stream
    std::size_t records = 0;       ///< records in the final stream
    bool converged_early = false;  ///< convergence stopped the merge mid-plan
    double wall_ms = 0.0;          ///< end-to-end coordinator wall time
};

/// The fleet's single coordinator: publishes the plan, supervises the
/// calibration piece and range leases (expiring stragglers, quarantining
/// corrupt coordination files), collects
/// and validates each range's done journal, then merges all ranges in plan
/// order through ShardMerger and fits + stores the model. Because shards
/// are independently seeded and the merge replays the single-process
/// convergence loop exactly, the stored model file is byte-identical to a
/// one-process `hdpower_cli characterize` run of the same options — however
/// many workers ran, died, or raced.
class FleetCoordinator {
public:
    explicit FleetCoordinator(
        FleetOptions options,
        const gate::TechLibrary& library = gate::TechLibrary::generic350(),
        sim::EventSimOptions sim_options = {});

    /// Run the coordination to completion. Throws FaultError{WorkerLost}
    /// when the fleet goes idle past options.idle_timeout_ms, and
    /// FaultError{IoError}/HDPM_FAIL on filesystem refusal.
    FleetStats run();

private:
    FleetOptions options_;
    const gate::TechLibrary* library_;
    sim::EventSimOptions sim_options_;
};

} // namespace hdpm::fleet

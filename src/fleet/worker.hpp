#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "sim/event_sim.hpp"

namespace hdpm::fleet {

/// One fleet worker's configuration. The worker is started with the same
/// module + characterization options as the coordinator; it validates its
/// own plan fingerprint against the published plan.fleet and refuses loudly
/// on any mismatch, so a misconfigured worker can never contribute records
/// from a different stimulus plan. A worker runs every calibration piece
/// and shard it leases on its own thread (char_options.threads is unused);
/// WorkerStats::calibration_pieces_run reports its share of the fleet's one
/// calibration.
struct WorkerOptions {
    std::filesystem::path fleet_dir; ///< shared coordination directory

    dp::ModuleType module_type = dp::ModuleType::RippleAdder;
    std::vector<int> widths;

    /// Must hash to the published plan's fingerprint (same options the
    /// coordinator was started with).
    core::CharacterizationOptions char_options;

    /// Diagnostic identity written into lease files (defaults to
    /// "worker-<pid>" when empty): 1 to 64 characters of [A-Za-z0-9._-],
    /// else the FleetWorker constructor throws FaultError{ProtocolError}.
    std::string worker_id;

    double poll_ms = 50.0;        ///< claim-scan cadence
    double plan_wait_ms = 30000.0; ///< how long to wait for plan.fleet

    /// Minimum gap between mid-shard lease heartbeats. The worker also
    /// heartbeats between shards; the mid-shard ticks are what let the
    /// lease TTL shrink below one shard's wall time (a large shard no
    /// longer looks dead while it is still simulating).
    double heartbeat_interval_ms = 500.0;
};

/// Counters of one worker run.
struct WorkerStats {
    std::size_t ranges_completed = 0;   ///< ranges this worker published
    std::size_t ranges_abandoned = 0;   ///< leases lost mid-range (expired/corrupt)
    std::size_t ranges_failed = 0;      ///< ranges abandoned to a shard failure
    std::size_t duplicate_publishes = 0; ///< lost a first-wins publish race
    std::size_t shards_run = 0;         ///< shards simulated (incl. abandoned)
    std::size_t heartbeats = 0;         ///< successful between-shard heartbeats
    std::size_t mid_shard_heartbeats = 0; ///< successful heartbeats inside a shard
    std::size_t calibration_pieces_run = 0; ///< calibration pieces simulated
    /// Damaged or foreign calibration piece files set aside (and rerun).
    std::size_t calibration_pieces_quarantined = 0;
};

/// A fleet worker: first calibrates with the fleet — claims open
/// calibration pieces with O_EXCL leases, runs and publishes them, then
/// fits its weights from every published piece, so the fleet runs each
/// piece once instead of every worker running all of them — then claims
/// open ranges the same way, simulates the leased shards, heartbeats
/// between shards, and publishes each range's record blocks as a
/// first-wins done journal. A worker that loses its
/// lease (SIGKILLed sibling's range was re-leased past the TTL, or its own
/// heartbeat finds the lease gone / held by a successor token) abandons the
/// range without publishing — the successor's publish is authoritative, and
/// since shards are deterministic a duplicate publish would be
/// byte-identical anyway. Exits when every range in the plan is done.
class FleetWorker {
public:
    explicit FleetWorker(
        WorkerOptions options,
        const gate::TechLibrary& library = gate::TechLibrary::generic350(),
        sim::EventSimOptions sim_options = {});

    /// Run until all ranges are done. Throws FaultError{ProtocolError} on a
    /// plan/options mismatch, and rethrows a shard failure when it is the
    /// only thing standing between the fleet and completion (no other
    /// worker can be handed the poisoned range).
    WorkerStats run();

private:
    WorkerOptions options_;
    const gate::TechLibrary* library_;
    sim::EventSimOptions sim_options_;
};

} // namespace hdpm::fleet

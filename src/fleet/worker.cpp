#include "fleet/worker.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <random>
#include <set>
#include <thread>
#include <utility>

#include <unistd.h>

#include "core/checkpoint.hpp"
#include "fleet/lease.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/file_io.hpp"

namespace hdpm::fleet {

using util::FaultContext;
using util::FaultError;
using util::FaultKind;

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(const Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - since).count();
}

void sleep_ms(const double ms)
{
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// A fresh claim token: unique enough that a worker can tell its own lease
/// from a successor's after an expiry. Not security, just identity.
std::uint64_t random_token()
{
    static std::atomic<std::uint64_t> counter{0};
    std::random_device rd;
    std::uint64_t x = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    x ^= static_cast<std::uint64_t>(::getpid()) << 48;
    x += counter.fetch_add(0x9e37'79b9'7f4a'7c15ULL, std::memory_order_relaxed);
    x ^= x >> 30;
    x *= 0xbf58'476d'1ce4'e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d0'49bb'1331'11ebULL;
    x ^= x >> 31;
    return x;
}

/// Remove our lease iff we still own it (token match). The read/remove pair
/// is not atomic; in the worst interleaving (the coordinator expires us and
/// a successor claims between the two calls) we unlink the successor's
/// lease, which the successor detects at its next heartbeat and abandons —
/// the range re-opens, so liveness is preserved and no wrong result is
/// ever published.
void release_lease(const std::filesystem::path& path, const std::uint64_t token)
{
    LeaseInfo current;
    if (read_lease(path, current) == LeaseRead::Ok && current.token == token) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
}

/// The calibration phase: claim and run open pieces under the lease
/// protocol ranges use, read every published piece back (this worker's own
/// included) and fit @p runner's weights once all of them check out. A
/// piece file that is damaged or stamped for another plan, piece or shape
/// is quarantined and the piece run again; its bytes are never trusted.
/// A piece is published even when its lease expired while it ran: pieces
/// are deterministic, so a first-wins duplicate is byte-identical.
void calibrate(const WorkerOptions& options, const FleetPlan& plan,
               const dp::DatapathModule& module, core::ShardRunner& runner,
               WorkerStats& stats)
{
    const std::vector<core::CalibrationPiece>& pieces = runner.calibration_pieces();
    if (pieces.empty()) {
        return; // nothing to calibrate: the runner is complete
    }
    const bool emulation =
        options.char_options.backend == core::CharBackend::PowerEmulation;
    std::vector<core::CalibrationPieceResult> results(pieces.size());
    std::vector<bool> loaded(pieces.size(), false);
    std::size_t remaining = pieces.size();
    while (remaining > 0) {
        bool ran = false;
        for (std::size_t i = 0; i < pieces.size(); ++i) {
            if (loaded[i]) {
                continue;
            }
            const PieceStamp stamp{plan.fingerprint,
                                   plan.module_key,
                                   i,
                                   pieces[i],
                                   module.netlist().num_nets(),
                                   emulation && pieces[i].timing_class == 0};
            const std::filesystem::path done_path = options.fleet_dir / calib_done_name(i);
            const PieceRead read = read_calibration_piece(done_path, stamp, results[i]);
            if (read == PieceRead::Ok) {
                loaded[i] = true;
                --remaining;
                continue;
            }
            if (read == PieceRead::Rejected && util::quarantine_file(done_path)) {
                ++stats.calibration_pieces_quarantined;
            }

            const std::filesystem::path lease_path = options.fleet_dir / calib_lease_name(i);
            std::error_code ec;
            if (std::filesystem::exists(lease_path, ec)) {
                continue; // held, or a carcass the coordinator will reap
            }
            const LeaseInfo mine{options.worker_id, random_token(), i, 1};
            if (!claim_lease(lease_path, mine)) {
                continue; // lost the O_EXCL race
            }
            if (std::filesystem::exists(done_path, ec)) {
                // Published between our read and our claim: the holder
                // publishes before it releases, so nothing is left to run.
                release_lease(lease_path, mine.token);
                continue;
            }
            core::CalibrationPieceResult result;
            try {
                result = runner.run_calibration_piece(i);
            } catch (...) {
                release_lease(lease_path, mine.token);
                throw;
            }
            ++stats.calibration_pieces_run;
            const std::filesystem::path tmp =
                options.fleet_dir / (calib_done_name(i) + "." + options.worker_id + ".pub");
            write_calibration_piece(tmp, stamp, result);
            if (!publish_first_wins(tmp, done_path)) {
                ++stats.duplicate_publishes;
            }
            release_lease(lease_path, mine.token);
            ran = true;
        }
        if (remaining > 0 && !ran) {
            sleep_ms(options.poll_ms);
        }
    }
    runner.fit_calibration(results);
}

} // namespace

FleetWorker::FleetWorker(WorkerOptions options, const gate::TechLibrary& library,
                         sim::EventSimOptions sim_options)
    : options_(std::move(options)), library_(&library), sim_options_(sim_options)
{
    if (options_.worker_id.empty()) {
        options_.worker_id = "worker-" + std::to_string(::getpid());
    }
    if (!valid_worker_id(options_.worker_id)) {
        FaultContext context;
        context.component = options_.fleet_dir.string();
        context.detail = "invalid worker id '" + options_.worker_id +
                         "': use 1 to 64 characters of [A-Za-z0-9._-]";
        throw FaultError{FaultKind::ProtocolError, std::move(context)};
    }
}

WorkerStats FleetWorker::run()
{
    HDPM_REQUIRE(!options_.fleet_dir.empty(), "fleet worker needs a fleet_dir");

    // --- Wait for the coordinator's plan. ---
    std::optional<FleetPlan> plan;
    const auto wait_start = Clock::now();
    while (!(plan = read_plan(options_.fleet_dir))) {
        if (elapsed_ms(wait_start) > options_.plan_wait_ms) {
            FaultContext context;
            context.component = options_.fleet_dir.string();
            context.detail = "no fleet plan published within " +
                             std::to_string(options_.plan_wait_ms) + " ms";
            throw FaultError{FaultKind::ProtocolError, std::move(context)};
        }
        sleep_ms(options_.poll_ms);
    }

    // --- Build the shard runner and prove we share the plan. Its weights
    // are fitted from the fleet's calibration pieces, not recomputed here. ---
    const core::CharacterizationOptions effective =
        resolve_plan_options(options_.char_options, plan->enhanced);
    const dp::DatapathModule module =
        dp::make_module(options_.module_type, options_.widths);
    core::ShardRunner runner{module, effective, *library_, sim_options_,
                             core::ShardRunner::Calibration::FromPieces};
    if (runner.fingerprint() != plan->fingerprint ||
        runner.module_key() != plan->module_key ||
        runner.input_bits() != plan->input_bits ||
        runner.num_shards() != plan->num_shards ||
        runner.shard_size() != plan->shard_size ||
        runner.calibration_pieces().size() != plan->calibration_pieces) {
        FaultContext context;
        context.component = options_.fleet_dir.string();
        context.bitwidth = runner.input_bits();
        context.detail = "worker options disagree with the published plan (module '" +
                         runner.module_key() + "' vs plan '" + plan->module_key +
                         "') — refusing to contribute foreign records";
        throw FaultError{FaultKind::ProtocolError, std::move(context)};
    }

    WorkerStats stats;
    calibrate(options_, *plan, module, runner, stats);

    std::set<std::size_t> poisoned; // ranges this worker failed a shard of
    std::exception_ptr first_failure;

    for (;;) {
        bool all_done = true;
        bool others_active = false;
        for (std::size_t start = 0; start < plan->num_shards;
             start += plan->lease_shards) {
            const std::filesystem::path done_path =
                options_.fleet_dir / done_name(start);
            std::error_code ec;
            if (std::filesystem::exists(done_path, ec)) {
                continue;
            }
            all_done = false;
            const std::filesystem::path lease_path =
                options_.fleet_dir / lease_name(start);
            if (poisoned.count(start) != 0) {
                if (std::filesystem::exists(lease_path, ec)) {
                    others_active = true; // someone braver is on it
                }
                continue;
            }
            if (std::filesystem::exists(lease_path, ec)) {
                // Held (or a stale carcass the coordinator will reap —
                // workers never expire leases themselves, so claim/expiry
                // authority cannot race between peers).
                others_active = true;
                continue;
            }

            // --- Claim. ---
            LeaseInfo mine;
            mine.worker = options_.worker_id;
            mine.token = random_token();
            mine.start = start;
            mine.count = range_count(*plan, start);
            if (!claim_lease(lease_path, mine)) {
                others_active = true; // lost the O_EXCL race
                continue;
            }
            if (std::filesystem::exists(done_path, ec)) {
                release_lease(lease_path, mine.token); // published meanwhile
                continue;
            }

            // --- Run the leased shards, heartbeating between them. The
            // lease TTL therefore bounds a single shard's wall time. ---
            core::CharCheckpoint journal;
            journal.fingerprint = plan->fingerprint;
            journal.module_key = plan->module_key;
            journal.input_bits = plan->input_bits;
            bool lost = false;
            bool failed = false;

            // Mid-shard heartbeat tick: invoked by the runner between
            // stimulus batches. Throttled to heartbeat_interval_ms so a
            // fast shard doesn't hammer the lease file; a detected loss
            // (expired + re-leased under us) stops further ticks and the
            // range is abandoned once the in-flight shard returns — ticks
            // must not throw, so the shard itself is never interrupted.
            auto last_beat = Clock::now();
            bool lost_mid_shard = false;
            const core::ShardRunner::TickFn tick = [&]() {
                if (lost_mid_shard ||
                    elapsed_ms(last_beat) < options_.heartbeat_interval_ms) {
                    return;
                }
                last_beat = Clock::now();
                LeaseInfo current;
                if (read_lease(lease_path, current) != LeaseRead::Ok ||
                    current.token != mine.token || !heartbeat_lease(lease_path)) {
                    lost_mid_shard = true;
                    return;
                }
                ++stats.mid_shard_heartbeats;
            };

            for (std::size_t shard = start; shard < start + mine.count; ++shard) {
                try {
                    std::vector<core::CharacterizationRecord> block =
                        runner.run(shard, tick);
                    ++stats.shards_run;
                    journal.shards.push_back({shard, std::move(block)});
                } catch (...) {
                    // Fleet shards run strict: a failing shard poisons the
                    // whole range for this worker. Release the lease so a
                    // sibling can try (maybe the fault was environmental),
                    // and keep the failure in case nobody can.
                    release_lease(lease_path, mine.token);
                    poisoned.insert(start);
                    ++stats.ranges_failed;
                    if (!first_failure) {
                        first_failure = std::current_exception();
                    }
                    failed = true;
                    break;
                }
                if (lost_mid_shard) {
                    lost = true;
                    ++stats.ranges_abandoned;
                    break;
                }
                LeaseInfo current;
                switch (read_lease(lease_path, current)) {
                case LeaseRead::Missing:
                    lost = true; // expired and reaped — successor owns the range
                    break;
                case LeaseRead::Corrupt:
                    // Unreadable lease (e.g. our own claim was torn by a
                    // fault): ownership is unprovable, so abandon and let
                    // the coordinator's TTL sweep quarantine it.
                    lost = true;
                    break;
                case LeaseRead::Ok:
                    if (current.token != mine.token) {
                        lost = true; // a successor claimed after our expiry
                    } else if (!heartbeat_lease(lease_path)) {
                        lost = true; // vanished under us
                    } else {
                        ++stats.heartbeats;
                    }
                    break;
                }
                if (lost) {
                    ++stats.ranges_abandoned;
                    break;
                }
            }
            if (lost || failed) {
                continue;
            }

            // --- Publish first-wins. A duplicate (we were presumed dead,
            // a successor already published) is discarded unread: shards
            // are deterministic, both payloads are byte-identical. ---
            const std::filesystem::path tmp =
                options_.fleet_dir /
                (done_name(start) + "." + options_.worker_id + ".pub");
            core::save_checkpoint(tmp, journal);
            if (publish_first_wins(tmp, done_path)) {
                ++stats.ranges_completed;
            } else {
                ++stats.duplicate_publishes;
            }
            release_lease(lease_path, mine.token);
        }

        if (all_done) {
            return stats;
        }
        if (!others_active && first_failure) {
            // Every outstanding range is poisoned for us and nobody else
            // is working: surface the shard failure instead of spinning.
            std::rethrow_exception(first_failure);
        }
        sleep_ms(options_.poll_ms);
    }
}

} // namespace hdpm::fleet

// Tests of the crash-tolerant characterization fleet: the filesystem lease
// protocol (O_EXCL claims, heartbeats, first-wins publishes), the
// coordinator's supervision duties (straggler expiry, corrupt-file
// quarantine, clock-skew clamping), worker plan validation, and — the
// property everything else exists to protect — that a fleet of any number
// of workers stores a model file byte-identical to a single-process run,
// with the plan's calibration run once, as leased pieces, across the fleet.
//
// Fault-injection-hook tests are single-worker by design: the injector is
// process-global and not thread-safe, and in these scenarios only the one
// worker thread passes the armed points.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/model_library.hpp"
#include "dpgen/module.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/lease.hpp"
#include "fleet/worker.hpp"
#include "oracles/journal_v2.hpp"
#include "util/fault.hpp"

namespace hdpm::fleet {
namespace {

using core::CharacterizationOptions;
using dp::ModuleType;
using util::FaultError;
using util::FaultInjector;
using util::FaultKind;
using util::FaultPoint;
using util::ScopedFaultInjector;

#if defined(HDPM_FAULT_INJECTION) && HDPM_FAULT_INJECTION
constexpr bool kHooksCompiled = true;
#else
constexpr bool kHooksCompiled = false;
#endif

#define SKIP_WITHOUT_HOOKS()                                                             \
    if (!kHooksCompiled) {                                                               \
        GTEST_SKIP() << "fault-injection hooks compiled out (Release build)";            \
    }

constexpr ModuleType kModule = ModuleType::RippleAdder;
const std::vector<int> kWidths = {4};

std::filesystem::path fresh_dir(const std::string& name)
{
    const std::filesystem::path dir = std::filesystem::path{::testing::TempDir()} / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string read_file(const std::filesystem::path& path)
{
    std::ifstream in{path, std::ios::binary};
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// 8 shards of 50 records on a small adder, convergence disabled.
CharacterizationOptions small_plan()
{
    CharacterizationOptions options;
    options.max_transitions = 400;
    options.min_transitions = 400;
    options.batch = 400;
    options.shard_size = 50;
    options.seed = 9;
    options.threads = 1;
    return options;
}

FleetOptions make_fleet_options(const std::filesystem::path& fleet_dir,
                                const std::filesystem::path& models_dir,
                                const CharacterizationOptions& options)
{
    FleetOptions fo;
    fo.fleet_dir = fleet_dir;
    fo.models_dir = models_dir;
    fo.module_type = kModule;
    fo.widths = kWidths;
    fo.char_options = options;
    fo.lease_shards = 3; // ranges {0,1,2} {3,4,5} {6,7}
    fo.lease_ttl_ms = 400.0;
    fo.poll_ms = 5.0;
    fo.idle_timeout_ms = 30000.0;
    return fo;
}

WorkerOptions make_worker_options(const std::filesystem::path& fleet_dir,
                                  const CharacterizationOptions& options,
                                  const std::string& id)
{
    WorkerOptions wo;
    wo.fleet_dir = fleet_dir;
    wo.module_type = kModule;
    wo.widths = kWidths;
    wo.char_options = options;
    wo.worker_id = id;
    wo.poll_ms = 5.0;
    return wo;
}

/// Run a coordinator plus @p num_workers worker threads to completion.
/// Workers loop until the coordinator finishes, so a range the coordinator
/// re-opens late (e.g. a quarantined done file) is always re-claimed. The
/// counters of every completed worker run land in @p worker_runs when set.
FleetStats run_fleet(const FleetOptions& fleet_options,
                     const CharacterizationOptions& worker_char_options,
                     const int num_workers,
                     std::vector<WorkerStats>* worker_runs = nullptr)
{
    std::atomic<bool> coordinator_done{false};
    std::mutex runs_mutex;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
        workers.emplace_back([&, w] {
            while (!coordinator_done.load()) {
                try {
                    FleetWorker worker{make_worker_options(
                        fleet_options.fleet_dir, worker_char_options,
                        "w" + std::to_string(w))};
                    const WorkerStats stats = worker.run();
                    if (worker_runs != nullptr) {
                        const std::lock_guard<std::mutex> lock{runs_mutex};
                        worker_runs->push_back(stats);
                    }
                } catch (...) {
                    // Surfaced via the coordinator (idle timeout) if fatal.
                }
                std::this_thread::sleep_for(std::chrono::milliseconds{10});
            }
        });
    }
    FleetStats stats;
    try {
        FleetCoordinator coordinator{fleet_options};
        stats = coordinator.run();
    } catch (...) {
        coordinator_done.store(true);
        for (auto& thread : workers) {
            thread.join();
        }
        throw;
    }
    coordinator_done.store(true);
    for (auto& thread : workers) {
        thread.join();
    }
    return stats;
}

/// small_plan() on the power-emulation backend with the default 512-pair
/// calibration: 11 chain pieces (ten calibration shards of 50, one of 12).
CharacterizationOptions emulation_plan()
{
    CharacterizationOptions options = small_plan();
    options.backend = core::CharBackend::PowerEmulation;
    return options;
}

constexpr std::size_t kEmulationPieces = 11;

std::size_t pieces_run(const std::vector<WorkerStats>& runs)
{
    std::size_t total = 0;
    for (const WorkerStats& run : runs) {
        total += run.calibration_pieces_run;
    }
    return total;
}

std::size_t pieces_quarantined(const std::vector<WorkerStats>& runs)
{
    std::size_t total = 0;
    for (const WorkerStats& run : runs) {
        total += run.calibration_pieces_quarantined;
    }
    return total;
}

/// A runner of @p options' plan that runs calibration pieces, plus the
/// stamp a fleet of that plan writes on piece @p index.
struct PieceSource {
    explicit PieceSource(const CharacterizationOptions& options)
        : module(dp::make_module(kModule, kWidths)),
          runner(module, resolve_plan_options(options, false),
                 gate::TechLibrary::generic350(), {},
                 core::ShardRunner::Calibration::FromPieces)
    {
    }

    [[nodiscard]] PieceStamp stamp(std::size_t index) const
    {
        return PieceStamp{runner.fingerprint(),
                          runner.module_key(),
                          index,
                          runner.calibration_pieces()[index],
                          module.netlist().num_nets(),
                          runner.calibration_pieces()[index].timing_class == 0};
    }

    dp::DatapathModule module;
    core::ShardRunner runner;
};

/// The single-process reference file for @p options (basic model), read as
/// raw bytes, plus its file name.
std::pair<std::string, std::string> reference_model_bytes(
    const std::filesystem::path& dir, const CharacterizationOptions& options,
    const bool enhanced = false, const int zero_clusters = 0)
{
    const core::ModelLibrary library{dir};
    std::string name = library.model_key(kModule, kWidths);
    if (enhanced) {
        (void)library.get_or_characterize_enhanced(kModule, kWidths, zero_clusters,
                                                   options);
        name += ".z" + std::to_string(zero_clusters) + ".ehdm";
    } else {
        (void)library.get_or_characterize(kModule, kWidths, options);
        name += ".hdm";
    }
    return {read_file(dir / name), name};
}

// ------------------------------------------------------------ lease files

TEST(LeaseProtocol, ClaimIsExclusiveAndRoundTrips)
{
    const auto dir = fresh_dir("lease_claim");
    const auto path = dir / lease_name(3);

    LeaseInfo mine{"w1", 0xabcdef0011223344ULL, 3, 4};
    ASSERT_TRUE(claim_lease(path, mine));
    // The name is taken: a second contender loses, whoever it is.
    EXPECT_FALSE(claim_lease(path, LeaseInfo{"w2", 7, 3, 4}));

    LeaseInfo seen;
    ASSERT_EQ(read_lease(path, seen), LeaseRead::Ok);
    EXPECT_EQ(seen.worker, "w1");
    EXPECT_EQ(seen.token, mine.token);
    EXPECT_EQ(seen.start, 3U);
    EXPECT_EQ(seen.count, 4U);
}

TEST(LeaseProtocol, ReadLeaseClassifiesMissingAndCorrupt)
{
    const auto dir = fresh_dir("lease_read");
    LeaseInfo out;
    EXPECT_EQ(read_lease(dir / "absent.lease", out), LeaseRead::Missing);

    const auto torn = dir / "torn.lease";
    std::ofstream{torn} << "hdpm_lease 1\nworker w1\ntok";
    EXPECT_EQ(read_lease(torn, out), LeaseRead::Corrupt);

    const auto foreign = dir / "foreign.lease";
    std::ofstream{foreign} << "not a lease at all\n";
    EXPECT_EQ(read_lease(foreign, out), LeaseRead::Corrupt);
}

TEST(LeaseProtocol, HeartbeatRefreshesMtimeAndReportsExpiry)
{
    const auto dir = fresh_dir("lease_heartbeat");
    const auto path = dir / lease_name(0);
    ASSERT_TRUE(claim_lease(path, LeaseInfo{"w1", 1, 0, 2}));

    // Backdate, heartbeat, and the age collapses back to ~zero.
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now() - std::chrono::hours{1});
    ASSERT_GE(file_age_ms(path).value(), 3.5e6);
    ASSERT_TRUE(heartbeat_lease(path));
    EXPECT_LT(file_age_ms(path).value(), 60000.0);

    // A reaped lease cannot be heartbeat back to life.
    std::filesystem::remove(path);
    EXPECT_FALSE(heartbeat_lease(path));
    EXPECT_FALSE(file_age_ms(path).has_value());
}

TEST(LeaseProtocol, PlanRoundTripsAndRejectsDamage)
{
    const auto dir = fresh_dir("plan_roundtrip");
    EXPECT_FALSE(read_plan(dir).has_value());

    FleetPlan plan;
    plan.fingerprint = 0x0123456789abcdefULL;
    plan.module_key = "ripple_adder_4x4";
    plan.input_bits = 8;
    plan.num_shards = 8;
    plan.shard_size = 50;
    plan.lease_shards = 3;
    plan.enhanced = true;
    plan.zero_clusters = 2;
    plan.calibration_pieces = 11;
    write_plan(dir, plan);

    const auto seen = read_plan(dir);
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(seen->fingerprint, plan.fingerprint);
    EXPECT_EQ(seen->module_key, plan.module_key);
    EXPECT_EQ(seen->input_bits, plan.input_bits);
    EXPECT_EQ(seen->num_shards, plan.num_shards);
    EXPECT_EQ(seen->shard_size, plan.shard_size);
    EXPECT_EQ(seen->lease_shards, plan.lease_shards);
    EXPECT_TRUE(seen->enhanced);
    EXPECT_EQ(seen->zero_clusters, 2);
    EXPECT_EQ(seen->calibration_pieces, 11U);

    EXPECT_EQ(num_ranges(*seen), 3U);
    EXPECT_EQ(range_count(*seen, 0), 3U);
    EXPECT_EQ(range_count(*seen, 6), 2U); // last range is short
    EXPECT_EQ(range_count(*seen, 9), 0U);

    // A damaged plan file is corruption (the publish is atomic), and reads
    // as a structured protocol fault, never as "no plan yet".
    std::ofstream{dir / kPlanFileName, std::ios::trunc} << "hdpm_fleet 1\ngarbage\n";
    try {
        (void)read_plan(dir);
        FAIL() << "damaged plan was accepted";
    } catch (const FaultError& error) {
        EXPECT_EQ(error.kind(), FaultKind::ProtocolError);
    }
}

TEST(LeaseProtocol, CalibrationPieceRoundTripsAndRejectsDamage)
{
    const auto dir = fresh_dir("piece_roundtrip");
    const PieceSource source{emulation_plan()};
    const PieceStamp stamp = source.stamp(3);
    const core::CalibrationPieceResult result = source.runner.run_calibration_piece(3);
    const auto path = dir / calib_done_name(3);

    core::CalibrationPieceResult seen;
    EXPECT_EQ(read_calibration_piece(path, stamp, seen), PieceRead::Missing);
    write_calibration_piece(path, stamp, result);
    ASSERT_EQ(read_calibration_piece(path, stamp, seen), PieceRead::Ok);
    EXPECT_EQ(seen.charges, result.charges); // raw IEEE-754 bits: exact
    EXPECT_EQ(seen.event_toggles, result.event_toggles);
    EXPECT_EQ(seen.zero_toggles, result.zero_toggles);

    // Stamped for another piece, plan or shape: refused.
    PieceStamp other = stamp;
    other.index = 4;
    EXPECT_EQ(read_calibration_piece(path, other, seen), PieceRead::Rejected);
    other = stamp;
    other.fingerprint ^= 1;
    EXPECT_EQ(read_calibration_piece(path, other, seen), PieceRead::Rejected);
    other = stamp;
    other.nets += 1;
    EXPECT_EQ(read_calibration_piece(path, other, seen), PieceRead::Rejected);

    // Every truncation, and trailing bytes, are damage.
    const std::string bytes = read_file(path);
    for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
        std::ofstream{path, std::ios::binary | std::ios::trunc} << bytes.substr(0, keep);
        EXPECT_EQ(read_calibration_piece(path, stamp, seen), PieceRead::Rejected) << keep;
    }
    std::ofstream{path, std::ios::binary | std::ios::trunc} << bytes << "0";
    EXPECT_EQ(read_calibration_piece(path, stamp, seen), PieceRead::Rejected);
    // A file far larger than any piece is refused without being read whole.
    std::ofstream{path, std::ios::binary | std::ios::trunc} << bytes << std::string(1 << 20, '7');
    EXPECT_EQ(read_calibration_piece(path, stamp, seen), PieceRead::Rejected);
}

TEST(LeaseProtocol, PublishIsFirstWins)
{
    const auto dir = fresh_dir("publish_first_wins");
    const auto final_path = dir / done_name(0);

    const auto tmp_a = dir / "a.pub";
    const auto tmp_b = dir / "b.pub";
    std::ofstream{tmp_a} << "payload A\n";
    std::ofstream{tmp_b} << "payload A\n"; // duplicates are identical by design

    EXPECT_TRUE(publish_first_wins(tmp_a, final_path));
    EXPECT_FALSE(std::filesystem::exists(tmp_a)); // tmp always retired
    EXPECT_FALSE(publish_first_wins(tmp_b, final_path));
    EXPECT_FALSE(std::filesystem::exists(tmp_b));
    EXPECT_EQ(read_file(final_path), "payload A\n");
}

// ------------------------------------------------------- fleet end to end

TEST(FleetTest, SingleWorkerIsByteIdenticalToSingleProcess)
{
    const auto options = small_plan();
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("f1_ref"), options);

    const auto models = fresh_dir("f1_models");
    const auto stats = run_fleet(
        make_fleet_options(fresh_dir("f1_fleet"), models, options), options, 1);

    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(stats.num_shards, 8U);
    EXPECT_EQ(stats.shards_merged, 8U);
    EXPECT_EQ(stats.records, 400U);
    EXPECT_FALSE(stats.converged_early);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, ManyWorkersAreByteIdenticalToSingleProcess)
{
    const auto options = small_plan();
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("f3_ref"), options);

    const auto models = fresh_dir("f3_models");
    const auto stats = run_fleet(
        make_fleet_options(fresh_dir("f3_fleet"), models, options), options, 3);

    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, EnhancedModelIsByteIdenticalToSingleProcess)
{
    const auto options = small_plan();
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("fe_ref"), options, true, 2);

    const auto models = fresh_dir("fe_models");
    auto fleet_options =
        make_fleet_options(fresh_dir("fe_fleet"), models, options);
    fleet_options.enhanced = true;
    fleet_options.zero_clusters = 2;
    const auto stats = run_fleet(fleet_options, options, 2);

    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, ConvergenceStopsTheMergeExactlyLikeSingleProcess)
{
    // Converge well before the budget: the coordinator's merge must stop at
    // the same record the single-process loop stops at, discarding the
    // later ranges' (still published) blocks.
    auto options = small_plan();
    options.min_transitions = 100;
    options.batch = 50;
    options.tolerance = 1e6; // first eligible check converges

    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("fc_ref"), options);

    const auto models = fresh_dir("fc_models");
    const auto stats = run_fleet(
        make_fleet_options(fresh_dir("fc_fleet"), models, options), options, 2);

    EXPECT_TRUE(stats.converged_early);
    EXPECT_LT(stats.shards_merged, stats.num_shards);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, StragglerLeaseIsExpiredAndReLeased)
{
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("straggler_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("straggler_ref"), options);

    // A SIGKILLed worker's carcass: a claimed lease whose heartbeat stopped
    // long ago. The coordinator must reap it and let a live worker take the
    // range; the dead worker never publishes, so the fleet's result comes
    // entirely from the successor.
    ASSERT_TRUE(claim_lease(fleet_dir / lease_name(0),
                            LeaseInfo{"dead-worker", 0xdeadULL, 0, 3}));
    std::filesystem::last_write_time(
        fleet_dir / lease_name(0),
        std::filesystem::file_time_type::clock::now() - std::chrono::minutes{10});

    const auto models = fresh_dir("straggler_models");
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1);

    EXPECT_GE(stats.leases_expired, 1U);
    EXPECT_GE(stats.workers_lost, 1U);
    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, CorruptLeaseIsQuarantinedNotTrusted)
{
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("corrupt_lease_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("corrupt_lease_ref"), options);

    // A torn lease (killed mid-claim on a non-atomic filesystem), already
    // stale. The coordinator must set it aside as evidence — not delete it,
    // not trust it — and re-open the range.
    std::ofstream{fleet_dir / lease_name(3)} << "hdpm_lease 1\nworker w";
    std::filesystem::last_write_time(
        fleet_dir / lease_name(3),
        std::filesystem::file_time_type::clock::now() - std::chrono::minutes{10});

    const auto models = fresh_dir("corrupt_lease_models");
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1);

    EXPECT_GE(stats.leases_corrupt, 1U);
    EXPECT_TRUE(std::filesystem::exists(fleet_dir / (lease_name(3) + ".corrupt")));
    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, SkewedHeartbeatIsClampedCountedAndExpired)
{
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("skew_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("skew_ref"), options);

    // A lease whose holder's clock jumped an hour ahead: its mtime is in
    // the future, so its "age" is hugely negative. The coordinator must not
    // wedge on the arithmetic, must count the observation, and — since a
    // future-dated heartbeat beyond the TTL cannot be a live worker — must
    // expire the lease rather than wait an hour for it to look stale.
    ASSERT_TRUE(claim_lease(fleet_dir / lease_name(6),
                            LeaseInfo{"skewed-worker", 0xbeefULL, 6, 2}));
    std::filesystem::last_write_time(
        fleet_dir / lease_name(6),
        std::filesystem::file_time_type::clock::now() + std::chrono::hours{1});

    const auto models = fresh_dir("skew_models");
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1);

    EXPECT_GE(stats.skewed_heartbeats, 1U);
    EXPECT_GE(stats.leases_expired, 1U);
    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, CorruptDoneJournalIsQuarantinedAndRangeRedone)
{
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("corrupt_done_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("corrupt_done_ref"), options);

    // Garbage squatting on a done-file name (bit rot, or a foreign run's
    // debris). The coordinator must quarantine it and have the range redone
    // rather than merge unverified records.
    std::ofstream{fleet_dir / done_name(0)} << "hdpm_checkpoint 1\ngarbage\n";

    const auto models = fresh_dir("corrupt_done_models");
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1);

    EXPECT_GE(stats.done_corrupt, 1U);
    EXPECT_TRUE(std::filesystem::exists(fleet_dir / (done_name(0) + ".corrupt")));
    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, DoneJournalDeclaringAHugeCountIsQuarantinedAndRangeRedone)
{
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("huge_count_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("huge_count_ref"), options);

    // A done file of the right plan whose checksummed block declares far
    // more records than it holds. The parser must refuse it as corrupt
    // (never try to allocate the count), so the coordinator quarantines it
    // and the range re-opens instead of the coordinator dying.
    const dp::DatapathModule module = dp::make_module(kModule, kWidths);
    const core::ShardRunner runner{module, resolve_plan_options(options, false)};
    std::ofstream{fleet_dir / done_name(0), std::ios::binary}
        << oracle::journal_header(runner.fingerprint(), runner.module_key(),
                                  runner.input_bits(), 1)
        << oracle::journal_block("shard 0 100000000000000\n"
                                 "1 0 0000000000000001 3ff0000000000000\n");

    const auto models = fresh_dir("huge_count_models");
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1);

    EXPECT_GE(stats.done_corrupt, 1U);
    EXPECT_TRUE(std::filesystem::exists(fleet_dir / (done_name(0) + ".corrupt")));
    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, PrePublishedRangeIsMergedNotRedone)
{
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("prepub_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("prepub_ref"), options);

    // A done journal published by a previous (killed) fleet round survives
    // in the directory. The new round must accept and merge it — shards are
    // deterministic, so the work needn't be repeated.
    const dp::DatapathModule module = dp::make_module(kModule, kWidths);
    const core::ShardRunner runner{module, resolve_plan_options(options, false)};
    core::CharCheckpoint journal;
    journal.fingerprint = runner.fingerprint();
    journal.module_key = runner.module_key();
    journal.input_bits = runner.input_bits();
    for (std::size_t shard = 0; shard < 3; ++shard) {
        journal.shards.push_back({shard, runner.run(shard)});
    }
    const auto tmp = fleet_dir / "prepub.pub";
    core::save_checkpoint(tmp, journal);
    ASSERT_TRUE(publish_first_wins(tmp, fleet_dir / done_name(0)));

    const auto models = fresh_dir("prepub_models");
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1);

    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, MidShardHeartbeatsKeepALeaseAliveUnderAShortTtl)
{
    // One range of one big shard whose wall time exceeds the lease TTL
    // several times over. Without mid-shard heartbeats the coordinator
    // would expire the lease while the worker is still simulating its
    // first (and only) shard; the in-shard ticks keep the lease fresh,
    // so the fleet completes with zero expiries, zero abandoned ranges,
    // and a byte-identical model.
    CharacterizationOptions options;
    options.max_transitions = 12000;
    options.min_transitions = 12000;
    options.batch = 12000;
    options.shard_size = 12000;
    options.seed = 9;
    options.threads = 1;
    const ModuleType module_type = ModuleType::CsaMultiplier;
    const std::vector<int> widths = {8, 8};

    const auto ref_dir = fresh_dir("midbeat_ref");
    const core::ModelLibrary ref_library{ref_dir};
    (void)ref_library.get_or_characterize(module_type, widths, options);
    const std::string name = ref_library.model_key(module_type, widths) + ".hdm";
    const std::string ref_bytes = read_file(ref_dir / name);

    const auto fleet_dir = fresh_dir("midbeat_fleet");
    const auto models = fresh_dir("midbeat_models");
    FleetOptions fo;
    fo.fleet_dir = fleet_dir;
    fo.models_dir = models;
    fo.module_type = module_type;
    fo.widths = widths;
    fo.char_options = options;
    fo.lease_shards = 1;
    fo.lease_ttl_ms = 80.0; // several times shorter than one shard
    fo.poll_ms = 5.0;
    fo.idle_timeout_ms = 30000.0;

    WorkerOptions wo;
    wo.fleet_dir = fleet_dir;
    wo.module_type = module_type;
    wo.widths = widths;
    wo.char_options = options;
    wo.worker_id = "midbeat-worker";
    wo.poll_ms = 5.0;
    wo.heartbeat_interval_ms = 10.0;

    WorkerStats worker_stats;
    std::thread worker_thread{[&] {
        FleetWorker worker{wo};
        worker_stats = worker.run();
    }};
    FleetCoordinator coordinator{fo};
    const FleetStats stats = coordinator.run();
    worker_thread.join();

    EXPECT_GT(worker_stats.mid_shard_heartbeats, 0U);
    EXPECT_EQ(worker_stats.ranges_abandoned, 0U);
    EXPECT_EQ(worker_stats.ranges_completed, 1U);
    EXPECT_EQ(stats.leases_expired, 0U);
    EXPECT_EQ(stats.ranges_done, 1U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, WorkerRefusesAMismatchedPlan)
{
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("mismatch_fleet");

    const dp::DatapathModule module = dp::make_module(kModule, kWidths);
    const core::ShardRunner runner{module, resolve_plan_options(options, false)};
    FleetPlan plan;
    plan.fingerprint = runner.fingerprint();
    plan.module_key = runner.module_key();
    plan.input_bits = runner.input_bits();
    plan.num_shards = runner.num_shards();
    plan.shard_size = runner.shard_size();
    plan.lease_shards = 3;
    write_plan(fleet_dir, plan);

    // Same module, different stimulus plan (seed): the fingerprints
    // diverge, and the worker must refuse rather than contribute records
    // from the wrong stream.
    auto foreign = options;
    foreign.seed = options.seed + 1;
    FleetWorker worker{make_worker_options(fleet_dir, foreign, "w-foreign")};
    try {
        (void)worker.run();
        FAIL() << "worker accepted a foreign plan";
    } catch (const FaultError& error) {
        EXPECT_EQ(error.kind(), FaultKind::ProtocolError);
    }
}

TEST(FleetTest, VersionOnePlanIsRefused)
{
    // A plan published before calibration became leased work has no piece
    // count. A worker must refuse it rather than guess.
    const auto options = small_plan();
    const auto fleet_dir = fresh_dir("v1_plan_fleet");
    const dp::DatapathModule module = dp::make_module(kModule, kWidths);
    const core::ShardRunner runner{module, resolve_plan_options(options, false)};
    std::ofstream{fleet_dir / kPlanFileName}
        << "hdpm_fleet 1\nfingerprint " << oracle::journal_hex(runner.fingerprint())
        << "\nmodule " << runner.module_key() << " m " << runner.input_bits()
        << "\nshards " << runner.num_shards() << ' ' << runner.shard_size()
        << "\nlease 3\nmodel basic 0\nend\n";

    FleetWorker worker{make_worker_options(fleet_dir, options, "w-v1")};
    try {
        (void)worker.run();
        FAIL() << "worker accepted a version-1 plan";
    } catch (const FaultError& error) {
        EXPECT_EQ(error.kind(), FaultKind::ProtocolError);
    }
}

TEST(FleetTest, WorkerIdsOutsideTheTokenAlphabetAreRefused)
{
    // An id with whitespace would parse back as a corrupt lease, so its
    // worker would abandon its own claims forever; a '/' would break the
    // publish path. Only one-token, path-safe ids are accepted.
    EXPECT_TRUE(valid_worker_id("w-1.a_B"));
    EXPECT_TRUE(valid_worker_id(std::string(64, 'x')));
    const auto fleet_dir = fresh_dir("bad_id_fleet");
    for (const std::string& id :
         {std::string{"a b"}, std::string{"a/b"}, std::string(65, 'x'), std::string{"tab\t"}}) {
        EXPECT_FALSE(valid_worker_id(id)) << id;
        try {
            FleetWorker worker{make_worker_options(fleet_dir, small_plan(), id)};
            FAIL() << "worker accepted id '" << id << "'";
        } catch (const FaultError& error) {
            EXPECT_EQ(error.kind(), FaultKind::ProtocolError) << id;
        }
    }
    // An empty id defaults to worker-<pid>, which is valid.
    EXPECT_NO_THROW(FleetWorker{make_worker_options(fleet_dir, small_plan(), "")});
}

// -------------------------------------------------- leased calibration

TEST(FleetCalibration, EmulationFleetsCalibrateOnceAndMatchSingleProcess)
{
    const auto options = emulation_plan();
    ASSERT_EQ(core::calibration_pieces(resolve_plan_options(options, false)).size(),
              kEmulationPieces);
    const auto [ref_bytes, name] = reference_model_bytes(fresh_dir("calib_ref"), options);

    for (const int workers : {1, 3}) {
        const std::string tag = "calib_" + std::to_string(workers);
        const auto models = fresh_dir(tag + "_models");
        std::vector<WorkerStats> runs;
        const auto stats = run_fleet(
            make_fleet_options(fresh_dir(tag + "_fleet"), models, options), options,
            workers, &runs);

        EXPECT_EQ(stats.calibration_pieces, kEmulationPieces) << tag;
        EXPECT_EQ(stats.ranges_done, 3U) << tag;
        // No kills: the fleet computes every piece exactly once.
        EXPECT_EQ(pieces_run(runs), kEmulationPieces) << tag;
        EXPECT_EQ(pieces_quarantined(runs), 0U) << tag;
        EXPECT_EQ(read_file(models / name), ref_bytes) << tag;
    }
}

TEST(FleetCalibration, StaleCalibrationLeaseIsExpiredAndReLeased)
{
    const auto options = emulation_plan();
    const auto fleet_dir = fresh_dir("calib_stale_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("calib_stale_ref"), options);

    // A worker SIGKILLed while running piece 4: its lease stopped
    // heartbeating long ago. No worker can fit its weights until the
    // coordinator reaps the lease and the piece is run again.
    ASSERT_TRUE(claim_lease(fleet_dir / calib_lease_name(4),
                            LeaseInfo{"dead-worker", 0xdeadULL, 4, 1}));
    std::filesystem::last_write_time(
        fleet_dir / calib_lease_name(4),
        std::filesystem::file_time_type::clock::now() - std::chrono::minutes{10});

    const auto models = fresh_dir("calib_stale_models");
    std::vector<WorkerStats> runs;
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1, &runs);

    EXPECT_GE(stats.leases_expired, 1U);
    EXPECT_GE(stats.workers_lost, 1U);
    EXPECT_TRUE(std::filesystem::exists(fleet_dir / calib_done_name(4)));
    EXPECT_EQ(pieces_run(runs), kEmulationPieces);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetCalibration, DamagedAndForeignPiecesAreQuarantinedAndRerun)
{
    const auto options = emulation_plan();
    const auto fleet_dir = fresh_dir("calib_bad_fleet");
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("calib_bad_ref"), options);
    const PieceSource source{options};

    // Piece 0: its own stamp, one body digit flipped to another digit, so
    // only the checksum can tell.
    const auto flipped = fleet_dir / calib_done_name(0);
    write_calibration_piece(flipped, source.stamp(0), source.runner.run_calibration_piece(0));
    std::string bytes = read_file(flipped);
    const std::size_t digit = bytes.find_last_of("0123456789");
    ASSERT_NE(digit, std::string::npos);
    bytes[digit] = static_cast<char>(bytes[digit] ^ 1);
    std::ofstream{flipped, std::ios::binary | std::ios::trunc} << bytes;

    // Piece 1: whole and checksummed, but from another plan.
    PieceStamp foreign = source.stamp(1);
    foreign.fingerprint ^= 1;
    write_calibration_piece(fleet_dir / calib_done_name(1), foreign,
                            source.runner.run_calibration_piece(1));

    const auto models = fresh_dir("calib_bad_models");
    std::vector<WorkerStats> runs;
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1, &runs);

    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_TRUE(std::filesystem::exists(fleet_dir / (calib_done_name(0) + ".corrupt")));
    EXPECT_TRUE(std::filesystem::exists(fleet_dir / (calib_done_name(1) + ".corrupt")));
    EXPECT_EQ(pieces_quarantined(runs), 2U);
    EXPECT_EQ(pieces_run(runs), kEmulationPieces);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetTest, CoordinatorGivesUpWhenTheFleetIsGone)
{
    // No workers at all: after idle_timeout_ms of zero progress the
    // coordinator must fail structurally (WorkerLost), not hang forever.
    auto fleet_options = make_fleet_options(fresh_dir("idle_fleet"),
                                            fresh_dir("idle_models"), small_plan());
    fleet_options.idle_timeout_ms = 300.0;
    FleetCoordinator coordinator{fleet_options};
    try {
        (void)coordinator.run();
        FAIL() << "coordinator returned without any workers";
    } catch (const FaultError& error) {
        EXPECT_EQ(error.kind(), FaultKind::WorkerLost);
    }
}

// ------------------------------------------------- fault-injection hooks

TEST(FleetInjection, CorruptLeaseClaimIsAbandonedQuarantinedAndRetried)
{
    SKIP_WITHOUT_HOOKS();
    const auto options = small_plan();
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("inj_lease_ref"), options);

    // The worker's very first claim is torn on its way to disk. The worker
    // cannot prove ownership of the unreadable lease, so it abandons the
    // range; the coordinator quarantines the carcass once stale; the same
    // worker then re-claims cleanly and the fleet completes bit-identically.
    FaultInjector injector{7};
    injector.arm(FaultPoint::LeaseCorrupt);
    ScopedFaultInjector scoped{injector};

    const auto models = fresh_dir("inj_lease_models");
    const auto stats = run_fleet(
        make_fleet_options(fresh_dir("inj_lease_fleet"), models, options), options,
        1);

    EXPECT_EQ(injector.fired_count(FaultPoint::LeaseCorrupt), 1U);
    EXPECT_GE(stats.leases_corrupt, 1U);
    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetInjection, TornCalibrationPiecePublishIsQuarantinedAndRerun)
{
    SKIP_WITHOUT_HOOKS();
    const auto options = emulation_plan();
    const auto [ref_bytes, name] =
        reference_model_bytes(fresh_dir("inj_piece_ref"), options);

    // The first publish of the fleet — calibration piece 0, since pieces
    // publish before any range — is torn on its way to disk. The worker
    // reads its own piece back, quarantines it, runs it again, and the
    // fleet completes bit-identically.
    FaultInjector injector{7};
    injector.arm(FaultPoint::CheckpointShortWrite);
    ScopedFaultInjector scoped{injector};

    const auto fleet_dir = fresh_dir("inj_piece_fleet");
    const auto models = fresh_dir("inj_piece_models");
    std::vector<WorkerStats> runs;
    const auto stats =
        run_fleet(make_fleet_options(fleet_dir, models, options), options, 1, &runs);

    EXPECT_EQ(injector.fired_count(FaultPoint::CheckpointShortWrite), 1U);
    EXPECT_TRUE(std::filesystem::exists(fleet_dir / (calib_done_name(0) + ".corrupt")));
    EXPECT_EQ(pieces_quarantined(runs), 1U);
    EXPECT_EQ(pieces_run(runs), kEmulationPieces + 1);
    EXPECT_EQ(stats.ranges_done, 3U);
    EXPECT_EQ(read_file(models / name), ref_bytes);
}

TEST(FleetInjection, HeartbeatSkewWritesAFutureMtime)
{
    SKIP_WITHOUT_HOOKS();
    const auto dir = fresh_dir("inj_skew");
    const auto path = dir / lease_name(0);
    ASSERT_TRUE(claim_lease(path, LeaseInfo{"w1", 5, 0, 2}));

    FaultInjector injector{7};
    injector.arm(FaultPoint::HeartbeatSkew);
    ScopedFaultInjector scoped{injector};

    // The armed heartbeat stamps a far-future mtime (negative age)…
    ASSERT_TRUE(heartbeat_lease(path));
    EXPECT_EQ(injector.fired_count(FaultPoint::HeartbeatSkew), 1U);
    const auto skewed_age = file_age_ms(path);
    ASSERT_TRUE(skewed_age.has_value());
    EXPECT_LT(*skewed_age, -30.0 * 60.0 * 1000.0);

    // …and the next (disarmed) heartbeat heals it back to the present.
    ASSERT_TRUE(heartbeat_lease(path));
    const auto healed_age = file_age_ms(path);
    ASSERT_TRUE(healed_age.has_value());
    EXPECT_GE(*healed_age, 0.0);
    EXPECT_LT(*healed_age, 60000.0);
}

} // namespace
} // namespace hdpm::fleet

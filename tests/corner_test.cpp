// Multi-corner characterization sweeps: one stimulus pass scoring every
// requested operating corner. Corner timing is a dilation, so the corners
// of one load class share one event stream exactly. The contract under
// test, per backend:
//
//  - power-emulation: each corner's record block is BIT-IDENTICAL to the
//    independent single-corner run (the sweep reuses the settled toggle
//    streams, which are corner-invariant, scores each load class with its
//    calibrated weights and derives every corner of the class by its law —
//    the same arithmetic in the same order), with one glitch calibration
//    per load class;
//  - event-kernel: each load class has its own simulator, all of them
//    running in lockstep on the shard's stimulus, and nothing is
//    calibrated, so every corner's record block is BIT-IDENTICAL to its
//    independent single-corner run, in every stimulus mode, at any thread
//    count and across checkpoint resume.
//
// In both backends every corner of a load class is derived from that
// class's nominal charges by the exact law, so a 25 °C corner is exactly
// its supply ratio times its class-nominal corner, record by record.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "core/checkpoint.hpp"
#include "core/enhanced_model.hpp"
#include "gatelib/techlib.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hdpm::core {
namespace {

using dp::DatapathModule;
using dp::ModuleType;

const std::vector<gate::Corner> kCorners = {
    {3.3, 25.0, gate::LoadClass::Nominal},
    {2.5, 85.0, gate::LoadClass::Nominal},
    {3.0, 50.0, gate::LoadClass::Heavy},
};

/// The shared stimulus plan: 8 shards of 150, convergence disabled.
CharacterizationOptions sweep_options(CharBackend backend, unsigned threads,
                                      StimulusMode mode = StimulusMode::StratifiedPairs)
{
    CharacterizationOptions options;
    options.max_transitions = 1200;
    options.min_transitions = 1200;
    options.batch = 1200;
    options.shard_size = 150;
    options.seed = 23;
    options.mode = mode;
    options.backend = backend;
    options.calibration_pairs = 256;
    options.threads = threads;
    return options;
}

/// Independent single-corner run under the same plan.
std::vector<CharacterizationRecord> collect_single(
    const DatapathModule& module, CharBackend backend, const gate::Corner& corner,
    StimulusMode mode = StimulusMode::StratifiedPairs)
{
    const Characterizer characterizer;
    CharacterizationOptions options = sweep_options(backend, 1, mode);
    options.corner = corner;
    return characterizer.collect_records(module, options);
}

/// Stimulus modes the sweep-vs-independent cases cover: pairs (the
/// enhanced model's) and the stratified chain (the basic model's).
constexpr StimulusMode kModes[] = {StimulusMode::StratifiedPairs,
                                   StimulusMode::StratifiedChain};

std::string mode_label(StimulusMode mode)
{
    switch (mode) {
    case StimulusMode::StratifiedPairs:
        return "pairs";
    case StimulusMode::StratifiedChain:
        return "chain";
    case StimulusMode::RandomChain:
        break;
    }
    return "random";
}

void expect_identical_records(const std::vector<CharacterizationRecord>& a,
                              const std::vector<CharacterizationRecord>& b,
                              const std::string& label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].hd, b[i].hd) << label << " record " << i;
        ASSERT_EQ(a[i].stable_zeros, b[i].stable_zeros) << label << " record " << i;
        ASSERT_EQ(a[i].toggle_mask, b[i].toggle_mask) << label << " record " << i;
        ASSERT_EQ(a[i].charge_fc, b[i].charge_fc) << label << " record " << i;
    }
}

struct AbortRun {};

TEST(CornerSweep, EmulationSweepIsBitIdenticalToIndependentRunsAcrossThreads)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const StimulusMode mode : kModes) {
        std::vector<std::vector<CharacterizationRecord>> independent;
        for (const gate::Corner& corner : kCorners) {
            independent.push_back(
                collect_single(module, CharBackend::PowerEmulation, corner, mode));
        }
        for (const unsigned threads : {1U, 4U}) {
            CharacterizationOptions options =
                sweep_options(CharBackend::PowerEmulation, threads, mode);
            options.corners = kCorners;
            CharRunStats stats;
            options.stats = &stats;
            const auto sweep = characterizer.collect_records_corners(module, options);
            ASSERT_EQ(sweep.size(), kCorners.size());
            EXPECT_EQ(stats.corners, kCorners.size());
            for (std::size_t k = 0; k < kCorners.size(); ++k) {
                expect_identical_records(independent[k], sweep[k],
                                         "emulation " + mode_label(mode) + " corner " +
                                             std::to_string(k) + " @" +
                                             std::to_string(threads) + "t");
            }
        }
        // A one-corner sweep {c} is the single-corner run at c.
        for (std::size_t k = 0; k < kCorners.size(); ++k) {
            CharacterizationOptions options =
                sweep_options(CharBackend::PowerEmulation, 4, mode);
            options.corners = {kCorners[k]};
            const auto sweep = characterizer.collect_records_corners(module, options);
            ASSERT_EQ(sweep.size(), 1U);
            expect_identical_records(independent[k], sweep[0],
                                     "emulation " + mode_label(mode) +
                                         " one-corner sweep " + std::to_string(k));
        }
    }
}

TEST(CornerSweep, EventSweepIsBitIdenticalToIndependentRunsInEveryLoadClass)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    // The full list, the list led by its heavy-load corner, and one-corner
    // lists {c}: a one-corner sweep is the single-corner run at c.
    std::vector<std::vector<gate::Corner>> lists = {
        kCorners, {kCorners[2], kCorners[0], kCorners[1]}};
    for (const gate::Corner& corner : kCorners) {
        lists.push_back({corner});
    }
    for (const StimulusMode mode :
         {StimulusMode::StratifiedPairs, StimulusMode::StratifiedChain,
          StimulusMode::RandomChain}) {
        std::vector<std::vector<CharacterizationRecord>> independent;
        for (const gate::Corner& corner : kCorners) {
            independent.push_back(
                collect_single(module, CharBackend::EventKernel, corner, mode));
        }
        const auto independent_at = [&](const gate::Corner& corner) {
            const auto k = static_cast<std::size_t>(
                std::find(kCorners.begin(), kCorners.end(), corner) - kCorners.begin());
            return independent[k];
        };
        for (const std::vector<gate::Corner>& corners : lists) {
            for (const unsigned threads : {1U, 4U}) {
                const std::string label = "event " + mode_label(mode) + " " +
                                          std::to_string(corners.size()) +
                                          "-corner sweep led by " + corners[0].key() +
                                          " @" + std::to_string(threads) + "t";
                CharacterizationOptions options =
                    sweep_options(CharBackend::EventKernel, threads, mode);
                options.corners = corners;
                CharRunStats stats;
                options.stats = &stats;
                const auto sweep = characterizer.collect_records_corners(module, options);
                ASSERT_EQ(sweep.size(), corners.size()) << label;
                EXPECT_EQ(stats.calibration_pairs, 0U) << label;
                for (std::size_t k = 0; k < corners.size(); ++k) {
                    expect_identical_records(independent_at(corners[k]), sweep[k],
                                             label + " corner " + std::to_string(k));
                }
            }
        }
    }
}

TEST(CornerSweep, SupplyCornersScaleTheirClassNominalRecordsExactly)
{
    // One derivation for both backends: per transition a load class yields
    // its nominal charge Q and that charge's internal part Q_int, and each
    // corner of the class takes a·(Q + b·Q_int). At 25 °C b is exactly 0,
    // so every record of a supply-only corner is exactly a times the
    // matching record of its class-nominal corner — also where the class
    // charges come from weights (every emulation class), which weights
    // folded per net through the law would round net by net.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    const gate::TechLibrary& library = gate::TechLibrary::generic350();
    const auto check = [&](CharBackend backend, StimulusMode mode,
                           const std::vector<gate::Corner>& corners) {
        CharacterizationOptions options = sweep_options(backend, 4, mode);
        options.corners = corners;
        const auto sweep = characterizer.collect_records_corners(module, options);
        ASSERT_EQ(sweep.size(), corners.size());
        for (std::size_t k = 0; k < corners.size(); ++k) {
            if (corners[k].temp_c != 25.0) {
                continue;
            }
            const gate::Corner nominal{library.vdd(), 25.0, corners[k].load_class};
            const auto n = static_cast<std::size_t>(
                std::find(corners.begin(), corners.end(), nominal) - corners.begin());
            ASSERT_LT(n, corners.size()) << corners[k].key();
            const double a = library.corner_charge_law(corners[k]).supply_ratio;
            const std::string label = std::string{char_backend_name(backend)} + " " +
                                      mode_label(mode) + " " + corners[k].key();
            ASSERT_EQ(sweep[k].size(), sweep[n].size()) << label;
            for (std::size_t i = 0; i < sweep[k].size(); ++i) {
                EXPECT_EQ(sweep[k][i].charge_fc, a * sweep[n][i].charge_fc)
                    << label << " record " << i;
                if (::testing::Test::HasFailure()) {
                    return; // one mismatch tells the story
                }
            }
        }
    };
    for (const StimulusMode mode : kModes) {
        check(CharBackend::PowerEmulation, mode,
              {{3.3, 25.0, gate::LoadClass::Nominal},
               {2.7, 25.0, gate::LoadClass::Nominal},
               {2.7, 85.0, gate::LoadClass::Nominal}});
        check(CharBackend::EventKernel, mode,
              {{3.3, 25.0, gate::LoadClass::Nominal},
               {3.3, 25.0, gate::LoadClass::Heavy},
               {2.7, 25.0, gate::LoadClass::Heavy}});
    }
}

TEST(CornerCheck, NanNegativeOrInfiniteSupplyIsRefusedNotReadAsNative)
{
    // Zero is the API's spelling of the native supply; every other supply
    // outside the range is refused, by the charge law and by a run alike.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const double vdd : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                             std::numeric_limits<double>::infinity()}) {
        const gate::Corner corner{vdd, 25.0, gate::LoadClass::Nominal};
        EXPECT_THROW((void)gate::TechLibrary::generic350().corner_charge_law(corner),
                     util::PreconditionError)
            << vdd;
        for (const CharBackend backend :
             {CharBackend::EventKernel, CharBackend::PowerEmulation}) {
            CharacterizationOptions options = sweep_options(backend, 1);
            options.corner = corner;
            EXPECT_THROW((void)characterizer.collect_records(module, options),
                         util::PreconditionError)
                << vdd << " V, " << char_backend_name(backend);
        }
    }
}

TEST(CornerSweep, EventSweepIsBitIdenticalAcrossThreadCounts)
{
    // A multi-class event sweep must be a pure function of the plan: any
    // thread count produces the same bytes for every corner, and the event
    // backend calibrates nothing, whatever calibration_pairs says.
    // Geometries: two shards of several 64-pair pieces each; one shard
    // larger than a piece (shard_size >= calibration_pairs, the CLI and
    // serve default); and 200 pairs, a multiple of neither the 64-pair nor
    // the 63-transition piece.
    struct Geometry {
        std::size_t calibration;
        std::size_t shard_size;
    };
    constexpr Geometry kGeometries[] = {{256, 150}, {256, 2000}, {200, 150}};
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const StimulusMode mode :
         {StimulusMode::StratifiedPairs, StimulusMode::StratifiedChain,
          StimulusMode::RandomChain}) {
        for (const Geometry& geometry : kGeometries) {
            const auto run = [&](unsigned threads, CharRunStats& stats) {
                CharacterizationOptions options =
                    sweep_options(CharBackend::EventKernel, threads, mode);
                options.calibration_pairs = geometry.calibration;
                options.shard_size = geometry.shard_size;
                options.corners = kCorners;
                options.stats = &stats;
                return characterizer.collect_records_corners(module, options);
            };
            CharRunStats baseline_stats;
            const auto baseline = run(1, baseline_stats);
            EXPECT_EQ(baseline_stats.calibration_pairs, 0U);
            for (const unsigned threads : {2U, 4U}) {
                const std::string label =
                    std::to_string(static_cast<int>(mode)) + "/" +
                    std::to_string(geometry.calibration) + " pairs/" +
                    std::to_string(geometry.shard_size) + " shard @" +
                    std::to_string(threads) + "t";
                CharRunStats stats;
                const auto sweep = run(threads, stats);
                EXPECT_EQ(stats.calibration_pairs, 0U) << label;
                EXPECT_EQ(stats.calibration_pairs, baseline_stats.calibration_pairs)
                    << label;
                EXPECT_EQ(stats.calibration_scale, baseline_stats.calibration_scale)
                    << label;
                ASSERT_EQ(sweep.size(), baseline.size()) << label;
                for (std::size_t k = 0; k < baseline.size(); ++k) {
                    expect_identical_records(baseline[k], sweep[k],
                                             "event corner " + std::to_string(k) + " " +
                                                 label);
                }
            }
        }
    }
}

TEST(CornerSweep, InterruptedSweepResumesBitIdenticallyPerCorner)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const CharBackend backend :
         {CharBackend::EventKernel, CharBackend::PowerEmulation}) {
        const std::string label =
            backend == CharBackend::EventKernel ? "event" : "emulation";
        CharacterizationOptions options = sweep_options(backend, 1);
        options.corners = kCorners;
        const auto baseline = characterizer.collect_records_corners(module, options);

        const std::filesystem::path journal =
            std::filesystem::path{::testing::TempDir()} /
            ("corner_resume_" + label + ".journal");
        // Kill the run after 3 merged shards: the run's one journal holds
        // the shards published before the abort, every corner's records in
        // each block.
        CharacterizationOptions interrupted = sweep_options(backend, 4);
        interrupted.corners = kCorners;
        interrupted.checkpoint = journal;
        interrupted.progress = [](const CharProgress& p) {
            if (p.shards_merged >= 3) {
                throw AbortRun{};
            }
        };
        EXPECT_THROW(
            (void)characterizer.collect_records_corners(module, interrupted),
            AbortRun);
        EXPECT_TRUE(std::filesystem::exists(journal)) << label;

        CharacterizationOptions resume = sweep_options(backend, 1);
        resume.corners = kCorners;
        resume.checkpoint = journal;
        CharRunStats stats;
        resume.stats = &stats;
        const auto resumed = characterizer.collect_records_corners(module, resume);
        EXPECT_GT(stats.shards_resumed, 0U) << label;
        ASSERT_EQ(resumed.size(), baseline.size()) << label;
        for (std::size_t k = 0; k < baseline.size(); ++k) {
            expect_identical_records(baseline[k], resumed[k],
                                     label + " resume corner " +
                                         std::to_string(k));
        }
        // A completed sweep retires its journal.
        EXPECT_FALSE(std::filesystem::exists(journal)) << label;
    }
}

/// The whole content of @p path, or "" when it does not exist.
std::string read_bytes(const std::filesystem::path& path)
{
    std::ifstream in{path, std::ios::binary};
    return std::string{std::istreambuf_iterator<char>{in}, {}};
}

void write_bytes(const std::filesystem::path& path, const std::string& bytes)
{
    std::ofstream{path, std::ios::binary | std::ios::trunc} << bytes;
}

TEST(CornerSweep, JournalGrowsByAppendsInOneFile)
{
    // Publishing after every shard, each snapshot of the journal taken at a
    // progress callback must be a byte prefix of the next one (earlier
    // blocks are never rewritten), and the journal must be the only file
    // the run ever keeps next to it.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    for (const CharBackend backend :
         {CharBackend::EventKernel, CharBackend::PowerEmulation}) {
        const std::string label =
            backend == CharBackend::EventKernel ? "event" : "emulation";
        const std::filesystem::path dir =
            std::filesystem::path{::testing::TempDir()} / ("journal_appends_" + label);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        const std::filesystem::path journal = dir / "sweep.journal";

        CharacterizationOptions options = sweep_options(backend, 4);
        options.corners = kCorners;
        options.checkpoint = journal;
        options.checkpoint_every = 1;
        std::vector<std::string> snapshots;
        std::size_t stray_files = 0;
        options.progress = [&](const CharProgress&) {
            snapshots.push_back(read_bytes(journal));
            for (const auto& entry : std::filesystem::directory_iterator{dir}) {
                stray_files += entry.path() != journal ? 1 : 0;
            }
        };
        const auto records = characterizer.collect_records_corners(module, options);
        ASSERT_EQ(records.size(), kCorners.size()) << label;
        EXPECT_EQ(stray_files, 0U) << label;
        EXPECT_FALSE(std::filesystem::exists(journal)) << label;

        ASSERT_EQ(snapshots.size(), 8U) << label;
        EXPECT_TRUE(snapshots.front().empty()) << label; // nothing published yet
        for (std::size_t i = 1; i < snapshots.size(); ++i) {
            EXPECT_GT(snapshots[i].size(), snapshots[i - 1].size()) << label << ' ' << i;
            EXPECT_TRUE(snapshots[i].starts_with(snapshots[i - 1])) << label << ' ' << i;
        }
        // The last snapshot holds the 7 shards published before the final
        // merge, each with all three corners' records.
        write_bytes(journal, snapshots.back());
        const auto loaded = load_checkpoint(journal);
        ASSERT_TRUE(loaded.has_value()) << label;
        EXPECT_EQ(loaded->corners, kCorners.size()) << label;
        ASSERT_EQ(loaded->shards.size(), 7U) << label;
        for (std::size_t k = 0; k < kCorners.size(); ++k) {
            const auto& block = loaded->shards[6].records;
            const std::vector<CharacterizationRecord> corner_k(
                block.begin() + static_cast<std::ptrdiff_t>(k * 150),
                block.begin() + static_cast<std::ptrdiff_t>((k + 1) * 150));
            const std::vector<CharacterizationRecord> expected(
                records[k].begin() + 6 * 150, records[k].begin() + 7 * 150);
            expect_identical_records(expected, corner_k, label + " journaled corner " +
                                                             std::to_string(k));
        }
        std::filesystem::remove_all(dir);
    }
}

TEST(CornerSweep, TornOrFlippedJournalBlocksAreDetected)
{
    // A small K = 3 journal of two 16-transition blocks, left behind by a
    // sweep interrupted after its second publish.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    const std::filesystem::path dir{::testing::TempDir()};
    const std::filesystem::path journal = dir / "torn_sweep.journal";
    const std::filesystem::path damaged = dir / "torn_sweep_damaged.journal";
    std::filesystem::remove(journal);
    CharacterizationOptions options = sweep_options(CharBackend::EventKernel, 1);
    options.max_transitions = options.min_transitions = options.batch = 64;
    options.shard_size = 16;
    options.corners = kCorners;
    options.checkpoint = journal;
    options.progress = [](const CharProgress& p) {
        if (p.shards_merged >= 3) {
            throw AbortRun{};
        }
    };
    EXPECT_THROW((void)characterizer.collect_records_corners(module, options), AbortRun);
    const std::string bytes = read_bytes(journal);
    const auto whole = load_checkpoint(journal);
    ASSERT_TRUE(whole.has_value());
    ASSERT_EQ(whole->shards.size(), 2U);
    ASSERT_EQ(whole->shards[1].records.size(), 16U * kCorners.size());

    // The encoder is deterministic: the journal of the first block alone is
    // exactly the prefix before the last block.
    CharCheckpoint first = *whole;
    first.shards.pop_back();
    save_checkpoint(damaged, first);
    const std::string prefix = read_bytes(damaged);
    ASSERT_TRUE(bytes.starts_with(prefix));
    CharCheckpoint header_only = first;
    header_only.shards.clear();
    save_checkpoint(damaged, header_only);
    const std::size_t first_block = read_bytes(damaged).size();

    // Truncated anywhere inside the last block, salvage keeps exactly the
    // first block; the strict load refuses the file.
    for (std::size_t size = prefix.size() + 1; size < bytes.size(); ++size) {
        write_bytes(damaged, bytes.substr(0, size));
        const CheckpointSalvage salvage = salvage_checkpoint(damaged);
        ASSERT_FALSE(salvage.clean) << "size " << size;
        ASSERT_TRUE(salvage.checkpoint.has_value()) << "size " << size;
        ASSERT_EQ(salvage.checkpoint->shards.size(), 1U) << "size " << size;
        ASSERT_EQ(salvage.checkpoint->shards[0].index, 0U);
        expect_identical_records(whole->shards[0].records,
                                 salvage.checkpoint->shards[0].records,
                                 "salvaged at size " + std::to_string(size));
        ASSERT_THROW((void)load_checkpoint(damaged), util::FaultError) << "size " << size;
    }

    // Any flipped byte inside a block is damage to the strict load.
    for (std::size_t pos = first_block; pos < bytes.size(); ++pos) {
        std::string flipped = bytes;
        flipped[pos] = static_cast<char>(flipped[pos] ^ 0x01);
        write_bytes(damaged, flipped);
        try {
            (void)load_checkpoint(damaged);
            FAIL() << "flip at byte " << pos << " accepted";
        } catch (const util::FaultError& fault) {
            ASSERT_EQ(fault.kind(), util::FaultKind::CheckpointCorrupt) << pos;
        }
    }
    std::filesystem::remove(journal);
    std::filesystem::remove(damaged);
}

TEST(CornerSweep, FittedModelsTrackThePhysicsAcrossCorners)
{
    // Energy scales ~(V/V0)²: the 2.5 V / 85 °C corner's coefficients must
    // come out well below the 3.3 V ones, and a heavy wire load above
    // nominal at equal supply.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    CharacterizationOptions options = sweep_options(CharBackend::PowerEmulation, 1);
    options.corners = kCorners;
    const std::vector<HdModel> models =
        characterizer.characterize_corners(module, options);
    ASSERT_EQ(models.size(), kCorners.size());

    const int m = module.total_input_bits();
    for (int hd = 1; hd <= m; ++hd) {
        EXPECT_LT(models[1].coefficient(hd), models[0].coefficient(hd))
            << "2.5 V not below 3.3 V at Hd " << hd;
    }
}

/// The 8 corners {3.3, 3.0, 2.7, 2.5 V} x {25, 85 °C} at nominal load.
std::vector<gate::Corner> eight_nominal_corners()
{
    std::vector<gate::Corner> corners;
    for (const double vdd : {3.3, 3.0, 2.7, 2.5}) {
        for (const double temp : {25.0, 85.0}) {
            corners.push_back({vdd, temp, gate::LoadClass::Nominal});
        }
    }
    return corners;
}

/// The event-kernel sweep's amortization claim, counted in the pairs the
/// event kernel simulates rather than in wall time: K = 8 nominal-load
/// corners of the 16-bit CSA multiplier as eight independent runs simulate
/// K x records pairs. The corners share one load class, so one sweep
/// simulates corner 0's records once — exactly the event work of one
/// independent run — and calibrates nothing: 8-fold.
TEST(CornerSweep, EventSweepAmortizesEightNominalCornersEightFold)
{
    const DatapathModule module = dp::make_module(ModuleType::CsaMultiplier, 16);
    const std::vector<gate::Corner> corners = eight_nominal_corners();

    CharacterizationOptions options;
    options.max_transitions = 10000;
    options.min_transitions = 10000; // fixed workload: no early convergence stop
    options.batch = 10000;
    options.shard_size = 1000;
    options.seed = 77;
    options.mode = StimulusMode::StratifiedPairs;
    options.backend = CharBackend::EventKernel;
    options.calibration_pairs = 256;
    options.corners = corners;
    CharRunStats stats;
    options.stats = &stats;

    const auto records = Characterizer{}.collect_records_corners(module, options);
    ASSERT_EQ(records.size(), corners.size());
    for (const auto& block : records) {
        ASSERT_EQ(block.size(), options.max_transitions);
    }
    ASSERT_EQ(stats.corners, corners.size());
    ASSERT_EQ(stats.records, options.max_transitions);

    const std::uint64_t independent = corners.size() * stats.records;
    const std::uint64_t sweep = stats.records + stats.calibration_pairs;
    EXPECT_EQ(stats.calibration_pairs, 0U);
    EXPECT_EQ(sweep, stats.records);
    EXPECT_EQ(independent, 8 * sweep)
        << "event-kernel pairs: " << independent << " for 8 independent runs vs "
        << sweep << " for one sweep";

    // The sweep's event work is one independent run's, event for event.
    CharacterizationOptions single = options;
    single.corners.clear();
    single.corner = corners[0];
    CharRunStats single_stats;
    single.stats = &single_stats;
    (void)Characterizer{}.collect_records(module, single);
    EXPECT_EQ(stats.sim_events, single_stats.sim_events);
    EXPECT_EQ(stats.sim_transitions, single_stats.sim_transitions);
}

/// The emulation sweep's calibration claim: 8 nominal-load corners share
/// one load class, so the sweep runs calibration_pairs event-kernel pairs
/// once, not once per corner — and every corner's records stay
/// bit-identical to its independent run.
TEST(CornerSweep, EmulationSweepCalibratesEightNominalCornersOnce)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const std::vector<gate::Corner> corners = eight_nominal_corners();
    CharacterizationOptions options = sweep_options(CharBackend::PowerEmulation, 4);
    options.corners = corners;
    CharRunStats stats;
    options.stats = &stats;
    const auto sweep = Characterizer{}.collect_records_corners(module, options);
    ASSERT_EQ(sweep.size(), corners.size());
    EXPECT_EQ(stats.calibration_pairs, options.calibration_pairs);
    for (std::size_t k = 0; k < corners.size(); ++k) {
        expect_identical_records(
            collect_single(module, CharBackend::PowerEmulation, corners[k]), sweep[k],
            "emulation corner " + corners[k].key());
    }
}

} // namespace
} // namespace hdpm::core

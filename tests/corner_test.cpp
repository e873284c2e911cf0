// Multi-corner characterization sweeps: one stimulus pass scoring every
// requested operating corner. The contract under test, per backend:
//
//  - power-emulation: each corner's record block is BIT-IDENTICAL to the
//    independent single-corner run (the sweep reuses the settled toggle
//    streams, which are corner-invariant, and accumulates each corner's own
//    calibrated weights — the same arithmetic in the same order);
//  - event-kernel: corner 0 is simulated exactly (bit-identical to its
//    independent run); corners k > 0 are scored through calibrated transfer
//    weights — an approximation that must stay within a documented
//    tolerance at the aggregate level while remaining fully deterministic
//    (bit-identical across thread counts and checkpoint resume).

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "core/corner_model.hpp"
#include "core/enhanced_model.hpp"
#include "gatelib/techlib.hpp"

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
    return mode == StimulusMode::StratifiedPairs ? "pairs" : "chain";
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

double mean_charge(const std::vector<CharacterizationRecord>& records)
{
    double sum = 0.0;
    for (const auto& rec : records) {
        sum += rec.charge_fc;
    }
    return sum / static_cast<double>(records.size());
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

TEST(CornerSweep, EventSweepCornerZeroIsExactAndTransfersAreClose)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    // The full list, plus one-corner lists {c}: a one-corner sweep is the
    // single-corner run at c.
    std::vector<std::vector<gate::Corner>> lists = {kCorners};
    for (const gate::Corner& corner : kCorners) {
        lists.push_back({corner});
    }
    for (const StimulusMode mode : kModes) {
        for (const std::vector<gate::Corner>& corners : lists) {
            const std::string label = "event " + mode_label(mode) + " " +
                                      std::to_string(corners.size()) + "-corner sweep";
            CharacterizationOptions options =
                sweep_options(CharBackend::EventKernel, 1, mode);
            options.corners = corners;
            CharRunStats stats;
            options.stats = &stats;
            const auto sweep = characterizer.collect_records_corners(module, options);
            ASSERT_EQ(sweep.size(), corners.size()) << label;
            EXPECT_EQ(stats.corner_calibration_pairs > 0, corners.size() > 1) << label;

            // Corner 0 is the exactly simulated reference stream.
            expect_identical_records(
                collect_single(module, CharBackend::EventKernel, corners[0], mode),
                sweep[0], label + " corner 0");

            // Corners k > 0 ride calibrated transfer weights: per-record
            // values are approximate, but the aggregate charge must land
            // close to what the exact per-corner simulation measures (same
            // stimulus, same plan).
            for (std::size_t k = 1; k < corners.size(); ++k) {
                const auto exact =
                    collect_single(module, CharBackend::EventKernel, corners[k], mode);
                ASSERT_EQ(exact.size(), sweep[k].size()) << label;
                const double reference = mean_charge(exact);
                EXPECT_NEAR(mean_charge(sweep[k]), reference, 0.10 * reference)
                    << label << " corner " << k;
            }
        }
    }
}

TEST(CornerSweep, EventSweepIsBitIdenticalAcrossThreadCounts)
{
    // The transfer-weight path (calibration included) must be a pure
    // function of the plan: any thread count produces the same bytes for
    // every corner, approximated ones included. Calibration geometries: two
    // shards of several pieces each; one shard larger than a piece
    // (shard_size >= calibration_pairs, the CLI and serve default); and 200
    // pairs, a multiple of neither the 64-pair nor the 63-transition piece.
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
            EXPECT_EQ(baseline_stats.corner_calibration_pairs,
                      geometry.calibration * kCorners.size());
            for (const unsigned threads : {2U, 4U}) {
                const std::string label =
                    std::to_string(static_cast<int>(mode)) + "/" +
                    std::to_string(geometry.calibration) + " pairs/" +
                    std::to_string(geometry.shard_size) + " shard @" +
                    std::to_string(threads) + "t";
                CharRunStats stats;
                const auto sweep = run(threads, stats);
                EXPECT_EQ(stats.corner_calibration_pairs,
                          baseline_stats.corner_calibration_pairs)
                    << label;
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
        // Kill the run after 3 merged shards: each corner's ".c<k>" journal
        // holds the shards published before the abort.
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
        for (std::size_t k = 0; k < kCorners.size(); ++k) {
            EXPECT_TRUE(std::filesystem::exists(
                journal.string() + ".c" + std::to_string(k)))
                << label << " corner " << k;
        }

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
        // A completed sweep retires every per-corner journal.
        for (std::size_t k = 0; k < kCorners.size(); ++k) {
            EXPECT_FALSE(std::filesystem::exists(
                journal.string() + ".c" + std::to_string(k)))
                << label << " corner " << k;
        }
    }
}

TEST(CornerSweep, FittedModelsTrackThePhysicsAcrossCorners)
{
    // Energy scales ~(V/V0)²: the 2.5 V / 85 °C corner's coefficients must
    // come out well below the 3.3 V ones, and a heavy wire load above
    // nominal at equal supply. The surface model must reproduce its own
    // training corners and interpolate between them.
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

    // Surface fit over the two nominal-load corners (uniform load class).
    const std::vector<gate::Corner> nominal{kCorners[0], kCorners[1]};
    const std::vector<HdModel> nominal_models{models[0], models[1]};
    const CornerSurfaceModel surface =
        CornerSurfaceModel::fit(nominal, nominal_models);
    EXPECT_EQ(surface.corners_fitted(), 2U);
    const HdModel at_training = surface.model_at(2.5, 85.0);
    for (int hd = 1; hd <= m; ++hd) {
        EXPECT_NEAR(at_training.coefficient(hd), models[1].coefficient(hd),
                    0.05 * models[1].coefficient(hd) + 1e-9)
            << "surface off its own training corner at Hd " << hd;
    }
    const HdModel mid = surface.model_at(2.9, 55.0);
    for (int hd = 1; hd <= m; ++hd) {
        EXPECT_GT(mid.coefficient(hd), 0.9 * models[1].coefficient(hd)) << hd;
        EXPECT_LT(mid.coefficient(hd), 1.1 * models[0].coefficient(hd)) << hd;
    }

    // Mixed load classes are not an interpolatable axis.
    EXPECT_THROW((void)CornerSurfaceModel::fit(kCorners, models),
                 util::PreconditionError);
}

/// The event-kernel sweep's amortization claim, counted in the pairs the
/// event kernel simulates rather than in wall time: K = 8 nominal-load
/// corners of the 16-bit CSA multiplier as eight independent runs simulate
/// K x records pairs; one sweep simulates corner 0's records once plus the
/// per-corner transfer calibration. The geometry is a fixed-size run with
/// a transition budget of 10000 and 256 calibration pairs per corner; the
/// sweep must do at most a fifth of the independent runs' event work.
TEST(CornerSweep, EventSweepAmortizesEightCornersAtLeastFiveFold)
{
    const DatapathModule module = dp::make_module(ModuleType::CsaMultiplier, 16);
    std::vector<gate::Corner> corners;
    for (const double vdd : {3.3, 3.0, 2.7, 2.5}) {
        for (const double temp : {25.0, 85.0}) {
            corners.push_back({vdd, temp, gate::LoadClass::Nominal});
        }
    }

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
    const std::uint64_t sweep = stats.records + stats.corner_calibration_pairs;
    EXPECT_GE(independent, 5 * sweep)
        << "event-kernel pairs: " << independent << " for 8 independent runs vs "
        << sweep << " for one sweep (" << stats.corner_calibration_pairs
        << " of them calibration)";
}

} // namespace
} // namespace hdpm::core

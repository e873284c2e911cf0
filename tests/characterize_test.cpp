#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "core/characterize.hpp"
#include "core/checkpoint.hpp"
#include "core/model_library.hpp"
#include "core/workloads.hpp"
#include "oracles/journal_v2.hpp"
#include "sim/power.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace hdpm::core {
namespace {

using dp::DatapathModule;
using dp::ModuleType;

CharacterizationOptions quick_options(StimulusMode mode)
{
    CharacterizationOptions options;
    options.max_transitions = 4000;
    options.min_transitions = 2000;
    options.batch = 1000;
    options.seed = 17;
    options.mode = mode;
    return options;
}

TEST(Characterize, StratifiedChainPopulatesAllClasses)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    const HdModel model =
        characterizer.characterize(module, quick_options(StimulusMode::StratifiedChain));

    EXPECT_EQ(model.input_bits(), 8);
    for (int hd = 1; hd <= 8; ++hd) {
        EXPECT_GT(model.sample_count(hd), 0U) << "class " << hd << " empty";
        EXPECT_GT(model.coefficient(hd), 0.0) << "class " << hd;
    }
}

TEST(Characterize, RandomChainLeavesExtremesThin)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 8);
    const Characterizer characterizer;
    const HdModel model =
        characterizer.characterize(module, quick_options(StimulusMode::RandomChain));

    // m = 16: random streams hit Hd ≈ 8 heavily, Hd = 16 almost never —
    // the motivation for the stratified characterization stream.
    EXPECT_GT(model.sample_count(8), 50U);
    EXPECT_LT(model.sample_count(16), model.sample_count(8) / 4);
}

TEST(Characterize, CoefficientsIncreaseWithHd)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 6);
    const Characterizer characterizer;
    const HdModel model =
        characterizer.characterize(module, quick_options(StimulusMode::StratifiedChain));

    // More switching inputs draw more charge: the coefficient curve must
    // rise substantially from Hd = 1 to Hd = m. (Near Hd = m the curve may
    // dip slightly — flipping *every* input produces coherent, low-glitch
    // transitions — so monotonicity is only asserted over the lower 3/4.)
    EXPECT_GT(model.coefficient(model.input_bits()), 2.0 * model.coefficient(1));
    for (int hd = 3; hd <= 3 * model.input_bits() / 4; ++hd) {
        EXPECT_GT(model.coefficient(hd), model.coefficient(hd - 2))
            << "non-monotone at " << hd;
    }
}

TEST(Characterize, DeviationsReportedAndModest)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 6);
    const Characterizer characterizer;
    const HdModel model =
        characterizer.characterize(module, quick_options(StimulusMode::StratifiedChain));
    for (int hd = 1; hd <= model.input_bits(); ++hd) {
        EXPECT_GE(model.deviation(hd), 0.0);
        EXPECT_LT(model.deviation(hd), 1.0) << "deviation implausible at " << hd;
    }
    EXPECT_GT(model.average_deviation(), 0.0);
}

TEST(Characterize, DeviationDecreasesWithHd)
{
    // Paper: "relative coefficient deviations are decreasing for larger
    // values of the Hamming-distance".
    const DatapathModule module = dp::make_module(ModuleType::CsaMultiplier, 4);
    const Characterizer characterizer;
    CharacterizationOptions options = quick_options(StimulusMode::StratifiedChain);
    options.max_transitions = 6000;
    const HdModel model = characterizer.characterize(module, options);
    const int m = model.input_bits();
    EXPECT_LT(model.deviation(m), model.deviation(1));
}

TEST(Characterize, RecordsAreConsistent)
{
    const DatapathModule module = dp::make_module(ModuleType::AbsVal, 6);
    const Characterizer characterizer;
    const auto records = characterizer.collect_records(
        module, quick_options(StimulusMode::StratifiedChain));
    ASSERT_FALSE(records.empty());
    for (const auto& rec : records) {
        EXPECT_GE(rec.hd, 1);
        EXPECT_LE(rec.hd, 6);
        EXPECT_GE(rec.stable_zeros, 0);
        EXPECT_LE(rec.stable_zeros, 6 - rec.hd);
        EXPECT_GE(rec.charge_fc, 0.0);
    }
}

TEST(Characterize, Reproducible)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    const auto options = quick_options(StimulusMode::StratifiedChain);
    const HdModel a = characterizer.characterize(module, options);
    const HdModel b = characterizer.characterize(module, options);
    for (int hd = 1; hd <= a.input_bits(); ++hd) {
        EXPECT_DOUBLE_EQ(a.coefficient(hd), b.coefficient(hd));
    }
}

TEST(Characterize, EnhancedPopulatesZeroClasses)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    CharacterizationOptions options = quick_options(StimulusMode::StratifiedPairs);
    options.max_transitions = 3000;
    options.min_transitions = 2500;
    const EnhancedHdModel model = characterizer.characterize_enhanced(module, 0, options);

    const int m = model.input_bits();
    EXPECT_EQ(m, 8);
    EXPECT_EQ(model.num_coefficients(), static_cast<std::size_t>(m * (m + 1) / 2));
    std::size_t populated = 0;
    std::size_t total = 0;
    for (int hd = 1; hd <= m; ++hd) {
        for (int z = 0; z <= m - hd; ++z) {
            ++total;
            if (model.sample_count(hd, z) > 0) {
                ++populated;
            }
        }
    }
    EXPECT_EQ(populated, total) << "stratified pairs must populate every class";
}

TEST(Characterize, EnhancedAllZeroCostsLessThanAllOnes)
{
    // For a multiplier, transitions whose idle bits are all zero gate off
    // most of the array: the all-zero coefficient must be well below the
    // all-ones coefficient at small Hd (fig. 2's spread).
    const DatapathModule module = dp::make_module(ModuleType::CsaMultiplier, 4);
    const Characterizer characterizer;
    CharacterizationOptions options = quick_options(StimulusMode::StratifiedPairs);
    options.max_transitions = 8000;
    options.min_transitions = 6000;
    const EnhancedHdModel model = characterizer.characterize_enhanced(module, 0, options);

    const int m = model.input_bits();
    const int hd = 2;
    const double all_zero = model.coefficient(hd, m - hd);
    const double all_one = model.coefficient(hd, 0);
    EXPECT_LT(all_zero, all_one);
}

TEST(Characterize, ClusteredModelHasFewerCoefficients)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 6);
    const Characterizer characterizer;
    CharacterizationOptions options = quick_options(StimulusMode::StratifiedPairs);
    options.max_transitions = 2000;
    options.min_transitions = 1000;
    const EnhancedHdModel full = characterizer.characterize_enhanced(module, 0, options);
    const EnhancedHdModel clustered =
        characterizer.characterize_enhanced(module, 3, options);
    EXPECT_LT(clustered.num_coefficients(), full.num_coefficients());
}

TEST(Characterize, UnsetModeDefaultsPerEntryPoint)
{
    // Unset mode = StratifiedChain for collect_records; an explicit mode
    // must produce the same stream as passing it by hand.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;

    CharacterizationOptions unset = quick_options(StimulusMode::StratifiedChain);
    unset.mode.reset();
    const auto defaulted = characterizer.collect_records(module, unset);
    const auto explicit_chain = characterizer.collect_records(
        module, quick_options(StimulusMode::StratifiedChain));
    ASSERT_EQ(defaulted.size(), explicit_chain.size());
    for (std::size_t i = 0; i < defaulted.size(); ++i) {
        EXPECT_EQ(defaulted[i].toggle_mask, explicit_chain[i].toggle_mask);
        EXPECT_EQ(defaulted[i].charge_fc, explicit_chain[i].charge_fc);
    }
}

TEST(Characterize, EnhancedRespectsExplicitMode)
{
    // Regression test: characterize_enhanced used to overwrite the caller's
    // mode with StratifiedPairs unconditionally. An explicit RandomChain
    // must leave the extreme (i, z) classes unpopulated — proof the request
    // was honored.
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;
    CharacterizationOptions options = quick_options(StimulusMode::RandomChain);
    options.max_transitions = 2000;
    options.min_transitions = 2000;
    const EnhancedHdModel model = characterizer.characterize_enhanced(module, 0, options);

    // A random chain concentrates Hd binomially around m/2; stratified
    // pairs populate every class evenly. The basic fallback's per-class
    // counts tell which stream actually ran.
    const int m = model.input_bits();
    EXPECT_LT(model.fallback().sample_count(m),
              model.fallback().sample_count(m / 2) / 4)
        << "explicit RandomChain was overridden";
}

TEST(FitBasicModel, ExactMeans)
{
    std::vector<CharacterizationRecord> records{
        {1, 0, 10.0}, {1, 1, 20.0}, {2, 0, 40.0},
    };
    const HdModel model = fit_basic_model(3, records);
    EXPECT_DOUBLE_EQ(model.coefficient(1), 15.0);
    EXPECT_DOUBLE_EQ(model.coefficient(2), 40.0);
    EXPECT_DOUBLE_EQ(model.coefficient(3), 0.0);
    EXPECT_EQ(model.sample_count(1), 2U);
    EXPECT_EQ(model.sample_count(3), 0U);
    // ε_1 = mean(|10-15|/15, |20-15|/15) = 1/3.
    EXPECT_NEAR(model.deviation(1), 1.0 / 3.0, 1e-12);
}

TEST(FitEnhancedModel, BinsByZeros)
{
    std::vector<CharacterizationRecord> records{
        {1, 0, 10.0}, {1, 1, 30.0}, {1, 1, 50.0},
    };
    const EnhancedHdModel model = fit_enhanced_model(2, 0, records);
    EXPECT_DOUBLE_EQ(model.coefficient(1, 0), 10.0);
    EXPECT_DOUBLE_EQ(model.coefficient(1, 1), 40.0);
    // Basic fallback is the global mean of class 1.
    EXPECT_DOUBLE_EQ(model.fallback().coefficient(1), 30.0);
}

TEST(FitModel, RejectsZeroRecords)
{
    const std::vector<CharacterizationRecord> none;
    EXPECT_THROW((void)fit_basic_model(3, none), util::PreconditionError);
    EXPECT_THROW((void)fit_enhanced_model(3, 0, none), util::PreconditionError);
}

// ---------------------------------------------------------------------------
// Degenerate budgets: a zero budget, or one whose shard count overflows (a
// negative budget parsed as unsigned), must be rejected before any shard or
// calibration runs — and must never leave a model in the library.
// ---------------------------------------------------------------------------

void expect_budget_rejected(std::size_t budget, CharBackend backend)
{
    const std::string label = std::to_string(budget) + " / " + char_backend_name(backend);
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const std::filesystem::path dir =
        std::filesystem::path{::testing::TempDir()} /
        ("bad_budget_" + std::to_string(budget % 1000) + "_" +
         std::to_string(static_cast<int>(backend)));
    std::filesystem::remove_all(dir);
    const ModelLibrary library{dir};

    std::size_t shards_merged = 0;
    CharacterizationOptions options;
    options.max_transitions = budget;
    options.min_transitions = 0;
    options.shard_size = 1000;
    options.backend = backend;
    options.progress = [&](const CharProgress&) { ++shards_merged; };

    const Characterizer characterizer;
    EXPECT_THROW((void)characterizer.collect_records(module, options),
                 util::PreconditionError)
        << label;
    EXPECT_THROW((void)ShardRunner(module, options), util::PreconditionError) << label;
    EXPECT_THROW((void)library.get_or_characterize(ModuleType::RippleAdder,
                                                   std::array<int, 1>{4}, options),
                 util::PreconditionError)
        << label;
    EXPECT_THROW((void)library.get_or_characterize_enhanced(
                     ModuleType::RippleAdder, std::array<int, 1>{4}, 0, options),
                 util::PreconditionError)
        << label;
    EXPECT_EQ(shards_merged, 0U) << label;
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator{dir}) {
        ADD_FAILURE() << label << ": stored " << entry.path().filename();
        ++files;
    }
    EXPECT_EQ(files, 0U) << label;
}

TEST(Characterize, ZeroBudgetIsRejectedBeforeAnyShardRuns)
{
    expect_budget_rejected(0, CharBackend::EventKernel);
    expect_budget_rejected(0, CharBackend::PowerEmulation);
}

TEST(Characterize, OverflowingBudgetIsRejectedBeforeAnyShardRuns)
{
    // "--budget -5" parsed by stoul: 2^64 - 5, whose shard-count round-up
    // (budget + shard_size - 1) wraps to zero shards.
    const std::size_t wrapped = std::numeric_limits<std::size_t>::max() - 4;
    expect_budget_rejected(wrapped, CharBackend::EventKernel);
    expect_budget_rejected(wrapped, CharBackend::PowerEmulation);
}

TEST(Characterize, ModelPredictsRandomStreamAverage)
{
    // Closing the loop: a characterized model must estimate the average
    // power of an independent random stream to within a few percent
    // (table 1, data type I, "avg. charge" column).
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 6);
    const Characterizer characterizer;
    CharacterizationOptions options = quick_options(StimulusMode::StratifiedChain);
    options.max_transitions = 8000;
    const HdModel model = characterizer.characterize(module, options);

    const auto patterns =
        make_module_stream(module, streams::DataType::Random, 2000, 999);
    sim::PowerSimulator reference{module.netlist(), gate::TechLibrary::generic350()};
    const auto ref = reference.run(patterns);
    const double estimated = model.estimate_average(patterns);
    EXPECT_NEAR(estimated, ref.mean_charge_fc(), 0.08 * ref.mean_charge_fc());
}

// ---------------------------------------------------------------------------
// Execution-knob determinism: the thread count is a pure execution choice —
// every value must produce bit-identical record streams and therefore
// bit-identical fitted coefficients. This is the invariant that lets
// ModelLibrary exclude it from its options fingerprint and lets
// characterization default to all cores.
// ---------------------------------------------------------------------------

std::vector<CharacterizationRecord> collect_pairs(const DatapathModule& module,
                                                  unsigned threads)
{
    const Characterizer characterizer;

    CharacterizationOptions options;
    options.max_transitions = 1200;
    options.min_transitions = 1200;
    options.batch = 1200;
    options.shard_size = 150; // several shards, so the thread count matters
    options.seed = 23;
    options.mode = StimulusMode::StratifiedPairs;
    options.threads = threads;
    return characterizer.collect_records(module, options);
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
        // Exact: both paths must execute the very same charge accumulation.
        ASSERT_EQ(a[i].charge_fc, b[i].charge_fc) << label << " record " << i;
    }
}

TEST(Determinism, ThreadsMatrixIsBitIdentical)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const auto baseline = collect_pairs(module, 1);
    const EnhancedHdModel baseline_model =
        fit_enhanced_model(module.total_input_bits(), 0, baseline);

    for (const unsigned threads : {2U, 3U, 4U, 8U}) {
        const std::string label = std::to_string(threads) + "t";
        const auto records = collect_pairs(module, threads);
        expect_identical_records(baseline, records, label);

        const EnhancedHdModel model =
            fit_enhanced_model(module.total_input_bits(), 0, records);
        ASSERT_EQ(model.num_coefficients(), baseline_model.num_coefficients()) << label;
        const int m = module.total_input_bits();
        for (int hd = 1; hd <= m; ++hd) {
            for (int z = 0; z <= m - hd; ++z) {
                ASSERT_EQ(model.coefficient(hd, z), baseline_model.coefficient(hd, z))
                    << label << " (" << hd << ", " << z << ")";
            }
        }
    }
}

TEST(Determinism, WarmupCountersReflectMode)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const Characterizer characterizer;

    CharacterizationOptions options;
    options.max_transitions = 500;
    options.min_transitions = 500;
    options.batch = 500;
    options.seed = 5;
    options.mode = StimulusMode::StratifiedPairs;
    options.threads = 1;

    // Pairs mode settles its warm-up vectors in 64-lane batches: 500
    // vectors take ceil(500 / 64) = 8 passes.
    CharRunStats stats;
    options.stats = &stats;
    (void)characterizer.collect_records(module, options);
    EXPECT_EQ(stats.warmup_vectors, 500U);
    EXPECT_EQ(stats.warmup_batches, 8U);

    // Chain modes never warm up and leave the counters untouched.
    CharRunStats chain_stats;
    options.stats = &chain_stats;
    options.mode = StimulusMode::StratifiedChain;
    (void)characterizer.collect_records(module, options);
    EXPECT_EQ(chain_stats.warmup_vectors, 0U);
    EXPECT_EQ(chain_stats.warmup_batches, 0U);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: an interrupted run leaves a crash-safe journal, and a
// later run with the same stimulus plan resumes from it bit-identically —
// under any thread count, because the journal (like the stored-model
// fingerprint) is independent of it. A stale or damaged journal is never
// trusted.
// ---------------------------------------------------------------------------

/// Exception an aborting progress callback uses to simulate a run killed
/// after N merged shards (each already-published journal block survives,
/// exactly as after a SIGKILL).
struct AbortRun {};

std::vector<CharacterizationRecord> collect_pairs_checkpointed(
    const DatapathModule& module, unsigned threads, const std::filesystem::path& checkpoint,
    CharRunStats* stats, std::size_t abort_after_shards)
{
    const Characterizer characterizer;

    CharacterizationOptions options;
    options.max_transitions = 1200;
    options.min_transitions = 1200;
    options.batch = 1200;
    options.shard_size = 150; // the plan of collect_pairs: 8 shards
    options.seed = 23;
    options.mode = StimulusMode::StratifiedPairs;
    options.threads = threads;
    options.checkpoint = checkpoint;
    options.stats = stats;
    if (abort_after_shards > 0) {
        options.progress = [abort_after_shards](const CharProgress& p) {
            if (p.shards_merged >= abort_after_shards) {
                throw AbortRun{};
            }
        };
    }
    return characterizer.collect_records(module, options);
}

TEST(Checkpoint, InterruptedRunResumesBitIdenticallyAcrossThreadCounts)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    // The ground truth: the same plan, uninterrupted and unjournaled.
    const auto baseline = collect_pairs(module, 1);

    const std::filesystem::path dir{::testing::TempDir()};
    for (const unsigned threads : {1U, 2U, 4U}) {
        const std::string label = std::to_string(threads) + "t";
        const std::filesystem::path journal =
            dir / ("resume_matrix_" + label + ".journal");

        // Interrupt on four threads; the progress callback fires before the
        // shard's own publish, so the journal holds the first two shards
        // when the "kill" lands.
        EXPECT_THROW((void)collect_pairs_checkpointed(module, 4, journal, nullptr, 3),
                     AbortRun)
            << label;
        ASSERT_TRUE(std::filesystem::exists(journal)) << label;

        // Resume under every thread count.
        CharRunStats stats;
        const auto records = collect_pairs_checkpointed(module, threads, journal, &stats, 0);
        EXPECT_EQ(stats.shards_resumed, 2U) << label;
        EXPECT_FALSE(stats.checkpoint_discarded) << label;
        EXPECT_GE(stats.checkpoints_published, 1U) << label;
        EXPECT_TRUE(stats.shard_failures.empty()) << label;
        expect_identical_records(baseline, records, label);

        // A completed run retires its journal.
        EXPECT_FALSE(std::filesystem::exists(journal)) << label;
    }
}

TEST(Checkpoint, CorruptJournalIsQuarantinedAndItsWholePrefixSalvaged)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const auto baseline = collect_pairs(module, 1);
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "corrupt_resume.journal";

    EXPECT_THROW((void)collect_pairs_checkpointed(module, 1, journal, nullptr, 3), AbortRun);
    const std::size_t published = load_checkpoint(journal)->shards.size();
    ASSERT_GE(published, 1U);

    // Chop the journal's tail — the short write of a kill on a filesystem
    // without atomic rename. The damage lands in the last shard block;
    // every earlier block is still whole.
    const auto size = std::filesystem::file_size(journal);
    ASSERT_GT(size, 20U);
    std::filesystem::resize_file(journal, size - 20);

    CharRunStats stats;
    const auto records = collect_pairs_checkpointed(module, 1, journal, &stats, 0);
    // The damaged file itself is never trusted again, but the whole-shard
    // prefix inside it is salvaged and resumed; only the torn tail is
    // re-simulated.
    EXPECT_TRUE(stats.checkpoint_discarded);
    EXPECT_EQ(stats.checkpoint_salvaged, published > 1);
    EXPECT_EQ(stats.shards_resumed, published - 1);
    expect_identical_records(baseline, records, "corrupt journal");
    // The damaged journal was set aside for inspection, not destroyed.
    EXPECT_TRUE(std::filesystem::exists(journal.string() + ".corrupt"));
    std::filesystem::remove(journal.string() + ".corrupt");
}

TEST(Checkpoint, JournalFromAnotherPlanIsDiscarded)
{
    // A journal written for one module must never seed another module's
    // run — the module key and input bits are part of the journal stamp.
    const DatapathModule four = dp::make_module(ModuleType::RippleAdder, 4);
    const DatapathModule five = dp::make_module(ModuleType::RippleAdder, 5);
    const auto baseline = collect_pairs(five, 1);
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "cross_plan.journal";

    EXPECT_THROW((void)collect_pairs_checkpointed(four, 1, journal, nullptr, 3), AbortRun);

    CharRunStats stats;
    const auto records = collect_pairs_checkpointed(five, 1, journal, &stats, 0);
    EXPECT_TRUE(stats.checkpoint_discarded);
    EXPECT_EQ(stats.shards_resumed, 0U);
    expect_identical_records(baseline, records, "cross-plan journal");
}

TEST(Checkpoint, JournalRoundTripIsBitExact)
{
    CharCheckpoint journal;
    journal.fingerprint = 0xdeadbeef01234567ULL;
    journal.module_key = "ripple_adder_W4xW4";
    journal.input_bits = 8;
    CheckpointShard shard;
    shard.index = 0;
    // Charges that would not survive a sloppy decimal round trip.
    shard.records.push_back({3, 2, 1.0 / 3.0, 0x55});
    shard.records.push_back({8, 0, 4.9406564584124654e-324, 0xff}); // denormal
    shard.records.push_back({1, 7, 123456.78901234567, 0x01});
    journal.shards.push_back(shard);
    journal.shards.push_back(CheckpointShard{1, {}}); // a failed shard's block

    const std::filesystem::path path =
        std::filesystem::path{::testing::TempDir()} / "roundtrip.journal";
    save_checkpoint(path, journal);
    const auto loaded = load_checkpoint(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->fingerprint, journal.fingerprint);
    EXPECT_EQ(loaded->module_key, journal.module_key);
    EXPECT_EQ(loaded->input_bits, journal.input_bits);
    ASSERT_EQ(loaded->shards.size(), 2U);
    ASSERT_EQ(loaded->shards[0].records.size(), 3U);
    EXPECT_TRUE(loaded->shards[1].records.empty());
    for (std::size_t i = 0; i < 3; ++i) {
        const auto& a = journal.shards[0].records[i];
        const auto& b = loaded->shards[0].records[i];
        EXPECT_EQ(a.hd, b.hd) << i;
        EXPECT_EQ(a.stable_zeros, b.stable_zeros) << i;
        EXPECT_EQ(a.toggle_mask, b.toggle_mask) << i;
        EXPECT_EQ(a.charge_fc, b.charge_fc) << i; // exact, incl. the denormal
    }
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Power-emulation backend: the same stimulus plan scored word-parallel.
// Records must be bit-identical across every execution knob (the stream and
// the weighted dot products are pure functions of the plan), resume from a
// checkpoint bit-identically, and — once the glitch correction is calibrated
// — land the mean charge within the documented tolerance of the event kernel
// on every module family.
// ---------------------------------------------------------------------------

std::vector<CharacterizationRecord> collect_emulated(
    const DatapathModule& module, StimulusMode mode, unsigned threads,
    std::size_t calibration, CharRunStats* stats = nullptr,
    const std::filesystem::path& checkpoint = {}, std::size_t abort_after_shards = 0)
{
    const Characterizer characterizer;
    CharacterizationOptions options;
    options.max_transitions = 1200;
    options.min_transitions = 1200;
    options.batch = 1200;
    options.shard_size = 150;
    options.seed = 23;
    options.mode = mode;
    options.threads = threads;
    options.backend = CharBackend::PowerEmulation;
    options.calibration_pairs = calibration;
    options.stats = stats;
    options.checkpoint = checkpoint;
    if (abort_after_shards > 0) {
        options.progress = [abort_after_shards](const CharProgress& p) {
            if (p.shards_merged >= abort_after_shards) {
                throw AbortRun{};
            }
        };
    }
    return characterizer.collect_records(module, options);
}

TEST(Emulation, ThreadCountMatrixIsBitIdentical)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const int m = module.total_input_bits();
    // Calibration geometries: two shards of several pieces each; one shard
    // larger than a piece (shard_size >= calibration_pairs, the CLI and
    // serve default); and 200 pairs, a multiple of neither the 64-pair nor
    // the 63-transition piece. Each runs single-corner and as a K=3 sweep.
    struct Geometry {
        std::size_t calibration;
        std::size_t shard_size;
    };
    constexpr Geometry kGeometries[] = {{256, 150}, {256, 2000}, {200, 150}};
    const std::vector<gate::Corner> sweep = {{3.3, 25.0, gate::LoadClass::Nominal},
                                             {2.5, 85.0, gate::LoadClass::Nominal},
                                             {3.0, 50.0, gate::LoadClass::Heavy}};
    const Characterizer characterizer;
    for (const StimulusMode mode :
         {StimulusMode::StratifiedPairs, StimulusMode::StratifiedChain,
          StimulusMode::RandomChain}) {
        for (const Geometry& geometry : kGeometries) {
            for (const std::vector<gate::Corner>& corners :
                 {std::vector<gate::Corner>{}, sweep}) {
                const auto run = [&](unsigned threads, CharRunStats& stats) {
                    CharacterizationOptions options;
                    options.max_transitions = 1200;
                    options.min_transitions = 1200;
                    options.batch = 1200;
                    options.shard_size = geometry.shard_size;
                    options.seed = 23;
                    options.mode = mode;
                    options.threads = threads;
                    options.backend = CharBackend::PowerEmulation;
                    options.calibration_pairs = geometry.calibration;
                    options.corners = corners;
                    options.stats = &stats;
                    if (corners.empty()) {
                        return std::vector<std::vector<CharacterizationRecord>>{
                            characterizer.collect_records(module, options)};
                    }
                    return characterizer.collect_records_corners(module, options);
                };
                CharRunStats baseline_stats;
                const auto baseline = run(1, baseline_stats);
                // Calibration runs once per timing class: the sweep's two
                // nominal-load corners share theirs.
                const std::size_t classes = corners.empty() ? 1 : 2;
                EXPECT_EQ(baseline_stats.calibration_pairs, geometry.calibration * classes);
                for (const unsigned threads : {2U, 4U, 8U}) {
                    const std::string label =
                        std::to_string(static_cast<int>(mode)) + "/" +
                        std::to_string(geometry.calibration) + " pairs/" +
                        std::to_string(geometry.shard_size) + " shard/" +
                        std::to_string(baseline.size()) + " corners/" +
                        std::to_string(threads) + "t";
                    CharRunStats stats;
                    const auto records = run(threads, stats);
                    EXPECT_EQ(stats.calibration_scale, baseline_stats.calibration_scale)
                        << label;
                    EXPECT_EQ(stats.calibration_pairs, baseline_stats.calibration_pairs)
                        << label;
                    ASSERT_EQ(records.size(), baseline.size()) << label;
                    for (std::size_t k = 0; k < records.size(); ++k) {
                        expect_identical_records(baseline[k], records[k],
                                                 label + " corner " + std::to_string(k));
                        // The calibrated weights feed every record, so
                        // coefficient equality also proves the calibration
                        // fit is thread-invariant.
                        const EnhancedHdModel model = fit_enhanced_model(m, 0, records[k]);
                        const EnhancedHdModel baseline_model =
                            fit_enhanced_model(m, 0, baseline[k]);
                        for (int hd = 1; hd <= m; ++hd) {
                            for (int z = 0; z <= m - hd; ++z) {
                                ASSERT_EQ(model.coefficient(hd, z),
                                          baseline_model.coefficient(hd, z))
                                    << label << " (" << hd << ", " << z << ")";
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(Emulation, RunnerFittedFromPiecesMatchesInProcessCalibration)
{
    // The fleet's calibration path: pieces run one at a time, in any
    // order, and handed to fit_calibration must fit the weights an
    // in-process calibration fits, so every shard block is bit-identical.
    // Shards of 100 are a multiple of neither piece size, and 230 pairs
    // leave a last calibration shard of 30, shorter than one piece.
    const DatapathModule module = dp::make_module(ModuleType::CsaMultiplier, 4);
    for (const StimulusMode mode : {StimulusMode::StratifiedPairs, StimulusMode::StratifiedChain}) {
        const std::string label = "mode " + std::to_string(static_cast<int>(mode));
        CharacterizationOptions options;
        options.max_transitions = 450;
        options.min_transitions = 450;
        options.batch = 450;
        options.shard_size = 100;
        options.calibration_pairs = 230;
        options.seed = 31;
        options.mode = mode;
        options.threads = 3;
        options.backend = CharBackend::PowerEmulation;

        const ShardRunner in_process{module, options};
        ShardRunner from_pieces{module, options, gate::TechLibrary::generic350(), {},
                                ShardRunner::Calibration::FromPieces};
        const std::vector<CalibrationPiece>& pieces = from_pieces.calibration_pieces();
        ASSERT_EQ(pieces.size(), 5U) << label; // 2 + 2 + 1
        EXPECT_EQ(pieces.back().shard, 2U) << label;
        EXPECT_EQ(pieces.back().count, 30U) << label;
        EXPECT_EQ(in_process.calibration_pieces().size(), pieces.size()) << label;
        EXPECT_THROW((void)from_pieces.run(0), util::PreconditionError) << label;

        std::vector<CalibrationPieceResult> results(pieces.size());
        for (std::size_t i = pieces.size(); i-- > 0;) {
            results[i] = from_pieces.run_calibration_piece(i);
            EXPECT_EQ(results[i].charges.size(), pieces[i].count) << label;
            EXPECT_EQ(results[i].zero_toggles.size(), results[i].event_toggles.size()) << label;
        }
        // A result of the wrong shape is refused before anything is fitted.
        std::vector<CalibrationPieceResult> short_results = results;
        short_results[1].charges.pop_back();
        EXPECT_THROW(from_pieces.fit_calibration(short_results), util::PreconditionError)
            << label;

        from_pieces.fit_calibration(results);
        EXPECT_THROW(from_pieces.fit_calibration(results), util::PreconditionError) << label;
        for (std::size_t shard = 0; shard < in_process.num_shards(); ++shard) {
            expect_identical_records(in_process.run(shard), from_pieces.run(shard),
                                     label + " shard " + std::to_string(shard));
        }
    }
}

TEST(Emulation, CalibrationPiecesFollowThePlan)
{
    CharacterizationOptions options;
    options.shard_size = 150;
    options.calibration_pairs = 256;
    // One exactly simulated corner calibrates nothing.
    EXPECT_TRUE(calibration_pieces(options).empty());

    options.backend = CharBackend::PowerEmulation;
    // Chain pieces of 63: shard 0 holds 150 = 63 + 63 + 24, shard 1 106 = 63 + 43.
    const std::vector<CalibrationPiece> chain = calibration_pieces(options);
    ASSERT_EQ(chain.size(), 5U);
    EXPECT_EQ(chain[2].first, 126U);
    EXPECT_EQ(chain[2].count, 24U);
    EXPECT_EQ(chain[4].shard, 1U);
    EXPECT_EQ(chain[4].count, 43U);

    // Pairs pieces of 64, once per timing class of a sweep: corners of one
    // load class share their pieces.
    options.mode = StimulusMode::StratifiedPairs;
    options.corners = {{3.3, 25.0, gate::LoadClass::Nominal},
                       {2.5, 85.0, gate::LoadClass::Nominal}};
    EXPECT_EQ(calibration_pieces(options).size(), 5U); // (64 + 64 + 22) + (64 + 42)
    options.corners.push_back({3.0, 50.0, gate::LoadClass::Heavy});
    const std::vector<CalibrationPiece> pairs = calibration_pieces(options);
    ASSERT_EQ(pairs.size(), 10U); // the same, twice
    EXPECT_EQ(pairs[4].timing_class, 0U);
    EXPECT_EQ(pairs[5].timing_class, 1U);
    EXPECT_EQ(pairs[5].first, 0U);

    options.calibration_pairs = 0;
    EXPECT_TRUE(calibration_pieces(options).empty());
}

TEST(Emulation, ResumeFromCheckpointIsBitIdentical)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);
    const auto baseline =
        collect_emulated(module, StimulusMode::StratifiedPairs, 1, 256);
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "emulation_resume.journal";

    EXPECT_THROW((void)collect_emulated(module, StimulusMode::StratifiedPairs, 4,
                                        256, nullptr, journal, 3),
                 AbortRun);
    ASSERT_TRUE(std::filesystem::exists(journal));

    // The resumed run recomputes the calibration (it is a pure function of
    // the plan, never journaled) and must reproduce the uninterrupted
    // stream bit for bit.
    CharRunStats stats;
    const auto records = collect_emulated(module, StimulusMode::StratifiedPairs, 1,
                                          256, &stats, journal, 0);
    EXPECT_EQ(stats.shards_resumed, 2U);
    EXPECT_FALSE(stats.checkpoint_discarded);
    expect_identical_records(baseline, records, "emulation resume");
    EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(Emulation, StatsCountersReflectBackend)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 4);

    CharRunStats stats;
    const auto records =
        collect_emulated(module, StimulusMode::StratifiedPairs, 1, 256, &stats);
    EXPECT_EQ(stats.backend, CharBackend::PowerEmulation);
    EXPECT_EQ(stats.emulated_pairs, records.size());
    EXPECT_GT(stats.emulation_passes, 0U);
    // Emulation runs no event kernel outside calibration.
    EXPECT_EQ(stats.sim_events, 0U);
    EXPECT_EQ(stats.calibration_pairs, 256U);
    EXPECT_GT(stats.calibration_scale, 0.0);

    CharRunStats event_stats;
    CharacterizationOptions options;
    options.max_transitions = 500;
    options.min_transitions = 500;
    options.batch = 500;
    options.seed = 5;
    options.mode = StimulusMode::StratifiedPairs;
    options.threads = 1;
    options.stats = &event_stats;
    const Characterizer characterizer;
    (void)characterizer.collect_records(module, options);
    EXPECT_EQ(event_stats.backend, CharBackend::EventKernel);
    EXPECT_EQ(event_stats.emulated_pairs, 0U);
    EXPECT_EQ(event_stats.emulation_passes, 0U);
    EXPECT_EQ(event_stats.calibration_pairs, 0U);
    EXPECT_GT(event_stats.sim_events, 0U);
}

TEST(Emulation, CalibratedChargeWithinToleranceOnEveryModuleFamily)
{
    // The accuracy regression behind docs/simulator.md's contract: with the
    // default-sized calibration, the emulated mean cycle charge stays
    // within 10% of the event kernel's on every dpgen module family.
    for (const ModuleType type : dp::all_module_types()) {
        const DatapathModule module = dp::make_module(type, 3);
        const Characterizer characterizer;

        CharacterizationOptions options;
        options.max_transitions = 2000;
        options.min_transitions = 2000;
        options.batch = 2000;
        options.shard_size = 500;
        options.seed = 29;
        options.mode = StimulusMode::StratifiedPairs;
        options.threads = 1;
        const auto event_records = characterizer.collect_records(module, options);

        options.backend = CharBackend::PowerEmulation;
        options.calibration_pairs = 512;
        const auto emulated_records = characterizer.collect_records(module, options);

        ASSERT_EQ(event_records.size(), emulated_records.size())
            << dp::module_type_id(type);
        double event_mean = 0.0;
        double emulated_mean = 0.0;
        for (std::size_t i = 0; i < event_records.size(); ++i) {
            // Both backends walk the identical stimulus stream.
            ASSERT_EQ(event_records[i].toggle_mask, emulated_records[i].toggle_mask)
                << dp::module_type_id(type) << " record " << i;
            event_mean += event_records[i].charge_fc;
            emulated_mean += emulated_records[i].charge_fc;
        }
        event_mean /= static_cast<double>(event_records.size());
        emulated_mean /= static_cast<double>(emulated_records.size());
        ASSERT_GT(event_mean, 0.0) << dp::module_type_id(type);
        EXPECT_NEAR(emulated_mean, event_mean, 0.10 * event_mean)
            << dp::module_type_id(type);
    }
}

TEST(Emulation, ChainModesMatchEventStreamClasses)
{
    // Chain-mode emulation drops Hd = 0 duplicates from the stream instead
    // of replaying them; the (hd, zeros) class sequence must still match
    // the event backend's records exactly.
    const DatapathModule module = dp::make_module(ModuleType::CsaMultiplier, 3);
    const Characterizer characterizer;
    for (const StimulusMode mode :
         {StimulusMode::StratifiedChain, StimulusMode::RandomChain}) {
        CharacterizationOptions options;
        options.max_transitions = 1000;
        options.min_transitions = 1000;
        options.batch = 1000;
        options.seed = 31;
        options.mode = mode;
        options.threads = 1;
        const auto event_records = characterizer.collect_records(module, options);

        options.backend = CharBackend::PowerEmulation;
        options.calibration_pairs = 256;
        const auto emulated_records = characterizer.collect_records(module, options);

        ASSERT_EQ(event_records.size(), emulated_records.size());
        for (std::size_t i = 0; i < event_records.size(); ++i) {
            ASSERT_EQ(event_records[i].hd, emulated_records[i].hd) << i;
            ASSERT_EQ(event_records[i].stable_zeros, emulated_records[i].stable_zeros)
                << i;
            ASSERT_EQ(event_records[i].toggle_mask, emulated_records[i].toggle_mask)
                << i;
        }
    }
}

TEST(Checkpoint, MalformedJournalsThrowCheckpointCorrupt)
{
    const std::filesystem::path dir{::testing::TempDir()};

    // Missing file: not an error, just nothing to resume.
    EXPECT_FALSE(load_checkpoint(dir / "does_not_exist.journal").has_value());

    const auto expect_corrupt = [&](const std::string& name,
                                    const std::string& content) {
        const std::filesystem::path path = dir / name;
        std::ofstream{path} << content;
        try {
            (void)load_checkpoint(path);
            FAIL() << name << " accepted";
        } catch (const util::FaultError& fault) {
            EXPECT_EQ(fault.kind(), util::FaultKind::CheckpointCorrupt) << name;
        }
        std::filesystem::remove(path);
    };

    const std::string header =
        oracle::journal_header(0xaa, "adder_W4xW4", /*m=*/8, /*corners=*/1);
    const std::string record = "3 2 0000000000000055 3fd5555555555555\n";
    expect_corrupt("bad_magic.journal", "hdpm_model 1\n");
    // A torn last block: its frame declares more bytes than remain.
    const std::string whole = oracle::journal_block("shard 0 2\n" + record + record);
    expect_corrupt("truncated.journal", header + whole.substr(0, whole.size() - 1));
    // Shard indices must form a contiguous prefix of the plan.
    expect_corrupt("gap.journal", header + oracle::journal_block("shard 1 0\n"));
    // Out-of-range records are damage even when the syntax parses.
    expect_corrupt("bad_record.journal",
                   header + oracle::journal_block(
                                "shard 0 1\n9 0 0000000000000055 3fd5555555555555\n"));
    // A block whose bytes do not match its checksum.
    std::string flipped = oracle::journal_block("shard 0 1\n" + record);
    flipped.back() = ' ';
    expect_corrupt("bad_checksum.journal", header + flipped);
    // A declared count far beyond what the block holds is rejected before
    // anything is allocated for it.
    expect_corrupt("huge_count.journal",
                   header + oracle::journal_block("shard 0 100000000000000\n" + record));
    // A version-1 journal (whole-file rewrites, "end" marker) is not
    // resumed by this format.
    expect_corrupt("version1.journal",
                   "hdpm_checkpoint 1\n"
                   "fingerprint 00000000000000aa\n"
                   "module adder_W4xW4 m 8\n"
                   "shard 0 1\n"
                   "3 2 3fd5555555555555 0000000000000055\n"
                   "end\n");
}

} // namespace
} // namespace hdpm::core

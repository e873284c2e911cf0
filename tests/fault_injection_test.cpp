// End-to-end tests of every fault-injection point and its degradation
// path: corrupted model publishes are quarantined and rebuilt, failing
// stimulus shards are captured (or abort the run under --strict), a forced
// event-budget fault surfaces the replayable (u, v) diagnostic, a
// rank-collapsed regression records its ridge fallback, and a corrupted
// checkpoint journal is set aside instead of resumed.
//
// The injection hooks are compiled out of Release builds; every test that
// needs them skips itself there. The injector API itself (determinism,
// countdown semantics) is always available and always tested.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/characterize.hpp"
#include "core/checkpoint.hpp"
#include "core/model_library.hpp"
#include "core/regression.hpp"
#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "util/fault.hpp"

namespace hdpm::core {
namespace {

using dp::DatapathModule;
using dp::ModuleType;
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

/// A fresh, empty model-library directory under the test temp dir.
std::filesystem::path fresh_dir(const std::string& name)
{
    const std::filesystem::path dir = std::filesystem::path{::testing::TempDir()} / name;
    std::filesystem::remove_all(dir);
    return dir;
}

/// A small, fast stimulus plan: 4 shards of 100 records on a 4-bit-input
/// adder, convergence disabled (one batch check at the very end).
CharacterizationOptions small_plan()
{
    CharacterizationOptions options;
    options.max_transitions = 400;
    options.min_transitions = 400;
    options.batch = 400;
    options.shard_size = 100;
    options.seed = 9;
    options.threads = 1;
    return options;
}

std::size_t corrupt_files_in(const std::filesystem::path& dir)
{
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator{dir}) {
        if (entry.path().extension() == ".corrupt") {
            ++count;
        }
    }
    return count;
}

void expect_same_model(const HdModel& a, const HdModel& b, const char* label)
{
    ASSERT_EQ(a.input_bits(), b.input_bits()) << label;
    for (int hd = 1; hd <= a.input_bits(); ++hd) {
        ASSERT_EQ(a.coefficient(hd), b.coefficient(hd)) << label << " hd " << hd;
        ASSERT_EQ(a.deviation(hd), b.deviation(hd)) << label << " hd " << hd;
    }
}

// ------------------------------------------------------------- injector

TEST(FaultInjector, CountdownFiresExactlyOnce)
{
    FaultInjector injector{1};
    injector.arm(FaultPoint::ShardException, 3);
    EXPECT_FALSE(injector.fire(FaultPoint::ShardException)); // 1st pass
    EXPECT_FALSE(injector.fire(FaultPoint::ShardException)); // 2nd pass
    EXPECT_TRUE(injector.fire(FaultPoint::ShardException));  // 3rd: fires
    EXPECT_FALSE(injector.fire(FaultPoint::ShardException)); // disarmed
    EXPECT_EQ(injector.fired_count(FaultPoint::ShardException), 1U);
    // Other points are untouched.
    EXPECT_FALSE(injector.fire(FaultPoint::EventBudget));
    EXPECT_EQ(injector.fired_count(FaultPoint::EventBudget), 0U);
}

TEST(FaultInjector, PayloadCorruptionIsDeterministicAndSparesHeader)
{
    const std::string original = "header line\nbody line one\nbody line two\nend\n";
    for (const FaultPoint point :
         {FaultPoint::ModelShortWrite, FaultPoint::ModelBitFlip}) {
        std::string a = original;
        std::string b = original;
        FaultInjector first{42};
        first.arm(point);
        first.mutate_payload(point, a);
        FaultInjector second{42};
        second.arm(point);
        second.mutate_payload(point, b);
        EXPECT_NE(a, original); // it did corrupt
        EXPECT_EQ(a, b);        // ... the same way for the same seed
        // The header line is never touched: the damage models a payload
        // corrupted behind an intact fingerprint header.
        EXPECT_EQ(a.substr(0, a.find('\n')), "header line");
    }
}

TEST(FaultInjector, UnarmedMutateIsANoOp)
{
    FaultInjector injector{7};
    std::string payload = "header\nbody\n";
    injector.mutate_payload(FaultPoint::ModelShortWrite, payload);
    EXPECT_EQ(payload, "header\nbody\n");
}

// ------------------------------------------------- model store corruption

TEST(FaultInjection, ShortModelWriteIsQuarantinedAndRebuilt)
{
    SKIP_WITHOUT_HOOKS();
    const std::filesystem::path dir = fresh_dir("inj_short_write");
    const std::array<int, 1> widths = {2};
    const CharacterizationOptions options = small_plan();

    FaultInjector injector{11};
    ScopedFaultInjector scope{injector};
    injector.arm(FaultPoint::ModelShortWrite);

    const ModelLibrary library{dir};
    const HdModel built =
        library.get_or_characterize(ModuleType::RippleAdder, widths, options);
    EXPECT_EQ(injector.fired_count(FaultPoint::ModelShortWrite), 1U);

    // The published file is truncated behind its valid header; the next
    // open must quarantine it and recharacterize bit-identically.
    const ModelLibrary reopened{dir};
    const HdModel rebuilt =
        reopened.get_or_characterize(ModuleType::RippleAdder, widths, options);
    EXPECT_EQ(reopened.models_quarantined(), 1U);
    EXPECT_EQ(corrupt_files_in(dir), 1U);
    expect_same_model(built, rebuilt, "short write");

    // The rebuilt file is healthy: a third open loads it straight.
    const ModelLibrary healthy{dir};
    expect_same_model(
        built, healthy.get_or_characterize(ModuleType::RippleAdder, widths, options),
        "reload");
    EXPECT_EQ(healthy.models_quarantined(), 0U);
}

TEST(FaultInjection, ModelBitFlipIsQuarantinedAndRebuilt)
{
    SKIP_WITHOUT_HOOKS();
    const std::filesystem::path dir = fresh_dir("inj_bit_flip");
    const std::array<int, 1> widths = {2};
    const CharacterizationOptions options = small_plan();

    FaultInjector injector{13};
    ScopedFaultInjector scope{injector};
    injector.arm(FaultPoint::ModelBitFlip);

    const ModelLibrary library{dir};
    const HdModel built =
        library.get_or_characterize(ModuleType::RippleAdder, widths, options);
    EXPECT_EQ(injector.fired_count(FaultPoint::ModelBitFlip), 1U);

    const ModelLibrary reopened{dir};
    const HdModel rebuilt =
        reopened.get_or_characterize(ModuleType::RippleAdder, widths, options);
    EXPECT_EQ(reopened.models_quarantined(), 1U);
    EXPECT_EQ(corrupt_files_in(dir), 1U);
    expect_same_model(built, rebuilt, "bit flip");
}

// --------------------------------------------------- shard fault isolation

TEST(FaultInjection, ShardFailureIsCapturedAndSiblingsContinue)
{
    SKIP_WITHOUT_HOOKS();
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;

    // Inputs: the single-corner plan, and a 3-corner power-emulation sweep
    // of it (one failing shard loses its block at every corner).
    CharacterizationOptions sweep = small_plan();
    sweep.backend = CharBackend::PowerEmulation;
    sweep.corners = {{3.3, 25.0, gate::LoadClass::Nominal},
                     {2.5, 85.0, gate::LoadClass::Nominal},
                     {3.0, 50.0, gate::LoadClass::Heavy}};
    const auto collect = [&](const CharacterizationOptions& options)
        -> std::vector<std::vector<CharacterizationRecord>> {
        if (options.corners.empty()) {
            return {characterizer.collect_records(module, options)};
        }
        return characterizer.collect_records_corners(module, options);
    };

    for (const CharacterizationOptions& plan : {small_plan(), sweep}) {
        const std::string label = std::to_string(plan.corners.size()) + " corners";

        // Ground truth without injection.
        const auto baseline = collect(plan);
        ASSERT_EQ(baseline[0].size(), 400U) << label;

        FaultInjector injector{17};
        ScopedFaultInjector scope{injector};
        injector.arm(FaultPoint::ShardException);

        CharacterizationOptions options = plan;
        CharRunStats stats;
        options.stats = &stats;
        const auto records = collect(options);
        EXPECT_EQ(injector.fired_count(FaultPoint::ShardException), 1U) << label;

        // The failure is reported once.
        ASSERT_EQ(stats.shard_failures.size(), 1U) << label;
        EXPECT_EQ(stats.shard_failures[0].shard, 0U) << label;
        EXPECT_EQ(stats.shard_failures[0].kind, FaultKind::ShardFailed) << label;
        EXPECT_FALSE(stats.shard_failures[0].message.empty()) << label;

        // Every corner lost the same shard (100 records); everything else
        // survived unchanged.
        ASSERT_EQ(records.size(), baseline.size()) << label;
        for (std::size_t k = 0; k < records.size(); ++k) {
            ASSERT_EQ(records[k].size(), baseline[k].size() - 100) << label << " " << k;
            for (std::size_t i = 0; i < records[k].size(); ++i) {
                ASSERT_EQ(records[k][i].charge_fc, baseline[k][i + 100].charge_fc)
                    << label << " corner " << k << " record " << i;
            }
        }

        // The degraded record set still fits a usable model.
        const HdModel model = fit_basic_model(module.total_input_bits(), records[0]);
        EXPECT_GT(model.coefficient(1), 0.0) << label;
    }
}

TEST(FaultInjection, ResumedDegradedRunReportsItsFailedShard)
{
    SKIP_WITHOUT_HOOKS();
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "degraded_resume.journal";
    std::filesystem::remove(journal);

    // The uninterrupted degraded run: shard 0 fails, its siblings continue.
    CharRunStats degraded_stats;
    std::vector<CharacterizationRecord> degraded;
    {
        FaultInjector injector{41};
        ScopedFaultInjector scope{injector};
        injector.arm(FaultPoint::ShardException);
        CharacterizationOptions options = small_plan();
        options.stats = &degraded_stats;
        degraded = characterizer.collect_records(module, options);
    }
    ASSERT_EQ(degraded_stats.shard_failures.size(), 1U);

    // The same run, checkpointed and killed after 3 merged shards: its
    // journal holds the failed shard 0 as an empty block.
    struct AbortRun {};
    {
        FaultInjector injector{41};
        ScopedFaultInjector scope{injector};
        injector.arm(FaultPoint::ShardException);
        CharacterizationOptions options = small_plan();
        options.checkpoint = journal;
        options.progress = [](const CharProgress& p) {
            if (p.shards_merged >= 3) {
                throw AbortRun{};
            }
        };
        EXPECT_THROW((void)characterizer.collect_records(module, options), AbortRun);
    }
    ASSERT_TRUE(std::filesystem::exists(journal));

    // Resume without injection: the journaled failure is still reported,
    // so the resumed run matches the uninterrupted degraded one.
    CharacterizationOptions options = small_plan();
    options.checkpoint = journal;
    CharRunStats stats;
    options.stats = &stats;
    const auto records = characterizer.collect_records(module, options);
    EXPECT_GT(stats.shards_resumed, 0U);
    EXPECT_EQ(stats.shards, degraded_stats.shards);
    ASSERT_EQ(stats.shard_failures.size(), degraded_stats.shard_failures.size());
    for (std::size_t i = 0; i < stats.shard_failures.size(); ++i) {
        EXPECT_EQ(stats.shard_failures[i].shard, degraded_stats.shard_failures[i].shard);
        EXPECT_EQ(stats.shard_failures[i].kind, FaultKind::ShardFailed);
    }
    ASSERT_EQ(records.size(), degraded.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(records[i].charge_fc, degraded[i].charge_fc) << "record " << i;
        ASSERT_EQ(records[i].toggle_mask, degraded[i].toggle_mask) << "record " << i;
    }
    EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(FaultInjection, StrictModeAbortsOnFirstShardFailureWithLocation)
{
    SKIP_WITHOUT_HOOKS();
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;

    FaultInjector injector{19};
    ScopedFaultInjector scope{injector};
    injector.arm(FaultPoint::ShardException);

    CharacterizationOptions options = small_plan();
    options.strict_faults = true;
    try {
        (void)characterizer.collect_records(module, options);
        FAIL() << "strict run did not abort";
    } catch (const util::FaultError& fault) {
        EXPECT_EQ(fault.kind(), FaultKind::ShardFailed);
        // The fault boundary enriched the context with its location.
        EXPECT_EQ(fault.context().shard, 0);
        EXPECT_EQ(fault.context().bitwidth, module.total_input_bits());
        EXPECT_FALSE(fault.context().component.empty());
    }
}

/// Threads of this process (Linux), or 0 where /proc is unavailable. A
/// joined thread can linger in /proc for a moment after its join returns.
std::size_t live_threads()
{
    std::error_code ec;
    std::size_t count = 0;
    for (std::filesystem::directory_iterator it{"/proc/self/task", ec}, end;
         !ec && it != end; it.increment(ec)) {
        ++count;
    }
    return ec ? 0 : count;
}

TEST(FaultInjection, StrictAbortWithShardsInFlightRethrowsAndJoins)
{
    SKIP_WITHOUT_HOOKS();
    // 20 event-kernel shards streamed over 4 workers: the third shard to
    // start throws while its siblings are still simulating. The strict
    // merge rethrows the tagged fault only after every worker has joined.
    const DatapathModule module = dp::make_module(ModuleType::CsaMultiplier, 8);
    const Characterizer characterizer;
    CharacterizationOptions options = small_plan();
    options.max_transitions = 4000;
    options.min_transitions = 4000;
    options.batch = 4000;
    options.shard_size = 200;
    options.threads = 4;

    // A clean run first: runtimes that start helper threads lazily (a
    // sanitizer's, say) have done so before the baseline count.
    ASSERT_EQ(characterizer.collect_records(module, options).size(), 4000U);
    options.strict_faults = true;
    std::size_t threads_before = live_threads();
    for (int wait = 0; wait < 10; ++wait) { // let the clean run's threads leave
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        threads_before = std::min(threads_before, live_threads());
    }
    for (int round = 0; round < 5; ++round) {
        FaultInjector injector{43};
        ScopedFaultInjector scope{injector};
        injector.arm(FaultPoint::ShardException, 3);
        try {
            (void)characterizer.collect_records(module, options);
            FAIL() << "strict run did not abort (round " << round << ")";
        } catch (const util::FaultError& fault) {
            EXPECT_EQ(fault.kind(), FaultKind::ShardFailed) << round;
            EXPECT_GE(fault.context().shard, 0) << round;
            EXPECT_LT(fault.context().shard, 20) << round;
            EXPECT_EQ(fault.context().bitwidth, module.total_input_bits()) << round;
            EXPECT_FALSE(fault.context().component.empty()) << round;
        }
        EXPECT_EQ(injector.fired_count(FaultPoint::ShardException), 1U) << round;
        // Joined threads leave /proc within moments; a leaked one never does.
        for (int wait = 0; wait < 200 && live_threads() > threads_before; ++wait) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        EXPECT_LE(live_threads(), threads_before) << "leaked thread, round " << round;
    }
}

TEST(FaultInjection, AllShardsFailingThrowsEvenWhenNotStrict)
{
    SKIP_WITHOUT_HOOKS();
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;

    CharacterizationOptions options = small_plan();
    options.max_transitions = 100; // a single shard...
    options.min_transitions = 100;

    FaultInjector injector{23};
    ScopedFaultInjector scope{injector};
    injector.arm(FaultPoint::ShardException); // ... which fails

    // Zero records is not a degraded result, it is a failed run.
    EXPECT_THROW((void)characterizer.collect_records(module, options),
                 util::FaultError);
}

// ------------------------------------------------------------ event budget

TEST(FaultInjection, ForcedEventBudgetFaultCarriesReplayableVectors)
{
    SKIP_WITHOUT_HOOKS();
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;

    FaultInjector injector{29};
    ScopedFaultInjector scope{injector};
    injector.arm(FaultPoint::EventBudget);

    CharacterizationOptions options = small_plan();
    CharRunStats stats;
    options.stats = &stats;
    const auto records = characterizer.collect_records(module, options);
    EXPECT_EQ(injector.fired_count(FaultPoint::EventBudget), 1U);

    ASSERT_EQ(stats.shard_failures.size(), 1U);
    EXPECT_EQ(stats.shard_failures[0].kind, FaultKind::SimBudgetExceeded);
    // The captured message names the exact input pair to replay.
    EXPECT_NE(stats.shard_failures[0].message.find("u=0x"), std::string::npos)
        << stats.shard_failures[0].message;
    EXPECT_FALSE(records.empty());
}

// ------------------------------------------------------- regression rank

TEST(FaultInjection, RankCollapsedRegressionRecordsRidgeFallback)
{
    SKIP_WITHOUT_HOOKS();
    const Characterizer characterizer;
    const CharacterizationOptions plan = small_plan();
    std::vector<PrototypeModel> prototypes;
    for (const int width : {2, 3, 4}) {
        PrototypeModel proto;
        proto.operand_widths = {width};
        proto.model = characterizer.characterize(
            dp::make_module(ModuleType::RippleAdder, width), plan);
        prototypes.push_back(std::move(proto));
    }

    // Without injection the prototype set is well-posed: no fallback.
    const ParameterizableModel clean =
        ParameterizableModel::fit(ModuleType::RippleAdder, prototypes, 1);
    EXPECT_EQ(clean.ridge_fallback_count(), 0U);

    FaultInjector injector{31};
    ScopedFaultInjector scope{injector};
    injector.arm(FaultPoint::RegressionRank);
    const ParameterizableModel degraded =
        ParameterizableModel::fit(ModuleType::RippleAdder, prototypes, 1);
    EXPECT_EQ(injector.fired_count(FaultPoint::RegressionRank), 1U);
    EXPECT_EQ(degraded.ridge_fallback_count(), 1U);

    // The ridge solve still yields finite, usable coefficients.
    for (int hd = 1; hd <= degraded.max_fitted_hd(); ++hd) {
        const std::array<int, 1> w = {3};
        EXPECT_GE(degraded.coefficient(hd, w), 0.0) << "hd " << hd;
    }
}

// -------------------------------------------------- checkpoint corruption

TEST(FaultInjection, CorruptedCheckpointPublishIsQuarantinedOnResume)
{
    SKIP_WITHOUT_HOOKS();
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "injected_short.journal";
    std::filesystem::remove(journal);

    const auto baseline = characterizer.collect_records(module, small_plan());

    struct AbortRun {};
    {
        FaultInjector injector{37};
        ScopedFaultInjector scope{injector};
        // The second journal publish is truncated; the "kill" lands right
        // after it, so the on-disk journal is the corrupted version.
        injector.arm(FaultPoint::CheckpointShortWrite, 2);
        CharacterizationOptions options = small_plan();
        options.checkpoint = journal;
        options.progress = [](const CharProgress& p) {
            if (p.shards_merged >= 3) {
                throw AbortRun{};
            }
        };
        EXPECT_THROW((void)characterizer.collect_records(module, options), AbortRun);
        EXPECT_EQ(injector.fired_count(FaultPoint::CheckpointShortWrite), 1U);
    }
    ASSERT_TRUE(std::filesystem::exists(journal));

    // Resume: the damaged journal must be set aside as evidence, its
    // surviving whole-shard prefix (if any) salvaged rather than discarded
    // wholesale, and the run must still match the uninterrupted baseline
    // exactly. The journal held 2 shards when the truncation hit, so at
    // most 1 whole shard can have survived the damage.
    CharacterizationOptions options = small_plan();
    options.checkpoint = journal;
    CharRunStats stats;
    options.stats = &stats;
    const auto records = characterizer.collect_records(module, options);
    EXPECT_TRUE(stats.checkpoint_discarded);
    EXPECT_LT(stats.shards_resumed, 2U);
    EXPECT_EQ(stats.checkpoint_salvaged, stats.shards_resumed > 0);
    ASSERT_EQ(records.size(), baseline.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(records[i].charge_fc, baseline[i].charge_fc) << "record " << i;
        ASSERT_EQ(records[i].toggle_mask, baseline[i].toggle_mask) << "record " << i;
    }
    EXPECT_TRUE(std::filesystem::exists(journal.string() + ".corrupt"));
    std::filesystem::remove(journal.string() + ".corrupt");
}

TEST(FaultInjection, ShortWriteOfAnyJournalPublishResumesItsWholePrefix)
{
    SKIP_WITHOUT_HOOKS();
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "injected_any_publish.journal";
    const auto baseline = characterizer.collect_records(module, small_plan());

    // The run publishes three times before the "kill": the create write,
    // then two appends. Whichever one is torn, the blocks published before
    // it survive the resume and everything from it on is re-simulated.
    struct AbortRun {};
    for (std::uint64_t publish = 1; publish <= 3; ++publish) {
        std::filesystem::remove(journal);
        {
            FaultInjector injector{41};
            ScopedFaultInjector scope{injector};
            injector.arm(FaultPoint::CheckpointShortWrite, publish);
            CharacterizationOptions options = small_plan();
            options.checkpoint = journal;
            options.progress = [](const CharProgress& p) {
                if (p.shards_merged >= 4) {
                    throw AbortRun{};
                }
            };
            EXPECT_THROW((void)characterizer.collect_records(module, options), AbortRun);
            EXPECT_EQ(injector.fired_count(FaultPoint::CheckpointShortWrite), 1U);
        }
        CharacterizationOptions options = small_plan();
        options.checkpoint = journal;
        CharRunStats stats;
        options.stats = &stats;
        const auto records = characterizer.collect_records(module, options);
        EXPECT_TRUE(stats.checkpoint_discarded) << "publish " << publish;
        EXPECT_EQ(stats.shards_resumed, publish - 1) << "publish " << publish;
        ASSERT_EQ(records.size(), baseline.size());
        for (std::size_t i = 0; i < records.size(); ++i) {
            ASSERT_EQ(records[i].charge_fc, baseline[i].charge_fc) << "record " << i;
        }
        EXPECT_TRUE(std::filesystem::exists(journal.string() + ".corrupt"));
        std::filesystem::remove(journal.string() + ".corrupt");
    }
}

// No injection hooks needed: the torn tail is made by hand, so this runs
// (and stays deterministic) in every build type.
TEST(FaultInjection, TornCheckpointTailIsSalvagedToWholeShardPrefix)
{
    const DatapathModule module = dp::make_module(ModuleType::RippleAdder, 2);
    const Characterizer characterizer;
    const std::filesystem::path journal =
        std::filesystem::path{::testing::TempDir()} / "torn_tail.journal";
    std::filesystem::remove(journal);

    const auto baseline = characterizer.collect_records(module, small_plan());

    // Leave a healthy multi-shard journal behind by aborting mid-run.
    struct AbortRun {};
    {
        CharacterizationOptions options = small_plan();
        options.checkpoint = journal;
        options.progress = [](const CharProgress& p) {
            if (p.shards_merged >= 3) {
                throw AbortRun{};
            }
        };
        EXPECT_THROW((void)characterizer.collect_records(module, options), AbortRun);
    }
    ASSERT_TRUE(std::filesystem::exists(journal));
    const auto whole = load_checkpoint(journal);
    ASSERT_TRUE(whole.has_value());
    const std::size_t published = whole->shards.size();
    ASSERT_GE(published, 2U);

    // Tear the tail the way a kill mid-write on a non-atomic filesystem
    // would: the last few bytes vanish, damaging the final shard block.
    const std::uintmax_t size = std::filesystem::file_size(journal);
    ASSERT_GT(size, 10U);
    std::filesystem::resize_file(journal, size - 10);

    // The tolerant reader keeps exactly the whole-shard prefix.
    const CheckpointSalvage salvage = salvage_checkpoint(journal);
    EXPECT_FALSE(salvage.clean);
    ASSERT_TRUE(salvage.checkpoint.has_value());
    EXPECT_EQ(salvage.checkpoint->shards.size(), published - 1);

    // Resume: the surviving shards are replayed, only the torn tail is
    // re-simulated, the damaged file is quarantined, and the records are
    // bit-identical to the uninterrupted baseline.
    CharacterizationOptions options = small_plan();
    options.checkpoint = journal;
    CharRunStats stats;
    options.stats = &stats;
    const auto records = characterizer.collect_records(module, options);
    EXPECT_TRUE(stats.checkpoint_discarded);
    EXPECT_TRUE(stats.checkpoint_salvaged);
    EXPECT_EQ(stats.shards_resumed, published - 1);
    ASSERT_EQ(records.size(), baseline.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(records[i].charge_fc, baseline[i].charge_fc) << "record " << i;
        ASSERT_EQ(records[i].toggle_mask, baseline[i].toggle_mask) << "record " << i;
    }
    EXPECT_TRUE(std::filesystem::exists(journal.string() + ".corrupt"));
    std::filesystem::remove(journal.string() + ".corrupt");
}

} // namespace
} // namespace hdpm::core

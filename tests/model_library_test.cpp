#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model_library.hpp"
#include "util/error.hpp"
#include "util/file_io.hpp"

namespace hdpm::core {
namespace {

namespace fs = std::filesystem;

class ModelLibraryTest : public ::testing::Test {
protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("hdpm_modellib_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    CharacterizationOptions quick() const
    {
        CharacterizationOptions options;
        options.max_transitions = 1500;
        options.min_transitions = 1500;
        options.seed = 7;
        return options;
    }

    fs::path dir_;
};

TEST_F(ModelLibraryTest, CreatesDirectory)
{
    const ModelLibrary library{dir_};
    EXPECT_TRUE(fs::exists(dir_));
}

TEST_F(ModelLibraryTest, ModelKeyIsDeterministic)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {6};
    EXPECT_EQ(library.model_key(dp::ModuleType::RippleAdder, w),
              "generic350_ripple_adder_6x6");
    const std::array<int, 2> w2 = {6, 4};
    EXPECT_EQ(library.model_key(dp::ModuleType::CsaMultiplier, w2),
              "generic350_csa_multiplier_6x4");
}

TEST_F(ModelLibraryTest, CharacterizesOnMissThenLoads)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};
    EXPECT_FALSE(library.find_basic(dp::ModuleType::RippleAdder, w, quick()));

    const HdModel first = library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());
    const std::optional<HdModel> found =
        library.find_basic(dp::ModuleType::RippleAdder, w, quick());
    ASSERT_TRUE(found.has_value());
    EXPECT_TRUE(std::ranges::equal(found->coefficients(), first.coefficients()));
    // The probe is fingerprinted: other options, another corner or the
    // enhanced kind is a different artifact.
    CharacterizationOptions other = quick();
    other.seed = 8;
    EXPECT_FALSE(library.find_basic(dp::ModuleType::RippleAdder, w, other));
    other = quick();
    other.corner = gate::Corner{2.5, 85.0};
    EXPECT_FALSE(library.find_basic(dp::ModuleType::RippleAdder, w, other));
    EXPECT_FALSE(library.find_enhanced(dp::ModuleType::RippleAdder, w, 0, quick()));

    // Second call with the same options must load the stored file.
    const HdModel second =
        library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());
    ASSERT_EQ(second.input_bits(), first.input_bits());
    for (int i = 1; i <= first.input_bits(); ++i) {
        EXPECT_DOUBLE_EQ(second.coefficient(i), first.coefficient(i));
        EXPECT_EQ(second.sample_count(i), first.sample_count(i));
    }
}

TEST_F(ModelLibraryTest, ExecutionOnlyKnobsDoNotInvalidateStoredModels)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};

    std::atomic<int> runs{0};
    CharacterizationOptions options = quick();
    options.threads = 1;
    options.progress = [&](const CharProgress& p) {
        if (p.shards_merged == 1) {
            runs.fetch_add(1);
        }
    };
    const HdModel first =
        library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 1);

    // Threads and checkpointing are execution knobs with bit-identical
    // results, so they are excluded from the fingerprint: the stored model
    // is reused.
    options.threads = 4;
    options.checkpoint = dir_ / "unused.journal";
    const HdModel second =
        library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 1) << "execution-only knobs must not recharacterize";
    for (int i = 1; i <= first.input_bits(); ++i) {
        EXPECT_DOUBLE_EQ(second.coefficient(i), first.coefficient(i));
    }
}

TEST_F(ModelLibraryTest, StaleOptionsRecharacterize)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};

    std::atomic<int> runs{0};
    CharacterizationOptions options = quick();
    options.progress = [&](const CharProgress& p) {
        if (p.shards_merged == 1) {
            runs.fetch_add(1);
        }
    };
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 1);

    // A different seed shapes different coefficients — the stored model is
    // stale and must be rebuilt, not silently reused.
    options.seed = 12345;
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 2) << "changed stimulus options must recharacterize";

    // And the rebuilt file now satisfies the new options without a rerun.
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 2);
}

TEST_F(ModelLibraryTest, LegacyFileWithoutFingerprintRecharacterizes)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());

    const fs::path path = dir_ / (library.model_key(dp::ModuleType::RippleAdder, w) +
                                  ".hdm");
    ASSERT_TRUE(fs::exists(path));

    // Strip the `options <hex>` header, leaving the bare payload a pre-
    // fingerprint build would have stored.
    std::string payload;
    {
        std::ifstream in{path};
        std::string header;
        ASSERT_TRUE(std::getline(in, header));
        ASSERT_EQ(header.rfind("options ", 0), 0U) << "stored file must carry a header";
        payload.assign(std::istreambuf_iterator<char>{in},
                       std::istreambuf_iterator<char>{});
    }
    {
        std::ofstream out{path, std::ios::trunc};
        out << payload;
    }

    std::atomic<int> runs{0};
    CharacterizationOptions options = quick();
    options.progress = [&](const CharProgress& p) {
        if (p.shards_merged == 1) {
            runs.fetch_add(1);
        }
    };
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 1) << "a header-less legacy file must recharacterize";

    std::ifstream in{path};
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header.rfind("options ", 0), 0U) << "rebuild must restore the header";
}

TEST_F(ModelLibraryTest, CornerTimingStampRetiresOnlyCornerQualifiedModels)
{
    // Timing became a dilation of the load class's nominal delays (stamp 1),
    // then every (Vdd, T) corner became its load class's nominal charges
    // under the exact charge law (stamp 2), and then both backends applied
    // that law to each class's summed charges instead of to per-net
    // weights (stamp 3); each changed every model characterized away from
    // the native corner. The pinned values are
    // quick()'s fingerprints and native model file from before those
    // changes: native-corner files keep their fingerprint and bytes and are
    // reused; a corner-qualified file under an old fingerprint is
    // recharacterized.
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};
    std::atomic<int> runs{0};
    CharacterizationOptions options = quick();
    options.progress = [&](const CharProgress& p) {
        if (p.shards_merged == 1) {
            runs.fetch_add(1);
        }
    };
    const auto read = [](const fs::path& path) {
        std::ifstream in{path, std::ios::binary};
        return std::string{std::istreambuf_iterator<char>{in}, {}};
    };

    EXPECT_EQ(characterization_fingerprint(options, {}), 0x5380a983a635510dULL);
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    const fs::path native = dir_ / (library.model_key(dp::ModuleType::RippleAdder, w) + ".hdm");
    const std::string native_bytes = read(native);
    EXPECT_EQ(util::fnv1a64(native_bytes), 0xdd1a7dc56b9a44f3ULL);
    EXPECT_EQ(native_bytes.size(), 399U);
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 1) << "a native-corner model must not recharacterize";
    EXPECT_EQ(read(native), native_bytes);

    const gate::Corner corner{2.5, 85.0, gate::LoadClass::Nominal};
    options.corner = corner;
    // The corner fingerprints before the dilation, and under stamps 1 and 2.
    const std::array<std::string, 3> stale = {"cef0e3c2531dfe24", "4b4cff4e18df74c5",
                                              "6a47c65723cebee6"};
    const std::uint64_t current = characterization_fingerprint(options, {});
    for (const std::string& old : stale) {
        EXPECT_NE(current, std::stoull(old, nullptr, 16));
    }
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), 2);
    const fs::path at_corner =
        dir_ / (library.model_key(dp::ModuleType::RippleAdder, w, corner) + ".hdm");
    const std::string bytes = read(at_corner);
    const std::size_t header_end = bytes.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    int expected_runs = 2;
    for (const std::string& old : stale) {
        {
            std::ofstream out{at_corner, std::ios::binary | std::ios::trunc};
            out << "options " << old << bytes.substr(header_end);
        }
        (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
        EXPECT_EQ(runs.load(), ++expected_runs)
            << "a corner model under the old fingerprint " << old << " must recharacterize";
        EXPECT_EQ(read(at_corner), bytes);
    }
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
    EXPECT_EQ(runs.load(), expected_runs);
    EXPECT_EQ(read(native), native_bytes) << "the native file must stay byte-identical";
}

TEST_F(ModelLibraryTest, EnhancedModelsStoredSeparately)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {3};
    const EnhancedHdModel enhanced =
        library.get_or_characterize_enhanced(dp::ModuleType::AbsVal, w, 0, quick());
    EXPECT_EQ(enhanced.input_bits(), 3);

    const EnhancedHdModel reloaded =
        library.get_or_characterize_enhanced(dp::ModuleType::AbsVal, w, 0, quick());
    EXPECT_DOUBLE_EQ(reloaded.coefficient(1, 0), enhanced.coefficient(1, 0));

    // Different clustering is a different artifact.
    const EnhancedHdModel clustered =
        library.get_or_characterize_enhanced(dp::ModuleType::AbsVal, w, 2, quick());
    EXPECT_LE(clustered.num_coefficients(), enhanced.num_coefficients());
}

TEST_F(ModelLibraryTest, TechnologyNamespacesModels)
{
    const ModelLibrary lib350{dir_, gate::TechLibrary::generic350()};
    const ModelLibrary lib180{dir_, gate::TechLibrary::generic180()};
    const std::array<int, 1> w = {4};
    const HdModel m350 = lib350.get_or_characterize(dp::ModuleType::Incrementer, w, quick());
    EXPECT_FALSE(lib180.find_basic(dp::ModuleType::Incrementer, w, quick()))
        << "a 350nm model must not satisfy a 180nm lookup";
    const HdModel m180 = lib180.get_or_characterize(dp::ModuleType::Incrementer, w, quick());
    EXPECT_LT(m180.coefficient(4), m350.coefficient(4));
}

TEST_F(ModelLibraryTest, CorruptModelFileIsQuarantinedAndRebuilt)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};
    const HdModel original =
        library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());

    // Truncate the payload behind a valid fingerprint header. (Keeping the
    // real header matters: a header-less or mismatched file would simply be
    // recharacterized without touching the quarantine path.)
    const fs::path path = dir_ / (library.model_key(dp::ModuleType::RippleAdder, w) +
                                  ".hdm");
    ASSERT_TRUE(fs::exists(path));
    std::string header;
    {
        std::ifstream in{path};
        ASSERT_TRUE(std::getline(in, header));
        ASSERT_EQ(header.rfind("options ", 0), 0U);
    }
    {
        std::ofstream out{path, std::ios::trunc};
        out << header << "\nhdmodel 1\nm 8\n1 123.0"; // cut mid-row
    }

    // The corrupt file must be set aside (not reused, not destroyed) and
    // the model recharacterized — same coefficients, deterministic seed.
    const HdModel rebuilt =
        library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());
    EXPECT_EQ(library.models_quarantined(), 1U);
    EXPECT_TRUE(fs::exists(path.string() + ".corrupt"))
        << "the corrupt payload must be preserved for inspection";
    ASSERT_TRUE(fs::exists(path)) << "a fresh model must be published";
    for (int i = 1; i <= original.input_bits(); ++i) {
        EXPECT_EQ(rebuilt.coefficient(i), original.coefficient(i));
    }

    // A NaN coefficient behind a valid header is rot too — same quarantine.
    {
        std::ofstream out{path, std::ios::trunc};
        out << header << "\nhdmodel 1\nm 1\n1 nan 0.0 10\nend\n";
    }
    const HdModel renormalized =
        library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());
    EXPECT_EQ(library.models_quarantined(), 2U);
    for (int i = 1; i <= original.input_bits(); ++i) {
        EXPECT_EQ(renormalized.coefficient(i), original.coefficient(i));
    }

    // So is a width the bytes do not hold: a structured failure, not
    // bad_alloc escaping the quarantine.
    {
        std::ofstream out{path, std::ios::trunc};
        out << header << "\nhdmodel 1\nm 2000000000\n";
    }
    const HdModel rewidened =
        library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());
    EXPECT_EQ(library.models_quarantined(), 3U);
    for (int i = 1; i <= original.input_bits(); ++i) {
        EXPECT_EQ(rewidened.coefficient(i), original.coefficient(i));
    }

    // find_basic is the same probe: it sets rot aside and reports a miss.
    {
        std::ofstream out{path, std::ios::trunc};
        out << header << "\nhdmodel 1\nm 8\n1 123.0";
    }
    EXPECT_FALSE(library.find_basic(dp::ModuleType::RippleAdder, w, quick()));
    EXPECT_EQ(library.models_quarantined(), 4U);
    EXPECT_FALSE(fs::exists(path));
}

std::string read_bytes(const fs::path& path)
{
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

TEST_F(ModelLibraryTest, StoredFitIsByteIdenticalToGetOrCharacterize)
{
    // A caller that collects records itself (e.g. to report on them), fits
    // and stores must publish exactly the file get_or_characterize writes,
    // so either path hits the other's model later. The enhanced kind pins
    // StratifiedPairs for the collection only when the mode is unset, and
    // fingerprints the caller's options, as characterize_enhanced does.
    const ModelLibrary built{dir_ / "built"};
    const ModelLibrary stored{dir_ / "stored"};
    const std::array<int, 1> w = {4};
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, w);
    const Characterizer characterizer;
    for (const std::optional<gate::Corner>& corner :
         {std::optional<gate::Corner>{}, std::optional{gate::Corner{2.5, 85.0}}}) {
        CharacterizationOptions options = quick();
        options.corner = corner;
        (void)built.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
        stored.store_basic(dp::ModuleType::RippleAdder, w, options,
                           fit_basic_model(module.total_input_bits(),
                                           characterizer.collect_records(module, options)));

        (void)built.get_or_characterize_enhanced(dp::ModuleType::RippleAdder, w, 2,
                                                 options);
        CharacterizationOptions pairs = options;
        pairs.mode = StimulusMode::StratifiedPairs;
        stored.store_enhanced(
            dp::ModuleType::RippleAdder, w, 2, options,
            fit_enhanced_model(module.total_input_bits(), 2,
                               characterizer.collect_records(module, pairs)));
    }
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator{dir_ / "built"}) {
        const fs::path twin = dir_ / "stored" / entry.path().filename();
        ASSERT_TRUE(fs::exists(twin)) << entry.path().filename();
        EXPECT_EQ(read_bytes(entry.path()), read_bytes(twin)) << entry.path().filename();
        ++files;
    }
    EXPECT_EQ(files, 4U);
}

TEST_F(ModelLibraryTest, ConcurrentMissesCharacterizeExactlyOnce)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};

    // The progress callback fires on the thread that characterizes, so the
    // number of shards_merged == 1 events equals the number of
    // characterization runs started.
    std::atomic<int> runs{0};
    CharacterizationOptions options = quick();
    options.progress = [&](const CharProgress& p) {
        if (p.shards_merged == 1) {
            runs.fetch_add(1);
        }
    };

    constexpr int kThreads = 8;
    std::vector<HdModel> models(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            models[static_cast<std::size_t>(t)] =
                library.get_or_characterize(dp::ModuleType::RippleAdder, w, options);
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    EXPECT_EQ(runs.load(), 1)
        << "single-flight must collapse concurrent misses into one run";
    for (int t = 1; t < kThreads; ++t) {
        const HdModel& model = models[static_cast<std::size_t>(t)];
        ASSERT_EQ(model.input_bits(), models[0].input_bits());
        for (int i = 1; i <= model.input_bits(); ++i) {
            EXPECT_DOUBLE_EQ(model.coefficient(i), models[0].coefficient(i));
        }
    }
}

TEST_F(ModelLibraryTest, ConcurrentDistinctKeysDoNotSerializeIncorrectly)
{
    const ModelLibrary library{dir_};
    constexpr int kWidths[] = {3, 4, 5, 6};
    std::vector<std::thread> threads;
    for (const int width : kWidths) {
        threads.emplace_back([&, width] {
            const std::array<int, 1> w = {width};
            (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (const int width : kWidths) {
        const std::array<int, 1> w = {width};
        EXPECT_TRUE(library.find_basic(dp::ModuleType::RippleAdder, w, quick())) << width;
    }
}

TEST_F(ModelLibraryTest, ClearRemovesModels)
{
    const ModelLibrary library{dir_};
    const std::array<int, 1> w = {4};
    (void)library.get_or_characterize(dp::ModuleType::RippleAdder, w, quick());
    EXPECT_TRUE(library.find_basic(dp::ModuleType::RippleAdder, w, quick()));
    library.clear();
    EXPECT_FALSE(library.find_basic(dp::ModuleType::RippleAdder, w, quick()));
}

} // namespace
} // namespace hdpm::core

/// Tests of the word-parallel estimation serving path: PackedTrace packing,
/// the kernels against the per-bit reference classifiers in tests/oracles
/// (property-swept over widths, operand splits, stream shapes, thread
/// counts and chunk sizes — they must agree bit-for-bit), histogram-based
/// model evaluation
/// against the per-cycle reference, the batched EstimationEngine's
/// histogram cache, and the hardened stream I/O.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bitwise_model.hpp"
#include "core/enhanced_model.hpp"
#include "core/estimation_engine.hpp"
#include "core/hd_model.hpp"
#include "oracles/scalar_kernels.hpp"
#include "streams/bitstats.hpp"
#include "streams/io.hpp"
#include "streams/kernels.hpp"
#include "streams/packed_trace.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace hdpm;
using streams::KernelOptions;
using streams::PackedTrace;

namespace {

std::int64_t sign_extend(std::uint64_t bits, int width)
{
    if (width >= 64) {
        return static_cast<std::int64_t>(bits);
    }
    return static_cast<std::int64_t>(bits << (64 - width)) >> (64 - width);
}

/// Random masked words; generate_stream() caps at width 32, so wide
/// property sweeps draw raw Rng words instead.
std::vector<std::uint64_t> random_words(int width, std::size_t n, std::uint64_t seed)
{
    util::Rng rng{seed};
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) {
        w = rng.next_u64() & mask;
    }
    return words;
}

/// Correlated words: a masked random walk with small steps, giving low
/// Hamming distances and many stable zeros (the regime the enhanced
/// model's class table actually exercises).
std::vector<std::uint64_t> correlated_words(int width, std::size_t n,
                                            std::uint64_t seed)
{
    util::Rng rng{seed};
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    std::vector<std::uint64_t> words(n);
    std::uint64_t state = 0;
    for (auto& w : words) {
        state = (state + rng.uniform_int(std::uint64_t{7})) & mask;
        w = state;
    }
    return words;
}

PackedTrace trace_from_words(const std::vector<std::uint64_t>& words, int width)
{
    std::vector<std::int64_t> values;
    values.reserve(words.size());
    for (const std::uint64_t w : words) {
        values.push_back(sign_extend(w, width));
    }
    return PackedTrace::from_values(values, width);
}

core::HdModel make_hd_model(int m, std::uint64_t seed)
{
    util::Rng rng{seed};
    std::vector<double> coefficients(static_cast<std::size_t>(m));
    for (auto& p : coefficients) {
        p = rng.uniform(1.0, 100.0);
    }
    return core::HdModel{m, std::move(coefficients)};
}

core::EnhancedHdModel make_enhanced_model(int m, std::uint64_t seed)
{
    util::Rng rng{seed};
    std::vector<std::vector<double>> coefficients;
    std::vector<std::vector<double>> deviations;
    std::vector<std::vector<std::size_t>> samples;
    for (int hd = 1; hd <= m; ++hd) {
        const auto levels = static_cast<std::size_t>(m - hd + 1);
        std::vector<double> row(levels);
        for (auto& p : row) {
            p = rng.uniform(1.0, 100.0);
        }
        coefficients.push_back(std::move(row));
        deviations.emplace_back(levels, 0.0);
        samples.emplace_back(levels, 1); // all classes populated
    }
    return core::EnhancedHdModel{m, 0, std::move(coefficients), std::move(deviations),
                                 std::move(samples), make_hd_model(m, seed ^ 0xabcd)};
}

} // namespace

// --- PackedTrace construction ------------------------------------------

TEST(PackedTrace, FromValuesMatchesToPatterns)
{
    util::Rng rng{11};
    std::vector<std::int64_t> values;
    for (int i = 0; i < 500; ++i) {
        values.push_back(rng.uniform_int(std::int64_t{-40000}, std::int64_t{40000}));
    }
    const PackedTrace trace = PackedTrace::from_values(values, 16);
    const auto patterns = streams::to_patterns(values, 16);
    ASSERT_EQ(trace.size(), patterns.size());
    for (std::size_t j = 0; j < patterns.size(); ++j) {
        EXPECT_EQ(trace.words()[j], patterns[j].raw()) << j;
    }
}

TEST(PackedTrace, FromOperandsConcatenatesLikeBitVec)
{
    const std::vector<std::vector<std::int64_t>> operands{{3, -1, 7}, {-4, 2, 0}};
    const std::vector<int> widths{5, 7};
    const PackedTrace trace = PackedTrace::from_operands(operands, widths);
    EXPECT_EQ(trace.width(), 12);
    ASSERT_EQ(trace.size(), 3U);
    for (std::size_t j = 0; j < 3; ++j) {
        const std::uint64_t lo = static_cast<std::uint64_t>(operands[0][j]) & 0x1FU;
        const std::uint64_t hi = static_cast<std::uint64_t>(operands[1][j]) & 0x7FU;
        EXPECT_EQ(trace.words()[j], lo | (hi << 5)) << j;
    }
    EXPECT_EQ(trace.out_of_range(), 0U);
}

TEST(PackedTrace, CountsOutOfRangeSamples)
{
    // Width 4 two's complement holds [-8, 7]: 8 and -9 truncate.
    const std::vector<std::int64_t> values{7, -8, 8, -9, 0};
    const PackedTrace trace = PackedTrace::from_values(values, 4);
    EXPECT_EQ(trace.out_of_range(), 2U);
    // INT64_MIN must pack without overflow.
    const std::vector<std::int64_t> extreme{std::numeric_limits<std::int64_t>::min(),
                                            std::numeric_limits<std::int64_t>::max()};
    const PackedTrace wide = PackedTrace::from_values(extreme, 64);
    EXPECT_EQ(wide.out_of_range(), 0U);
    const PackedTrace narrow = PackedTrace::from_values(extreme, 8);
    EXPECT_EQ(narrow.out_of_range(), 2U);
}

TEST(PackedTrace, RoundTripsThroughPatterns)
{
    const auto words = random_words(13, 64, 21);
    const PackedTrace trace = trace_from_words(words, 13);
    const auto patterns = trace.to_patterns();
    const PackedTrace back = PackedTrace::from_patterns(patterns);
    EXPECT_EQ(back.width(), trace.width());
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t j = 0; j < words.size(); ++j) {
        EXPECT_EQ(back.words()[j], words[j]) << j;
    }
}

TEST(PackedTrace, RejectsMixedWidthsAndBadOperands)
{
    const std::vector<util::BitVec> mixed{util::BitVec{4, 1}, util::BitVec{5, 1}};
    EXPECT_THROW((void)PackedTrace::from_patterns(mixed), util::PreconditionError);
    const std::vector<std::vector<std::int64_t>> ragged{{1, 2}, {3}};
    const std::vector<int> widths{4, 4};
    EXPECT_THROW((void)PackedTrace::from_operands(ragged, widths),
                 util::PreconditionError);
    // Widths summing past 64 are legal now (multi-word samples); what is
    // still rejected is a single operand wider than an int64 value.
    const std::vector<std::vector<std::int64_t>> wide{{1}, {2}};
    const std::vector<int> two_words{40, 40};
    const PackedTrace packed = PackedTrace::from_operands(wide, two_words);
    EXPECT_EQ(packed.width(), 80);
    EXPECT_EQ(packed.words_per_sample(), 2U);
    const std::vector<int> operand_too_wide{65, 4};
    EXPECT_THROW((void)PackedTrace::from_operands(wide, operand_too_wide),
                 util::PreconditionError);
}

TEST(PackedTrace, RejectsOverflowingSampleCounts)
{
    // `samples` can come straight off the wire or a file header; a count
    // chosen so samples * stride wraps around SIZE_MAX to the real word
    // count must be rejected, not accepted as matching geometry (the
    // masking loop would then write far past the buffer).
    const std::vector<int> widths{64, 64}; // stride 2
    const std::vector<std::uint64_t> words(4, 0); // genuinely 2 samples
    const std::size_t wrapping =
        std::numeric_limits<std::size_t>::max() / 2 + 3; // * 2 wraps to 4
    EXPECT_THROW((void)PackedTrace::from_packed_words(words, widths, wrapping),
                 util::PreconditionError);
    EXPECT_THROW((void)PackedTrace::view_over(words, widths, wrapping),
                 util::PreconditionError);
    // A word count that is not a whole number of samples never matches.
    const std::vector<std::uint64_t> odd(3, 0);
    EXPECT_THROW((void)PackedTrace::from_packed_words(odd, widths, 1),
                 util::PreconditionError);
    // The exact geometry still passes.
    const PackedTrace ok = PackedTrace::from_packed_words(words, widths, 2);
    EXPECT_EQ(ok.size(), 2U);
}

// --- Kernels vs the per-bit reference -----------------------------------

TEST(Kernels, PackedMatchesScalarAcrossWidths)
{
    // Full width sweep 1..64 with two stream shapes, on every SIMD tier
    // (clamped to the host's capability). 257 samples are 256
    // transitions, a whole number of the unrolled loops' 8-wide blocks;
    // 262 samples leave a ragged 5-transition tail.
    using util::cpu::SimdLevel;
    for (int width = 1; width <= 64; ++width) {
        for (const std::size_t samples : {std::size_t{257}, std::size_t{262}}) {
            for (const bool correlated : {false, true}) {
                const auto seed = static_cast<unsigned>(width);
                const auto words = correlated
                                       ? correlated_words(width, samples, 1000 + seed)
                                       : random_words(width, samples, 2000 + seed);
                const auto hd_s = oracle::scalar_hd_histogram(words, width);
                const auto cls_s = oracle::scalar_hd_class_histogram(words, width);
                const auto bits_s = oracle::scalar_count_bits(words, width);
                for (const SimdLevel simd :
                     {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
                    const std::string label = "width " + std::to_string(width) + ", " +
                                              std::to_string(samples) + " samples, simd " +
                                              util::cpu::level_name(simd);
                    const auto hd_p = streams::hd_histogram_words(words, width, simd);
                    EXPECT_EQ(hd_s.counts, hd_p.counts) << label;
                    EXPECT_EQ(hd_s.pairs, hd_p.pairs) << label;

                    const auto cls_p =
                        streams::hd_class_histogram_words(words, width, simd);
                    EXPECT_EQ(cls_s.counts, cls_p.counts) << label;
                    EXPECT_EQ(cls_s.pairs, cls_p.pairs) << label;

                    const auto bits_p = streams::count_bits_words(words, width, simd);
                    EXPECT_EQ(bits_s.ones, bits_p.ones) << label;
                    EXPECT_EQ(bits_s.toggles, bits_p.toggles) << label;
                    EXPECT_EQ(bits_s.samples, bits_p.samples) << label;
                }
            }
        }
    }
}

TEST(Kernels, MultiOperandSplitMatchesScalar)
{
    // Multi-operand traces classify over the concatenated width; the
    // kernels must agree with the per-bit reference on the whole word.
    util::Rng rng{77};
    const std::vector<std::vector<int>> splits{{8, 8}, {3, 5, 7}, {1, 1, 1, 1},
                                               {32, 31}};
    for (const auto& widths : splits) {
        std::vector<std::vector<std::int64_t>> operands;
        for (const int w : widths) {
            std::vector<std::int64_t> values(301);
            for (auto& v : values) {
                v = sign_extend(rng.next_u64(), w);
            }
            operands.push_back(std::move(values));
        }
        const PackedTrace trace = PackedTrace::from_operands(operands, widths);
        EXPECT_EQ(oracle::scalar_hd_class_histogram(trace).counts,
                  streams::hd_class_histogram(trace).counts);
    }
}

TEST(Kernels, ThreadAndChunkInvariance)
{
    // The per-bit reference's integer histogram for every (threads,
    // chunk) combination — chunk boundaries overlap one sample and merge in
    // chunk order.
    const int width = 16;
    const auto words = correlated_words(width, 50000, 99);
    const PackedTrace trace = trace_from_words(words, width);
    const auto reference = oracle::scalar_hd_class_histogram(trace);
    const auto hd_reference = oracle::scalar_hd_histogram(trace);
    const auto bit_reference = oracle::scalar_count_bits(trace);

    for (const unsigned threads : {0U, 1U, 2U, 3U, 8U}) {
        for (const std::size_t chunk : {std::size_t{64}, std::size_t{997},
                                        std::size_t{1} << 16}) {
            const KernelOptions options{.threads = threads, .chunk = chunk};
            EXPECT_EQ(streams::hd_class_histogram(trace, options).counts,
                      reference.counts)
                << threads << " threads, chunk " << chunk;
            EXPECT_EQ(streams::hd_histogram(trace, options).counts, hd_reference.counts)
                << threads << " threads, chunk " << chunk;
            const auto bits = streams::count_bits(trace, options);
            EXPECT_EQ(bits.ones, bit_reference.ones);
            EXPECT_EQ(bits.toggles, bit_reference.toggles);
        }
    }
}

TEST(Kernels, HistogramMatchesBitstatsHelpers)
{
    // The packed histogram agrees with the pre-existing scalar helpers on
    // the expanded pattern stream.
    const auto words = random_words(12, 400, 5);
    const PackedTrace trace = trace_from_words(words, 12);
    const auto patterns = trace.to_patterns();

    const auto histogram = streams::hd_histogram(trace);
    const auto dist = streams::extract_hd_distribution(patterns);
    const auto packed_dist = histogram.to_distribution();
    ASSERT_EQ(packed_dist.size(), dist.size());
    for (std::size_t i = 0; i < dist.size(); ++i) {
        EXPECT_DOUBLE_EQ(packed_dist[i], dist[i]) << i;
    }
    EXPECT_DOUBLE_EQ(histogram.average_hd(), streams::extract_average_hd(patterns));

    const streams::BitStats stats = streams::measure_bit_stats(patterns);
    const auto counts = streams::count_bits(trace);
    for (int i = 0; i < 12; ++i) {
        EXPECT_DOUBLE_EQ(stats.signal_prob[static_cast<std::size_t>(i)],
                         static_cast<double>(counts.ones[static_cast<std::size_t>(i)]) /
                             static_cast<double>(trace.size()));
        EXPECT_DOUBLE_EQ(
            stats.transition_prob[static_cast<std::size_t>(i)],
            static_cast<double>(counts.toggles[static_cast<std::size_t>(i)]) /
                static_cast<double>(trace.cycles()));
    }
}

// --- Histogram-based model evaluation ----------------------------------

TEST(EstimateTrace, HdModelMatchesEstimateAverage)
{
    // Histogram evaluation reassociates the FP sum; allow a relative
    // tolerance (documented in docs/estimation.md) instead of exact equality.
    for (const int m : {4, 16, 33}) {
        const core::HdModel model = make_hd_model(m, 42);
        const auto words = random_words(m, 3000, 7 + static_cast<unsigned>(m));
        const PackedTrace trace = trace_from_words(words, m);
        const double packed = model.estimate_trace(trace);
        const double reference = model.estimate_average(trace.to_patterns());
        EXPECT_NEAR(packed, reference, 1e-9 * std::abs(reference)) << "m=" << m;
    }
}

TEST(EstimateTrace, EnhancedModelMatchesEstimateAverage)
{
    for (const int m : {4, 12}) {
        const core::EnhancedHdModel model = make_enhanced_model(m, 3);
        for (const bool correlated : {false, true}) {
            const auto words = correlated
                                   ? correlated_words(m, 2000, 31)
                                   : random_words(m, 2000, 17);
            const PackedTrace trace = trace_from_words(words, m);
            const double packed = model.estimate_trace(trace);
            const double reference = model.estimate_average(trace.to_patterns());
            EXPECT_NEAR(packed, reference, 1e-9 * std::abs(reference)) << "m=" << m;
        }
    }
}

TEST(EstimateTrace, BitwiseModelMatchesEstimateAverage)
{
    // Same evaluation order as the scalar path — exactly equal, including
    // the max(0, ·) clamp and the zero-mask special case.
    util::Rng rng{8};
    std::vector<double> weights(10);
    for (auto& w : weights) {
        w = rng.uniform(-5.0, 5.0); // negative weights exercise the clamp
    }
    const core::BitwiseLinearModel model{1.0, std::move(weights)};
    const auto words = correlated_words(10, 1500, 63); // repeats hit mask == 0
    const PackedTrace trace = trace_from_words(words, 10);
    EXPECT_DOUBLE_EQ(model.estimate_trace(trace),
                     model.estimate_average(trace.to_patterns()));
}

TEST(EstimateTrace, WidthMismatchThrows)
{
    const core::HdModel model = make_hd_model(8, 1);
    const auto words = random_words(9, 16, 2);
    const PackedTrace trace = trace_from_words(words, 9);
    EXPECT_THROW((void)model.estimate_trace(trace), util::PreconditionError);
    const core::EnhancedHdModel enhanced = make_enhanced_model(8, 1);
    EXPECT_THROW((void)enhanced.estimate_trace(trace), util::PreconditionError);
    const core::BitwiseLinearModel bitwise{0.0, std::vector<double>(8, 1.0)};
    EXPECT_THROW((void)bitwise.estimate_trace(trace), util::PreconditionError);
}

// --- EstimationEngine ---------------------------------------------------

TEST(EstimationEngine, CachesHistogramsAcrossModels)
{
    core::EstimationEngine engine;
    const auto words = random_words(16, 4000, 4);
    const PackedTrace trace = trace_from_words(words, 16);

    const core::HdModel a = make_hd_model(16, 1);
    const core::HdModel b = make_hd_model(16, 2);
    const double qa = engine.estimate(a, trace);
    const double qb = engine.estimate(b, trace);
    EXPECT_EQ(engine.stats().histograms_built, 1U);
    EXPECT_EQ(engine.stats().cache_hits, 1U);
    EXPECT_EQ(engine.stats().models, 2U);
    EXPECT_EQ(engine.stats().cycles, 2 * trace.cycles());
    EXPECT_NEAR(qa, a.estimate_trace(trace), 1e-12 * std::abs(qa));
    EXPECT_NEAR(qb, b.estimate_trace(trace), 1e-12 * std::abs(qb));

    // The enhanced model needs the class histogram — one more build, and a
    // repeat evaluation hits the cache.
    const core::EnhancedHdModel enhanced = make_enhanced_model(16, 5);
    (void)engine.estimate(enhanced, trace);
    EXPECT_EQ(engine.stats().histograms_built, 2U);
    (void)engine.estimate(enhanced, trace);
    EXPECT_EQ(engine.stats().cache_hits, 2U);
}

TEST(EstimationEngine, BatchEvaluatesAllModelKinds)
{
    core::EstimationEngine engine;
    const auto words = correlated_words(12, 2500, 6);
    const PackedTrace trace = trace_from_words(words, 12);

    const core::HdModel hd = make_hd_model(12, 10);
    const core::EnhancedHdModel enhanced = make_enhanced_model(12, 11);
    const core::BitwiseLinearModel bitwise{0.5, std::vector<double>(12, 2.0)};
    const std::vector<core::AnyModel> models{&hd, &enhanced, &bitwise};
    const std::vector<double> results = engine.estimate_batch(models, trace);
    ASSERT_EQ(results.size(), 3U);
    EXPECT_NEAR(results[0], hd.estimate_trace(trace), 1e-12 * results[0]);
    EXPECT_NEAR(results[1], enhanced.estimate_trace(trace), 1e-12 * results[1]);
    EXPECT_DOUBLE_EQ(results[2], bitwise.estimate_trace(trace));
    EXPECT_EQ(engine.stats().models, 3U);
    EXPECT_GT(engine.stats().cycles_per_second(), 0.0);
}

TEST(EstimationEngine, EvictsLeastRecentlyUsedTrace)
{
    core::EstimationEngine engine{KernelOptions{}, 2};
    const core::HdModel model = make_hd_model(8, 9);
    std::vector<PackedTrace> traces;
    for (unsigned t = 0; t < 3; ++t) {
        traces.push_back(trace_from_words(random_words(8, 300, 50 + t), 8));
    }
    (void)engine.estimate(model, traces[0]);
    (void)engine.estimate(model, traces[1]);
    (void)engine.estimate(model, traces[2]); // evicts traces[0]
    EXPECT_EQ(engine.stats().histograms_built, 3U);
    (void)engine.estimate(model, traces[0]); // rebuilt, not cached
    EXPECT_EQ(engine.stats().histograms_built, 4U);
    (void)engine.estimate(model, traces[0]);
    EXPECT_EQ(engine.stats().cache_hits, 1U);
}

// --- Multi-word (>64-bit) traces ----------------------------------------

TEST(PackedTrace, MultiWordOperandsStraddleWordBoundaries)
{
    // 40 + 40: operand 1 occupies bits 40..79, straddling the word break.
    const std::vector<std::vector<std::int64_t>> operands{{-1, 5}, {-2, 3}};
    const std::vector<int> widths{40, 40};
    const PackedTrace trace = PackedTrace::from_operands(operands, widths);
    ASSERT_EQ(trace.words_per_sample(), 2U);
    for (std::size_t j = 0; j < 2; ++j) {
        const std::uint64_t lo =
            static_cast<std::uint64_t>(operands[0][j]) & ((1ULL << 40) - 1);
        const std::uint64_t hi =
            static_cast<std::uint64_t>(operands[1][j]) & ((1ULL << 40) - 1);
        const auto sample = trace.sample(j);
        EXPECT_EQ(sample[0], lo | (hi << 40)) << j;
        EXPECT_EQ(sample[1], hi >> 24) << j;
    }
    // Bits above the 80-bit width stay zero in the top word.
    EXPECT_EQ(trace.sample(0)[1] >> 16, 0U);
}

TEST(PackedTrace, CountsOutOfRangePerOperand)
{
    // Operand 0 (width 4, range [-8, 7]) truncates twice; operand 1
    // (width 8) once; operand 2 (width 60) never.
    const std::vector<std::vector<std::int64_t>> operands{
        {7, 8, -9}, {127, 200, -1}, {1, 2, 3}};
    const std::vector<int> widths{4, 8, 60};
    const PackedTrace trace = PackedTrace::from_operands(operands, widths);
    const auto per_operand = trace.out_of_range_by_operand();
    ASSERT_EQ(per_operand.size(), 3U);
    EXPECT_EQ(per_operand[0], 2U);
    EXPECT_EQ(per_operand[1], 1U);
    EXPECT_EQ(per_operand[2], 0U);
    EXPECT_EQ(trace.out_of_range(), 3U);
}

TEST(EstimateTrace, ModelsServeMultiWordTraces)
{
    // A 100-bit trace (3 operands, middle one straddling the word break):
    // every model kind must evaluate it, and must agree exactly with its
    // histogram form over the per-bit reference histograms (identical
    // integer histograms are folded in the same FP order).
    const int m = 100;
    util::Rng rng{2029};
    const std::vector<int> widths{30, 40, 30};
    std::vector<std::vector<std::int64_t>> operands;
    for (const int w : widths) {
        std::vector<std::int64_t> values(600);
        for (auto& v : values) {
            v = sign_extend(rng.next_u64(), w);
        }
        operands.push_back(std::move(values));
    }
    const PackedTrace trace = PackedTrace::from_operands(operands, widths);
    ASSERT_EQ(trace.width(), m);
    ASSERT_EQ(trace.words_per_sample(), 2U);

    const core::HdModel hd = make_hd_model(m, 12);
    EXPECT_EQ(hd.estimate_trace(trace),
              hd.estimate_from_histogram(oracle::scalar_hd_histogram(trace)));
    const core::EnhancedHdModel enhanced = make_enhanced_model(m, 13);
    EXPECT_EQ(enhanced.estimate_trace(trace),
              enhanced.estimate_from_histogram(oracle::scalar_hd_class_histogram(trace)));

    // The bitwise model's multi-word walk vs a per-bit reference.
    std::vector<double> weights(static_cast<std::size_t>(m));
    for (auto& w : weights) {
        w = rng.uniform(-2.0, 5.0);
    }
    const core::BitwiseLinearModel bitwise{1.5, weights};
    double expected = 0.0;
    for (std::size_t j = 1; j < trace.size(); ++j) {
        const auto prev = trace.sample(j - 1);
        const auto cur = trace.sample(j);
        bool any = false;
        double q = 1.5;
        for (int i = 0; i < m; ++i) {
            if (((prev[static_cast<std::size_t>(i) / 64] ^
                  cur[static_cast<std::size_t>(i) / 64]) >>
                 (static_cast<std::size_t>(i) % 64)) &
                1U) {
                any = true;
                q += weights[static_cast<std::size_t>(i)];
            }
        }
        if (any) {
            expected += q > 0.0 ? q : 0.0;
        }
    }
    expected /= static_cast<double>(trace.size() - 1);
    EXPECT_DOUBLE_EQ(bitwise.estimate_trace(trace), expected);
}

// --- Engine cache keying and budget -------------------------------------

TEST(EstimationEngine, CacheKeyDistinguishesGeometriesSharingAnId)
{
    // Regression: a cache keyed on trace id alone would serve an 8-bit
    // trace's 9-bin histogram to a 16-bit model after an id collision.
    // Forge the collision and check both geometries evaluate correctly.
    core::EstimationEngine engine;
    PackedTrace narrow = trace_from_words(random_words(8, 400, 91), 8);
    PackedTrace wide = trace_from_words(random_words(16, 400, 92), 16);
    streams::PackedTraceTestAccess::set_id(wide, narrow.id());

    const core::HdModel narrow_model = make_hd_model(8, 21);
    const core::HdModel wide_model = make_hd_model(16, 22);
    const double narrow_q = engine.estimate(narrow_model, narrow);
    const double wide_q = engine.estimate(wide_model, wide);
    EXPECT_EQ(engine.stats().histograms_built, 2U); // distinct entries
    EXPECT_NEAR(narrow_q, narrow_model.estimate_trace(narrow),
                1e-12 * std::abs(narrow_q));
    EXPECT_NEAR(wide_q, wide_model.estimate_trace(wide), 1e-12 * std::abs(wide_q));
    // Both survive in the cache: repeats hit.
    (void)engine.estimate(narrow_model, narrow);
    (void)engine.estimate(wide_model, wide);
    EXPECT_EQ(engine.stats().cache_hits, 2U);
}

TEST(EstimationEngine, ByteBudgetEvictsWideHistograms)
{
    // A 128-bit class histogram holds 129² bins (~133 KB). With a 150 KB
    // byte budget and a generous entry capacity, the second wide trace
    // must evict the first even though the entry count stays tiny.
    constexpr std::size_t kBudget = 150 * 1024;
    core::EstimationEngine engine{KernelOptions{}, 8, kBudget};
    const core::EnhancedHdModel model = make_enhanced_model(128, 33);

    std::vector<PackedTrace> traces;
    for (unsigned t = 0; t < 2; ++t) {
        std::vector<std::vector<std::int64_t>> operands;
        util::Rng rng{700 + t};
        for (int op = 0; op < 2; ++op) {
            std::vector<std::int64_t> values(64);
            for (auto& v : values) {
                v = static_cast<std::int64_t>(rng.next_u64());
            }
            operands.push_back(std::move(values));
        }
        traces.push_back(
            PackedTrace::from_operands(operands, std::vector<int>{64, 64}));
    }

    (void)engine.estimate(model, traces[0]);
    EXPECT_LE(engine.cache_bytes_used(), kBudget);
    (void)engine.estimate(model, traces[1]); // evicts traces[0]'s entry
    EXPECT_LE(engine.cache_bytes_used(), kBudget);
    EXPECT_EQ(engine.stats().histograms_built, 2U);
    (void)engine.estimate(model, traces[0]); // rebuilt, not a hit
    EXPECT_EQ(engine.stats().histograms_built, 3U);
    EXPECT_EQ(engine.stats().cache_hits, 0U);
}

TEST(EstimationEngine, EntryExactlyAtByteBudgetIsRetained)
{
    // A width-7 Hd histogram holds 8 uint64 bins = 64 bytes. With
    // cache_bytes == 64 the entry lands exactly on the budget — "over
    // budget" is strictly greater-than, so it must be kept and served.
    constexpr std::size_t kBudget = 8 * sizeof(std::uint64_t);
    core::EstimationEngine engine{KernelOptions{}, 8, kBudget};
    const core::HdModel model = make_hd_model(7, 41);
    const PackedTrace trace = trace_from_words(random_words(7, 200, 77), 7);

    (void)engine.estimate(model, trace);
    EXPECT_EQ(engine.cache_bytes_used(), kBudget);
    (void)engine.estimate(model, trace);
    EXPECT_EQ(engine.stats().histograms_built, 1U);
    EXPECT_EQ(engine.stats().cache_hits, 1U);
}

TEST(EstimationEngine, SingleEntryLargerThanBudgetStillServes)
{
    // An entry bigger than the whole byte budget may not thrash: the
    // most-recently-used entry is always kept (eviction never empties the
    // cache), so repeats hit even though the budget is formally blown.
    constexpr std::size_t kBudget = 8; // smaller than any histogram
    core::EstimationEngine engine{KernelOptions{}, 8, kBudget};
    const core::HdModel model = make_hd_model(16, 42);
    const PackedTrace a = trace_from_words(random_words(16, 300, 81), 16);
    const PackedTrace b = trace_from_words(random_words(16, 300, 82), 16);

    (void)engine.estimate(model, a);
    EXPECT_GT(engine.cache_bytes_used(), kBudget);
    (void)engine.estimate(model, a);
    EXPECT_EQ(engine.stats().cache_hits, 1U);
    EXPECT_EQ(engine.stats().histograms_built, 1U);

    // A second oversized trace evicts the first (budget pressure) but is
    // itself retained as the sole survivor.
    (void)engine.estimate(model, b);
    EXPECT_EQ(engine.stats().histograms_built, 2U);
    (void)engine.estimate(model, b);
    EXPECT_EQ(engine.stats().cache_hits, 2U);
    (void)engine.estimate(model, a); // rebuilt — it was evicted
    EXPECT_EQ(engine.stats().histograms_built, 3U);
}

TEST(EstimationEngine, CacheSurvivesSetOptionsChanges)
{
    // Kernel options are not part of the cache key (all configurations
    // produce identical integer histograms), so switching threads, chunk
    // size or SIMD tier between queries must keep hitting — and keep
    // returning the exact value.
    core::EstimationEngine engine{KernelOptions{.threads = 1}};
    const core::HdModel model = make_hd_model(12, 43);
    const PackedTrace trace = trace_from_words(correlated_words(12, 2000, 83), 12);

    const double first = engine.estimate(model, trace);
    EXPECT_EQ(engine.stats().histograms_built, 1U);

    engine.set_options(
        KernelOptions{.threads = 2, .simd = util::cpu::SimdLevel::Scalar});
    const double second = engine.estimate(model, trace);
    engine.set_options(KernelOptions{.threads = 0, .chunk = std::size_t{1} << 12});
    const double third = engine.estimate(model, trace);

    EXPECT_EQ(engine.stats().histograms_built, 1U); // never rebuilt
    EXPECT_EQ(engine.stats().cache_hits, 2U);
    EXPECT_EQ(engine.stats().models, 3U);
    EXPECT_EQ(second, first); // same histogram object — bit-identical
    EXPECT_EQ(third, first);
}

// --- Sign-magnitude clamp surfacing ------------------------------------

TEST(NumberFormat, SignMagnitudeReportsClampedSamples)
{
    // Width 8 sign-magnitude holds magnitudes up to 127.
    const std::vector<std::int64_t> values{127, -127, 128, -200, 0};
    std::size_t clamped = 0;
    const auto patterns = streams::to_patterns(
        values, 8, streams::NumberFormat::SignMagnitude, &clamped);
    EXPECT_EQ(clamped, 2U);
    EXPECT_EQ(streams::decode_pattern(patterns[2], streams::NumberFormat::SignMagnitude),
              127);
    EXPECT_EQ(streams::decode_pattern(patterns[3], streams::NumberFormat::SignMagnitude),
              -127);

    // Two's complement never clamps (values are masked, not saturated).
    std::size_t tc_clamped = 99;
    (void)streams::to_patterns(values, 8, streams::NumberFormat::TwosComplement,
                               &tc_clamped);
    EXPECT_EQ(tc_clamped, 0U);

    // INT64_MIN's magnitude must not overflow during encoding.
    const std::vector<std::int64_t> extreme{std::numeric_limits<std::int64_t>::min()};
    std::size_t extreme_clamped = 0;
    const auto p = streams::to_patterns(extreme, 8, streams::NumberFormat::SignMagnitude,
                                        &extreme_clamped);
    EXPECT_EQ(extreme_clamped, 1U);
    EXPECT_EQ(streams::decode_pattern(p[0], streams::NumberFormat::SignMagnitude), -127);
}

// --- Stream I/O hardening ----------------------------------------------

namespace {

std::string temp_path(const std::string& name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

void write_file(const std::string& path, const std::string& text)
{
    std::ofstream out{path, std::ios::binary};
    out << text;
}

} // namespace

TEST(StreamIo, LoadRejectsMalformedRows)
{
    const std::string path = temp_path("hdpm_estimation_io_bad.csv");
    write_file(path, "value\n1\nnot_a_number\n3\n");
    EXPECT_THROW((void)streams::load_stream(path), util::RuntimeError);
    write_file(path, "value\n1\n2,3\n");
    EXPECT_THROW((void)streams::load_stream(path), util::RuntimeError);
    write_file(path, "value\n1\nnan\n");
    EXPECT_THROW((void)streams::load_stream(path), util::RuntimeError);
    write_file(path, "");
    EXPECT_THROW((void)streams::load_stream(path), util::RuntimeError);
    std::remove(path.c_str());
    EXPECT_THROW((void)streams::load_stream(path), util::RuntimeError);
}

TEST(StreamIo, LoadAcceptsCrlfAndFloatCells)
{
    const std::string path = temp_path("hdpm_estimation_io_crlf.csv");
    write_file(path, "value\r\n1\r\n-2\r\n3.6\r\n");
    const auto values = streams::load_stream(path);
    EXPECT_EQ(values, (std::vector<std::int64_t>{1, -2, 4}));
    std::remove(path.c_str());
}

TEST(StreamIo, MillionLineRoundTrip)
{
    util::Rng rng{123};
    std::vector<std::int64_t> original(1'000'000);
    for (auto& v : original) {
        v = rng.uniform_int(std::int64_t{-2'000'000'000}, std::int64_t{2'000'000'000});
    }
    const std::string path = temp_path("hdpm_estimation_io_1m.csv");
    streams::save_stream(path, original);
    const auto loaded = streams::load_stream(path);
    std::remove(path.c_str());
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded, original);
}

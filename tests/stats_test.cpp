#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "stats/datamodel.hpp"
#include "stats/gaussian.hpp"
#include "stats/propagation.hpp"
#include "streams/bitstats.hpp"
#include "streams/stream.hpp"
#include "streams/wordstats.hpp"
#include "util/accumulators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hdpm::stats {
namespace {

using streams::WordStats;
using util::Rng;

WordStats make_stats(double mean, double sigma, double rho, int width)
{
    WordStats s;
    s.mean = mean;
    s.variance = sigma * sigma;
    s.rho = rho;
    s.width = width;
    s.count = 10000;
    return s;
}

// --------------------------------------------------------------- normal

TEST(Gaussian, NormalCdfKnownValues)
{
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
    EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-9);
    EXPECT_NEAR(normal_cdf(6.0), 1.0, 1e-8);
}

TEST(Gaussian, NormalPdfKnownValues)
{
    EXPECT_NEAR(normal_pdf(0.0), 1.0 / std::sqrt(2.0 * std::numbers::pi), 1e-12);
    EXPECT_NEAR(normal_pdf(2.0), 0.05399096651318806, 1e-12);
}

// ------------------------------------------------------------ bivariate

TEST(Gaussian, BivariateIndependentFactorizes)
{
    for (const double h : {-1.5, 0.0, 0.7}) {
        for (const double k : {-0.5, 0.3, 2.0}) {
            EXPECT_NEAR(bivariate_normal_cdf(h, k, 0.0), normal_cdf(h) * normal_cdf(k),
                        1e-10);
        }
    }
}

TEST(Gaussian, BivariatePerfectCorrelationIsMin)
{
    for (const double h : {-1.0, 0.0, 1.3}) {
        for (const double k : {-0.4, 0.9}) {
            EXPECT_NEAR(bivariate_normal_cdf(h, k, 1.0),
                        normal_cdf(std::min(h, k)), 1e-6);
        }
    }
}

TEST(Gaussian, BivariateAtZeroZeroMatchesClosedForm)
{
    // Φ₂(0,0,ρ) = 1/4 + asin(ρ)/(2π).
    for (const double rho : {-0.9, -0.5, 0.0, 0.3, 0.8, 0.99}) {
        EXPECT_NEAR(bivariate_normal_cdf(0.0, 0.0, rho),
                    0.25 + std::asin(rho) / (2.0 * std::numbers::pi), 1e-9)
            << rho;
    }
}

TEST(Gaussian, BivariateIsSymmetric)
{
    EXPECT_NEAR(bivariate_normal_cdf(0.3, -1.1, 0.6), bivariate_normal_cdf(-1.1, 0.3, 0.6),
                1e-12);
}

TEST(Gaussian, BivariateMatchesMonteCarlo)
{
    Rng rng{123};
    const double rho = 0.7;
    const double h = 0.5;
    const double k = -0.3;
    std::size_t hits = 0;
    const std::size_t n = 400000;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.gaussian();
        const double y = rho * x + std::sqrt(1 - rho * rho) * rng.gaussian();
        if (x <= h && y <= k) {
            ++hits;
        }
    }
    const double mc = static_cast<double>(hits) / static_cast<double>(n);
    EXPECT_NEAR(bivariate_normal_cdf(h, k, rho), mc, 0.005);
}

// ------------------------------------------------------------ sign flip

TEST(SignFlip, ZeroMeanClosedForm)
{
    // arccos(ρ)/π for µ = 0.
    for (const double rho : {-0.5, 0.0, 0.5, 0.9, 0.99}) {
        EXPECT_NEAR(sign_flip_probability(0.0, 1.0, rho), std::acos(rho) / std::numbers::pi,
                    1e-8)
            << rho;
    }
}

TEST(SignFlip, UncorrelatedIsHalfForZeroMean)
{
    EXPECT_NEAR(sign_flip_probability(0.0, 3.0, 0.0), 0.5, 1e-10);
}

TEST(SignFlip, LargePositiveMeanNeverFlips)
{
    EXPECT_NEAR(sign_flip_probability(100.0, 1.0, 0.5), 0.0, 1e-6);
}

TEST(SignFlip, ConstantSignalNeverFlips)
{
    EXPECT_DOUBLE_EQ(sign_flip_probability(5.0, 0.0, 0.0), 0.0);
}

TEST(SignFlip, MatchesMonteCarloWithMean)
{
    Rng rng{321};
    const double mu = 0.8;
    const double sigma = 1.0;
    const double rho = 0.9;
    double x = mu;
    std::size_t flips = 0;
    const std::size_t n = 400000;
    double prev = x;
    for (std::size_t i = 0; i < n; ++i) {
        x = mu + rho * (x - mu) + std::sqrt(1 - rho * rho) * rng.gaussian() * sigma;
        if ((x < 0.0) != (prev < 0.0)) {
            ++flips;
        }
        prev = x;
    }
    const double mc = static_cast<double>(flips) / static_cast<double>(n);
    EXPECT_NEAR(sign_flip_probability(mu, sigma, rho), mc, 0.01);
}

// ------------------------------------------------------------ datamodel

TEST(Breakpoints, OrderedAndClamped)
{
    const Breakpoints bp = compute_breakpoints(make_stats(0.0, 500.0, 0.9, 16));
    EXPECT_GE(bp.bp0, 0.0);
    EXPECT_GE(bp.bp1, bp.bp0);
    EXPECT_LE(bp.bp1, 16.0);
}

TEST(Breakpoints, WideSignalHitsCeiling)
{
    const Breakpoints bp = compute_breakpoints(make_stats(0.0, 1e9, 0.5, 8));
    EXPECT_DOUBLE_EQ(bp.bp0, 8.0);
    EXPECT_DOUBLE_EQ(bp.bp1, 8.0);
}

TEST(Breakpoints, TinySignalAllSign)
{
    const Breakpoints bp = compute_breakpoints(make_stats(0.0, 0.1, 0.5, 8));
    EXPECT_DOUBLE_EQ(bp.bp0, 0.0);
    EXPECT_LE(bp.bp1, 1.5);
}

TEST(Regions, PartitionWord)
{
    for (const double sigma : {2.0, 50.0, 1000.0}) {
        const WordRegions r = compute_regions(make_stats(0.0, sigma, 0.8, 16));
        EXPECT_EQ(r.n_rand + r.n_sign, 16);
        EXPECT_GE(r.n_rand, 0);
        EXPECT_GE(r.n_sign, 0);
        EXPECT_GE(r.t_sign, 0.0);
        EXPECT_LE(r.t_sign, 1.0);
    }
}

TEST(Regions, MoreVarianceMeansFewerSignBits)
{
    const WordRegions narrow = compute_regions(make_stats(0.0, 8.0, 0.9, 16));
    const WordRegions wide = compute_regions(make_stats(0.0, 2000.0, 0.9, 16));
    EXPECT_GT(narrow.n_sign, wide.n_sign);
}

TEST(HdDistributionModel, SumsToOne)
{
    for (const double rho : {0.0, 0.5, 0.95}) {
        const HdDistribution d = compute_hd_distribution(make_stats(0.0, 300.0, rho, 16));
        ASSERT_EQ(d.p.size(), 17U);
        double total = 0.0;
        for (const double p : d.p) {
            EXPECT_GE(p, 0.0);
            total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-9) << rho;
    }
}

TEST(HdDistributionModel, PureRandomIsBinomial)
{
    // σ so large that the whole word is in the random region.
    const HdDistribution d = compute_hd_distribution(make_stats(0.0, 1e9, 0.0, 8));
    EXPECT_EQ(d.regions.n_sign, 0);
    // Binomial(8, 1/2) pmf check at a few points.
    EXPECT_NEAR(d.p[0], 1.0 / 256.0, 1e-12);
    EXPECT_NEAR(d.p[4], 70.0 / 256.0, 1e-12);
    EXPECT_NEAR(d.p[8], 1.0 / 256.0, 1e-12);
    EXPECT_NEAR(d.mean(), 4.0, 1e-9);
}

TEST(HdDistributionModel, BimodalForCorrelatedNarrowSignal)
{
    // Strongly correlated, small σ: big sign region with rare joint flips →
    // mass near 0..n_rand plus a bump shifted by n_sign.
    const HdDistribution d = compute_hd_distribution(make_stats(0.0, 16.0, 0.98, 16));
    EXPECT_GT(d.regions.n_sign, 4);
    const double t = d.regions.t_sign;
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 0.3);
    // Probability of Hd below n_sign can only come from "no sign flip"
    // transitions, so it is bounded by (and close to) 1 - t_sign.
    double low_mass = 0.0;
    for (int i = 0; i < d.regions.n_sign; ++i) {
        low_mass += d.p[static_cast<std::size_t>(i)];
    }
    EXPECT_LE(low_mass, 1.0 - t + 1e-9);
    EXPECT_NEAR(low_mass, 1.0 - t, 0.15);
}

TEST(HdDistributionModel, MeanMatchesRegionFormula)
{
    // E[Hd] = 0.5·n_rand + t_sign·n_sign by construction.
    const WordStats s = make_stats(0.0, 120.0, 0.9, 16);
    const HdDistribution d = compute_hd_distribution(s);
    const double expected =
        0.5 * d.regions.n_rand + d.regions.t_sign * d.regions.n_sign;
    EXPECT_NEAR(d.mean(), expected, 1e-9);
}

TEST(HdDistributionModel, MatchesExtractedForSpeech)
{
    // The fig. 9 experiment in miniature: analytic vs extracted
    // distribution for a synthetic speech stream.
    const auto values = streams::generate_stream(streams::DataType::Speech, 16, 8000, 42);
    const WordStats stats = streams::measure_word_stats(values, 16);
    const HdDistribution analytic = compute_hd_distribution(stats);

    const auto patterns = streams::to_patterns(values, 16);
    const auto extracted = streams::extract_hd_distribution(patterns);

    // Compare means and total variation distance loosely: the data model is
    // an approximation, but must capture the shape.
    double tv = 0.0;
    for (std::size_t i = 0; i < extracted.size(); ++i) {
        tv += std::abs(extracted[i] - analytic.p[i]);
    }
    tv *= 0.5;
    EXPECT_LT(tv, 0.35) << "analytic distribution too far from extracted";

    double extracted_mean = 0.0;
    for (std::size_t i = 0; i < extracted.size(); ++i) {
        extracted_mean += static_cast<double>(i) * extracted[i];
    }
    EXPECT_NEAR(analytic.mean(), extracted_mean, 2.0);
}

TEST(HdDistributionModel, CombineIndependentConvolves)
{
    const HdDistribution a = compute_hd_distribution(make_stats(0.0, 100.0, 0.8, 8));
    const HdDistribution b = compute_hd_distribution(make_stats(0.0, 40.0, 0.5, 8));
    const HdDistribution c = combine_independent(a, b);
    ASSERT_EQ(c.p.size(), 17U);
    double total = 0.0;
    for (const double p : c.p) {
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NEAR(c.mean(), a.mean() + b.mean(), 1e-9);
}

TEST(AnalyticAverageHd, TracksExtractedAcrossTypes)
{
    using streams::DataType;
    for (const DataType type : {DataType::Random, DataType::Music, DataType::Speech}) {
        const auto values = streams::generate_stream(type, 16, 8000, 77);
        const WordStats stats = streams::measure_word_stats(values, 16);
        const double analytic = analytic_average_hd(stats);
        const auto patterns = streams::to_patterns(values, 16);
        const double extracted = streams::extract_average_hd(patterns);
        EXPECT_NEAR(analytic, extracted, 0.30 * extracted + 0.5)
            << streams::data_type_name(type);
    }
}

// ----------------------------------------------------- folded normal

TEST(FoldedNormal, ZeroMeanClosedForm)
{
    // E|X| = σ·sqrt(2/π), Var|X| = σ²(1 − 2/π) for µ = 0.
    const double sigma = 3.0;
    EXPECT_NEAR(folded_normal_mean(0.0, sigma), sigma * std::sqrt(2.0 / std::numbers::pi),
                1e-12);
    EXPECT_NEAR(folded_normal_variance(0.0, sigma),
                sigma * sigma * (1.0 - 2.0 / std::numbers::pi), 1e-12);
}

TEST(FoldedNormal, LargeMeanDegeneratesToIdentity)
{
    EXPECT_NEAR(folded_normal_mean(100.0, 1.0), 100.0, 1e-6);
    EXPECT_NEAR(folded_normal_variance(100.0, 1.0), 1.0, 1e-4);
    EXPECT_DOUBLE_EQ(folded_normal_mean(-5.0, 0.0), 5.0);
}

TEST(FoldedNormal, MatchesMonteCarlo)
{
    Rng rng{77};
    util::RunningStats acc;
    const double mu = 1.3;
    const double sigma = 2.0;
    for (int i = 0; i < 300000; ++i) {
        acc.add(std::abs(rng.gaussian(mu, sigma)));
    }
    EXPECT_NEAR(folded_normal_mean(mu, sigma), acc.mean(), 0.01);
    EXPECT_NEAR(folded_normal_variance(mu, sigma), acc.variance(), 0.05);
}

// ------------------------------------------------------ sign-magnitude

TEST(SignMagnitude, DistributionSumsToOne)
{
    const HdDistribution d = compute_hd_distribution(
        make_stats(0.0, 300.0, 0.9, 16), streams::NumberFormat::SignMagnitude);
    ASSERT_EQ(d.p.size(), 17U);
    double total = 0.0;
    for (const double p : d.p) {
        EXPECT_GE(p, 0.0);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(d.regions.n_sign, 1);
}

TEST(SignMagnitude, TwosComplementFormatDelegates)
{
    const auto s = make_stats(0.0, 300.0, 0.9, 16);
    const HdDistribution a = compute_hd_distribution(s);
    const HdDistribution b =
        compute_hd_distribution(s, streams::NumberFormat::TwosComplement);
    for (std::size_t i = 0; i < a.p.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.p[i], b.p[i]);
    }
}

TEST(SignMagnitude, LowersAverageHdForCorrelatedSignals)
{
    // The classic low-power argument for sign-magnitude: a correlated
    // zero-mean signal flips sign rarely, but each two's complement flip
    // toggles the whole sign region; sign-magnitude toggles one bit.
    const auto s = make_stats(0.0, 40.0, 0.97, 16);
    const double hd_2c = analytic_average_hd(s);
    const double hd_sm =
        analytic_average_hd(s, streams::NumberFormat::SignMagnitude);
    EXPECT_LT(hd_sm, hd_2c);
}

TEST(SignMagnitude, AnalyticMatchesExtractedForSpeech)
{
    const auto values = streams::generate_stream(streams::DataType::Speech, 16, 8000, 42);
    const streams::WordStats stats = streams::measure_word_stats(values, 16);
    const HdDistribution analytic =
        compute_hd_distribution(stats, streams::NumberFormat::SignMagnitude);

    const auto patterns =
        streams::to_patterns(values, 16, streams::NumberFormat::SignMagnitude);
    const auto extracted = streams::extract_hd_distribution(patterns);

    double tv = 0.0;
    for (std::size_t i = 0; i < extracted.size(); ++i) {
        tv += std::abs(extracted[i] - analytic.p[i]);
    }
    tv *= 0.5;
    EXPECT_LT(tv, 0.35);

    // And the empirical ordering matches the analytic claim.
    const auto patterns_2c = streams::to_patterns(values, 16);
    EXPECT_LT(streams::extract_average_hd(patterns),
              streams::extract_average_hd(patterns_2c));
}

// -------------------------------------------- parameterized model sweep

class HdDistributionGrid
    : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(HdDistributionGrid, WellFormedAcrossParameterSpace)
{
    const auto [sigma, rho, width] = GetParam();
    const streams::WordStats s = make_stats(0.0, sigma, rho, width);

    const HdDistribution d = compute_hd_distribution(s);
    ASSERT_EQ(d.p.size(), static_cast<std::size_t>(width) + 1);
    double total = 0.0;
    for (const double p : d.p) {
        ASSERT_GE(p, -1e-12);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(d.regions.n_rand + d.regions.n_sign, width);
    EXPECT_NEAR(d.mean(),
                0.5 * d.regions.n_rand + d.regions.t_sign * d.regions.n_sign, 1e-9);

    // Sign-magnitude variant is equally well-formed.
    const HdDistribution sm =
        compute_hd_distribution(s, streams::NumberFormat::SignMagnitude);
    double sm_total = 0.0;
    for (const double p : sm.p) {
        ASSERT_GE(p, -1e-12);
        sm_total += p;
    }
    EXPECT_NEAR(sm_total, 1.0, 1e-9);

    // Per-bit activities are consistent probabilities and their sum equals
    // the three-region average Hd.
    const auto bits = analytic_bit_activities(s);
    double hd_from_bits = 0.0;
    for (const auto& bit : bits) {
        ASSERT_GE(bit.signal_prob, 0.0);
        ASSERT_LE(bit.signal_prob, 1.0);
        ASSERT_GE(bit.transition_prob, 0.0);
        ASSERT_LE(bit.transition_prob, 1.0);
        hd_from_bits += bit.transition_prob;
    }
    EXPECT_NEAR(hd_from_bits, analytic_average_hd(s), 0.30 * width);
}

INSTANTIATE_TEST_SUITE_P(
    SigmaRhoWidth, HdDistributionGrid,
    ::testing::Combine(::testing::Values(0.5, 8.0, 120.0, 5000.0, 1e7),
                       ::testing::Values(-0.5, 0.0, 0.5, 0.9, 0.99),
                       ::testing::Values(8, 16, 24)),
    [](const ::testing::TestParamInfo<std::tuple<double, double, int>>& info) {
        return "s" + std::to_string(static_cast<int>(std::get<0>(info.param))) + "_r" +
               std::to_string(
                   static_cast<int>(std::lround((std::get<1>(info.param) + 1.0) * 100))) +
               "_w" + std::to_string(std::get<2>(info.param));
    });

// -------------------------------------------------- per-bit activities

TEST(BitActivities, RegionsShapeTheProfile)
{
    const auto bits = analytic_bit_activities(make_stats(0.0, 120.0, 0.95, 16));
    ASSERT_EQ(bits.size(), 16U);
    // LSBs random.
    EXPECT_DOUBLE_EQ(bits[0].signal_prob, 0.5);
    EXPECT_DOUBLE_EQ(bits[0].transition_prob, 0.5);
    // MSB is a sign bit of a strongly correlated zero-mean signal.
    EXPECT_NEAR(bits[15].signal_prob, 0.5, 0.05);
    EXPECT_LT(bits[15].transition_prob, 0.2);
    // Transition probability is non-increasing from LSB to MSB here.
    for (std::size_t i = 1; i < bits.size(); ++i) {
        EXPECT_LE(bits[i].transition_prob, bits[i - 1].transition_prob + 1e-12) << i;
    }
}

TEST(BitActivities, MatchMeasuredForSpeech)
{
    const auto values = streams::generate_stream(streams::DataType::Speech, 16, 8000, 5);
    const streams::WordStats stats = streams::measure_word_stats(values, 16);
    const auto model_bits = analytic_bit_activities(stats);
    const streams::BitStats measured = streams::measure_bit_stats(values, 16);

    // The linear interpolation across the intermediate region is coarse
    // (Landman's own approximation): allow single-bit outliers there, but
    // require a tight mean deviation.
    double worst = 0.0;
    double mean_dev = 0.0;
    for (int i = 0; i < 16; ++i) {
        const double dev =
            std::abs(model_bits[static_cast<std::size_t>(i)].transition_prob -
                     measured.transition_prob[static_cast<std::size_t>(i)]);
        worst = std::max(worst, dev);
        mean_dev += dev;
    }
    mean_dev /= 16.0;
    EXPECT_LT(worst, 0.45) << "per-bit activity model too far from measurement";
    EXPECT_LT(mean_dev, 0.12) << "mean per-bit deviation too large";
    // Sum of transition probabilities = average Hd; both routes agree.
    double model_hd = 0.0;
    for (const auto& bit : model_bits) {
        model_hd += bit.transition_prob;
    }
    EXPECT_NEAR(model_hd, measured.average_hd(), 0.30 * measured.average_hd() + 0.5);
}

TEST(BitActivities, ConstantStreamIsQuiet)
{
    const auto bits = analytic_bit_activities(make_stats(37.0, 0.0, 1.0, 8));
    for (const auto& bit : bits) {
        EXPECT_DOUBLE_EQ(bit.transition_prob, 0.0);
    }
}

// ---------------------------------------------------------- propagation

TEST(Propagation, AddMoments)
{
    const WordStats a = make_stats(2.0, 3.0, 0.5, 12);
    const WordStats b = make_stats(-1.0, 4.0, 0.25, 12);
    const WordStats sum = propagate_add(a, b, 13);
    EXPECT_DOUBLE_EQ(sum.mean, 1.0);
    EXPECT_DOUBLE_EQ(sum.variance, 25.0);
    EXPECT_EQ(sum.width, 13);
    // Variance-weighted rho: (0.5·9 + 0.25·16)/25 = 0.34.
    EXPECT_NEAR(sum.rho, 0.34, 1e-12);
}

TEST(Propagation, ConstMult)
{
    const WordStats a = make_stats(2.0, 3.0, 0.5, 12);
    const WordStats out = propagate_const_mult(a, -4.0, 16);
    EXPECT_DOUBLE_EQ(out.mean, -8.0);
    EXPECT_DOUBLE_EQ(out.variance, 144.0);
    EXPECT_DOUBLE_EQ(out.rho, 0.5);
}

} // namespace
} // namespace hdpm::stats

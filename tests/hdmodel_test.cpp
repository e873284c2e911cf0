#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/bus_model.hpp"
#include "core/enhanced_model.hpp"
#include "core/error_metrics.hpp"
#include "core/hd_model.hpp"
#include "util/error.hpp"

namespace hdpm::core {
namespace {

using util::BitVec;

HdModel linear_model(int m, double slope = 10.0)
{
    std::vector<double> p(static_cast<std::size_t>(m));
    for (int i = 1; i <= m; ++i) {
        p[static_cast<std::size_t>(i - 1)] = slope * i;
    }
    return HdModel{m, std::move(p)};
}

// ---------------------------------------------------------------- basic

TEST(HdModel, ConstructionValidated)
{
    EXPECT_THROW((HdModel{0, {}}), util::PreconditionError);
    EXPECT_THROW((HdModel{3, {1.0, 2.0}}), util::PreconditionError);
    EXPECT_THROW((HdModel{2, {1.0, 2.0}, {0.1}}), util::PreconditionError);
}

TEST(HdModel, CoefficientAccess)
{
    const HdModel m = linear_model(4);
    EXPECT_DOUBLE_EQ(m.coefficient(1), 10.0);
    EXPECT_DOUBLE_EQ(m.coefficient(4), 40.0);
    EXPECT_THROW((void)m.coefficient(0), util::PreconditionError);
    EXPECT_THROW((void)m.coefficient(5), util::PreconditionError);
}

TEST(HdModel, EstimateCycleZeroHd)
{
    const HdModel m = linear_model(4);
    EXPECT_DOUBLE_EQ(m.estimate_cycle(0), 0.0);
    EXPECT_DOUBLE_EQ(m.estimate_cycle(3), 30.0);
}

TEST(HdModel, EstimateCyclesFromPatterns)
{
    const HdModel m = linear_model(4);
    const std::vector<BitVec> patterns{BitVec{4, 0b0000}, BitVec{4, 0b0001},
                                       BitVec{4, 0b0111}, BitVec{4, 0b0111}};
    const auto q = m.estimate_cycles(patterns);
    ASSERT_EQ(q.size(), 3U);
    EXPECT_DOUBLE_EQ(q[0], 10.0); // Hd 1
    EXPECT_DOUBLE_EQ(q[1], 20.0); // Hd 2
    EXPECT_DOUBLE_EQ(q[2], 0.0);  // Hd 0
    EXPECT_NEAR(m.estimate_average(patterns), 10.0, 1e-12);
}

TEST(HdModel, PatternWidthChecked)
{
    const HdModel m = linear_model(4);
    const std::vector<BitVec> patterns{BitVec{5, 0}, BitVec{5, 1}};
    EXPECT_THROW((void)m.estimate_cycles(patterns), util::PreconditionError);
}

TEST(HdModel, DistributionEstimateIsWeightedSum)
{
    const HdModel m = linear_model(4);
    const std::vector<double> dist{0.1, 0.2, 0.3, 0.25, 0.15};
    const double expected = 0.2 * 10 + 0.3 * 20 + 0.25 * 30 + 0.15 * 40;
    EXPECT_NEAR(m.estimate_from_distribution(dist), expected, 1e-12);
}

TEST(HdModel, DistributionSizeChecked)
{
    const HdModel m = linear_model(4);
    const std::vector<double> wrong{0.5, 0.5};
    EXPECT_THROW((void)m.estimate_from_distribution(wrong), util::PreconditionError);
}

TEST(HdModel, AverageHdInterpolation)
{
    const HdModel m = linear_model(4);
    EXPECT_DOUBLE_EQ(m.estimate_from_average_hd(2.0), 20.0);
    EXPECT_DOUBLE_EQ(m.estimate_from_average_hd(2.5), 25.0);
    // Below 1 the model interpolates towards Q(0) = 0.
    EXPECT_DOUBLE_EQ(m.estimate_from_average_hd(0.5), 5.0);
    EXPECT_DOUBLE_EQ(m.estimate_from_average_hd(0.0), 0.0);
    // Above m it clamps.
    EXPECT_DOUBLE_EQ(m.estimate_from_average_hd(9.0), 40.0);
}

TEST(HdModel, LinearModelDistributionEqualsAverageEstimate)
{
    // For a model linear in Hd, the distribution and average estimators
    // agree — the paper's criterion for when Hd_avg suffices.
    const HdModel m = linear_model(8);
    const std::vector<double> dist{0.0, 0.1, 0.1, 0.2, 0.2, 0.2, 0.1, 0.05, 0.05};
    double hd_avg = 0.0;
    for (std::size_t i = 0; i < dist.size(); ++i) {
        hd_avg += static_cast<double>(i) * dist[i];
    }
    EXPECT_NEAR(m.estimate_from_distribution(dist), m.estimate_from_average_hd(hd_avg),
                1e-9);
}

TEST(HdModel, QuadraticModelDistributionDiffersFromAverage)
{
    // Non-linear coefficients + asymmetric distribution → systematic error
    // of the average-only estimator (fig. 6).
    std::vector<double> p(8);
    for (int i = 1; i <= 8; ++i) {
        p[static_cast<std::size_t>(i - 1)] = static_cast<double>(i) * i;
    }
    const HdModel m{8, std::move(p)};
    // Bimodal: mass at 1 and at 7.
    std::vector<double> dist(9, 0.0);
    dist[1] = 0.5;
    dist[7] = 0.5;
    const double from_dist = m.estimate_from_distribution(dist);
    const double from_avg = m.estimate_from_average_hd(4.0);
    EXPECT_GT(from_dist, from_avg * 1.4);
}

TEST(HdModel, AverageDeviation)
{
    const HdModel m{3, {10.0, 20.0, 30.0}, {0.1, 0.2, 0.3}, {5, 5, 0}};
    // Class 3 has no samples and is excluded.
    EXPECT_NEAR(m.average_deviation(), 0.15, 1e-12);
}

TEST(HdModel, SaveLoadRoundTrip)
{
    const HdModel m{3, {10.5, 20.25, 30.125}, {0.1, 0.2, 0.3}, {100, 200, 300}};
    std::stringstream ss;
    m.save(ss);
    const HdModel r = HdModel::load(ss);
    EXPECT_EQ(r.input_bits(), 3);
    for (int i = 1; i <= 3; ++i) {
        EXPECT_DOUBLE_EQ(r.coefficient(i), m.coefficient(i));
        EXPECT_DOUBLE_EQ(r.deviation(i), m.deviation(i));
        EXPECT_EQ(r.sample_count(i), m.sample_count(i));
    }
}

TEST(HdModel, LoadRejectsGarbage)
{
    std::stringstream ss{"bogus 9\n"};
    EXPECT_THROW((void)HdModel::load(ss), util::RuntimeError);
}

TEST(HdModel, LoadRefusesAWidthItsBytesDoNotHold)
{
    // 23 bytes that declare two billion classes fail at the first missing
    // row; before, they asked for three 16 GB tables and threw bad_alloc,
    // which the model library's quarantine does not catch.
    std::stringstream ss{"hdmodel 1\nm 2000000000\n"};
    EXPECT_THROW((void)HdModel::load(ss), util::RuntimeError);
}

TEST(HdModel, LoadAcceptsExactlyWhatSaveWrites)
{
    const std::string saved = "hdmodel 1\nm 2\n1 10.5 0.25 3\n2 21 0 4\nend\n";
    std::stringstream good{saved};
    EXPECT_EQ(HdModel::load(good).sample_count(2), 4U);
    for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
             {"m 2", "m +2"},
             {" 3\n", " -3\n"},
             {"1 10.5", "1  10.5"},
             {"end\n", "end\nend\n"},
             {"end\n", "end"},
             {"2 21", "3 21"}}) {
        std::string damaged = saved;
        damaged.replace(damaged.find(from), from.size(), to);
        std::stringstream ss{damaged};
        EXPECT_THROW((void)HdModel::load(ss), util::RuntimeError) << to;
    }
}

// ------------------------------------------------------------- enhanced

EnhancedHdModel small_enhanced()
{
    // m = 3: rows (hd=1: z∈0..2), (hd=2: z∈0..1), (hd=3: z=0).
    std::vector<std::vector<double>> p{{11.0, 12.0, 13.0}, {21.0, 22.0}, {31.0}};
    std::vector<std::vector<double>> d{{0.1, 0.1, 0.1}, {0.2, 0.2}, {0.3}};
    std::vector<std::vector<std::size_t>> n{{5, 5, 0}, {5, 5}, {5}};
    return EnhancedHdModel{3, 0, p, d, n, HdModel{3, {10.0, 20.0, 30.0}}};
}

TEST(Enhanced, NumCoefficientsIsTriangular)
{
    const EnhancedHdModel m = small_enhanced();
    EXPECT_EQ(m.num_coefficients(), 6U); // (3²+3)/2
}

TEST(Enhanced, CoefficientLookupAndFallback)
{
    const EnhancedHdModel m = small_enhanced();
    EXPECT_DOUBLE_EQ(m.coefficient(1, 0), 11.0);
    EXPECT_DOUBLE_EQ(m.coefficient(1, 1), 12.0);
    EXPECT_DOUBLE_EQ(m.coefficient(2, 1), 22.0);
    // (1, 2) has no samples → falls back to basic p_1 = 10.
    EXPECT_DOUBLE_EQ(m.coefficient(1, 2), 10.0);
}

TEST(Enhanced, ClusterBoundsChecked)
{
    const EnhancedHdModel m = small_enhanced();
    EXPECT_THROW((void)m.coefficient(1, 3), util::PreconditionError);
    EXPECT_THROW((void)m.coefficient(3, 1), util::PreconditionError);
    EXPECT_THROW((void)m.coefficient(4, 0), util::PreconditionError);
}

TEST(Enhanced, ClusteredMappingCoversRange)
{
    // m = 10, 4 clusters: every (hd, z) maps into [0, clusters).
    std::vector<std::vector<double>> p;
    std::vector<std::vector<double>> d;
    std::vector<std::vector<std::size_t>> n;
    for (int hd = 1; hd <= 10; ++hd) {
        const int levels = 10 - hd + 1;
        const int clusters = std::min(4, levels);
        p.emplace_back(static_cast<std::size_t>(clusters), 1.0);
        d.emplace_back(static_cast<std::size_t>(clusters), 0.0);
        n.emplace_back(static_cast<std::size_t>(clusters), 1);
    }
    std::vector<double> base(10, 1.0);
    const EnhancedHdModel m{10, 4, p, d, n, HdModel{10, base}};
    for (int hd = 1; hd <= 10; ++hd) {
        int max_seen = -1;
        for (int z = 0; z <= 10 - hd; ++z) {
            const int c = m.cluster_of(hd, z);
            EXPECT_GE(c, 0);
            EXPECT_LT(c, m.num_clusters(hd));
            EXPECT_GE(c, max_seen) << "cluster mapping must be monotone in z";
            max_seen = std::max(max_seen, c);
        }
        EXPECT_EQ(max_seen, m.num_clusters(hd) - 1) << "top cluster unreachable";
    }
}

TEST(Enhanced, EstimateCyclesUsesZeroCounts)
{
    const EnhancedHdModel m = small_enhanced();
    // 000 -> 001: Hd 1, stable zeros 2 → unpopulated → fallback 10.
    // 001 -> 011: Hd 1, stable zeros 1 → 12.
    const std::vector<BitVec> patterns{BitVec{3, 0b000}, BitVec{3, 0b001},
                                       BitVec{3, 0b011}};
    const auto q = m.estimate_cycles(patterns);
    ASSERT_EQ(q.size(), 2U);
    EXPECT_DOUBLE_EQ(q[0], 10.0);
    EXPECT_DOUBLE_EQ(q[1], 12.0);
}

TEST(Enhanced, StatisticalEstimateUsesExpectedZeros)
{
    const EnhancedHdModel m = small_enhanced();
    // All mass at Hd = 1; expected zeros 1 → coefficient(1, 1) = 12.
    const std::vector<double> dist{0.0, 1.0, 0.0, 0.0};
    const std::vector<double> zeros{0.0, 1.0, 0.0, 0.0};
    EXPECT_DOUBLE_EQ(m.estimate_from_distribution(dist, zeros), 12.0);

    // Expected zeros are clamped into [0, m - i].
    const std::vector<double> too_many{0.0, 99.0, 0.0, 0.0};
    EXPECT_DOUBLE_EQ(m.estimate_from_distribution(dist, too_many),
                     m.coefficient(1, 2));

    // Size mismatches are rejected.
    const std::vector<double> wrong{1.0};
    EXPECT_THROW((void)m.estimate_from_distribution(wrong, zeros),
                 util::PreconditionError);
    EXPECT_THROW((void)m.estimate_from_distribution(dist, wrong),
                 util::PreconditionError);
}

TEST(Enhanced, StatisticalEstimateMixesClasses)
{
    const EnhancedHdModel m = small_enhanced();
    const std::vector<double> dist{0.1, 0.5, 0.4, 0.0};
    const std::vector<double> zeros{0.0, 0.0, 1.0, 0.0};
    // 0.5·p(1,0) + 0.4·p(2,1) = 0.5·11 + 0.4·22.
    EXPECT_NEAR(m.estimate_from_distribution(dist, zeros), 0.5 * 11.0 + 0.4 * 22.0,
                1e-12);
}

TEST(Enhanced, SaveLoadRoundTrip)
{
    const EnhancedHdModel m = small_enhanced();
    std::stringstream ss;
    m.save(ss);
    const EnhancedHdModel r = EnhancedHdModel::load(ss);
    EXPECT_EQ(r.input_bits(), 3);
    EXPECT_EQ(r.zero_clusters(), 0);
    EXPECT_DOUBLE_EQ(r.coefficient(1, 1), 12.0);
    EXPECT_DOUBLE_EQ(r.coefficient(1, 2), 10.0); // fallback preserved
    EXPECT_EQ(r.sample_count(2, 0), 5U);
    EXPECT_DOUBLE_EQ(r.fallback().coefficient(3), 30.0);
}

TEST(Enhanced, LoadRefusesAWidthItsBytesDoNotHold)
{
    // 37 bytes that declare an 8-million-entry table fail at the first
    // missing row, before any table is built.
    std::stringstream huge{"enhanced_hdmodel 1\nm 4000 clusters 0\n"};
    EXPECT_THROW((void)EnhancedHdModel::load(huge), util::RuntimeError);

    // A fallback of another width is a malformed file, not a precondition
    // failure of the constructor.
    std::stringstream narrow{"enhanced_hdmodel 1\nm 1 clusters 0\n1 0 11 0.1 5\nfallback\n"
                             "hdmodel 1\nm 2\n1 10 0 0\n2 20 0 0\nend\nend\n"};
    EXPECT_THROW((void)EnhancedHdModel::load(narrow), util::RuntimeError);
}

// ------------------------------------------------------------- adaptive

TEST(Adaptive, ConvergesToObservedCharge)
{
    AdaptiveHdModel adaptive{linear_model(4), 0.2};
    // Keep observing Q = 100 for Hd = 2; coefficient must converge there.
    for (int i = 0; i < 200; ++i) {
        (void)adaptive.observe(2, 100.0);
    }
    EXPECT_NEAR(adaptive.coefficient(2), 100.0, 1e-6);
    // Untouched classes keep their initial values.
    EXPECT_DOUBLE_EQ(adaptive.coefficient(1), 10.0);
    EXPECT_DOUBLE_EQ(adaptive.coefficient(3), 30.0);
}

TEST(Adaptive, ObserveReturnsPreUpdateEstimate)
{
    AdaptiveHdModel adaptive{linear_model(4), 0.5};
    EXPECT_DOUBLE_EQ(adaptive.observe(2, 100.0), 20.0);
    EXPECT_DOUBLE_EQ(adaptive.coefficient(2), 60.0);
}

TEST(Adaptive, LearningRateValidated)
{
    EXPECT_THROW((AdaptiveHdModel{linear_model(2), 0.0}), util::PreconditionError);
    EXPECT_THROW((AdaptiveHdModel{linear_model(2), 1.5}), util::PreconditionError);
}

TEST(Adaptive, SnapshotIsPlainModel)
{
    AdaptiveHdModel adaptive{linear_model(3), 1.0};
    (void)adaptive.observe(1, 42.0);
    const HdModel snap = adaptive.snapshot();
    EXPECT_DOUBLE_EQ(snap.coefficient(1), 42.0);
    EXPECT_DOUBLE_EQ(snap.coefficient(2), 20.0);
}

TEST(Adaptive, HdZeroObservationIsNoop)
{
    AdaptiveHdModel adaptive{linear_model(3), 0.5};
    EXPECT_DOUBLE_EQ(adaptive.observe(0, 99.0), 0.0);
    EXPECT_DOUBLE_EQ(adaptive.coefficient(1), 10.0);
}

// ------------------------------------------------------------ bus model

TEST(BusModel, CycleChargeProportionalToHd)
{
    const BusPowerModel bus{8, 100.0, 2.0}; // q = ½·100·2 = 100 fC per toggle
    EXPECT_DOUBLE_EQ(bus.estimate_cycle(0), 0.0);
    EXPECT_DOUBLE_EQ(bus.estimate_cycle(1), 100.0);
    EXPECT_DOUBLE_EQ(bus.estimate_cycle(8), 800.0);
    EXPECT_THROW((void)bus.estimate_cycle(9), util::PreconditionError);
}

TEST(BusModel, ClockLoadDrawnEveryCycle)
{
    const BusPowerModel bus{8, 100.0, 2.0, 50.0}; // clock = 50 fC
    EXPECT_DOUBLE_EQ(bus.estimate_cycle(0), 50.0);
    EXPECT_DOUBLE_EQ(bus.estimate_cycle(2), 250.0);
}

TEST(BusModel, StreamAndDistributionAgree)
{
    const BusPowerModel bus{4, 10.0, 1.0};
    const std::vector<util::BitVec> patterns{
        util::BitVec{4, 0b0000}, util::BitVec{4, 0b0001}, util::BitVec{4, 0b0111}};
    // Hds are 1 and 2 → mean 1.5 → 1.5·5 fC.
    EXPECT_DOUBLE_EQ(bus.estimate_average(patterns), 7.5);
    const std::vector<double> dist{0.0, 0.5, 0.5, 0.0, 0.0};
    EXPECT_DOUBLE_EQ(bus.estimate_from_distribution(dist), 7.5);
}

TEST(BusModel, AnalyticSignMagnitudeBeatsTwosComplementOnQuietData)
{
    streams::WordStats stats;
    stats.mean = 0.0;
    stats.variance = 30.0 * 30.0; // quiet vs a 16-bit word
    stats.rho = 0.97;
    stats.width = 16;
    stats.count = 10000;
    const BusPowerModel bus{16, 200.0, 3.3};
    const double q_2c =
        bus.estimate_from_stats(stats, streams::NumberFormat::TwosComplement);
    const double q_sm =
        bus.estimate_from_stats(stats, streams::NumberFormat::SignMagnitude);
    EXPECT_LT(q_sm, q_2c);
}

TEST(BusModel, ConstructionValidated)
{
    EXPECT_THROW((BusPowerModel{0, 1.0}), util::PreconditionError);
    EXPECT_THROW((BusPowerModel{4, 0.0}), util::PreconditionError);
    EXPECT_THROW((BusPowerModel{4, 1.0, -1.0}), util::PreconditionError);
}

// --------------------------------------------------------- error metrics

TEST(ErrorMetrics, PerfectEstimateIsZero)
{
    const std::vector<double> ref{10.0, 20.0, 30.0};
    const AccuracyReport r = compare_cycles(ref, ref);
    EXPECT_DOUBLE_EQ(r.avg_abs_cycle_error_pct, 0.0);
    EXPECT_DOUBLE_EQ(r.avg_error_pct, 0.0);
    EXPECT_EQ(r.cycles, 3U);
}

TEST(ErrorMetrics, KnownErrors)
{
    const std::vector<double> est{11.0, 18.0};
    const std::vector<double> ref{10.0, 20.0};
    const AccuracyReport r = compare_cycles(est, ref);
    EXPECT_NEAR(r.avg_abs_cycle_error_pct, 10.0, 1e-9); // (10% + 10%)/2
    EXPECT_NEAR(r.avg_error_pct, (29.0 - 30.0) / 30.0 * 100.0, 1e-9);
}

TEST(ErrorMetrics, SignedErrorCancels)
{
    const std::vector<double> est{15.0, 15.0};
    const std::vector<double> ref{10.0, 20.0};
    const AccuracyReport r = compare_cycles(est, ref);
    EXPECT_DOUBLE_EQ(r.avg_error_pct, 0.0);
    EXPECT_GT(r.avg_abs_cycle_error_pct, 0.0);
}

TEST(ErrorMetrics, ZeroReferenceCyclesSkipped)
{
    const std::vector<double> est{5.0, 10.0};
    const std::vector<double> ref{0.0, 10.0};
    const AccuracyReport r = compare_cycles(est, ref);
    EXPECT_EQ(r.skipped_zero_reference, 1U);
    EXPECT_DOUBLE_EQ(r.avg_abs_cycle_error_pct, 0.0);
    EXPECT_DOUBLE_EQ(r.avg_error_pct, 50.0);
}

TEST(ErrorMetrics, SizeMismatchThrows)
{
    const std::vector<double> a{1.0};
    const std::vector<double> b{1.0, 2.0};
    EXPECT_THROW((void)compare_cycles(a, b), util::PreconditionError);
}

} // namespace
} // namespace hdpm::core

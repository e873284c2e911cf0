#include "core/enhanced_model.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/record_codec.hpp"

namespace hdpm::core {

using util::BitVec;

EnhancedHdModel::EnhancedHdModel(int input_bits, int zero_clusters,
                                 std::vector<std::vector<double>> coefficients,
                                 std::vector<std::vector<double>> deviations,
                                 std::vector<std::vector<std::size_t>> sample_counts,
                                 HdModel fallback)
    : input_bits_(input_bits),
      zero_clusters_(zero_clusters),
      coefficients_(std::move(coefficients)),
      deviations_(std::move(deviations)),
      samples_(std::move(sample_counts)),
      fallback_(std::move(fallback))
{
    HDPM_REQUIRE(input_bits_ >= 1, "model needs at least one input bit");
    HDPM_REQUIRE(zero_clusters_ >= 0, "negative cluster count");
    HDPM_REQUIRE(fallback_.input_bits() == input_bits_, "fallback model width mismatch");
    HDPM_REQUIRE(static_cast<int>(coefficients_.size()) == input_bits_,
                 "coefficient table must have m rows");
    for (int hd = 1; hd <= input_bits_; ++hd) {
        const auto expected = static_cast<std::size_t>(num_clusters(hd));
        HDPM_REQUIRE(coefficients_[static_cast<std::size_t>(hd - 1)].size() == expected,
                     "row ", hd, " cluster count mismatch");
        HDPM_REQUIRE(deviations_[static_cast<std::size_t>(hd - 1)].size() == expected,
                     "deviation row ", hd, " size mismatch");
        HDPM_REQUIRE(samples_[static_cast<std::size_t>(hd - 1)].size() == expected,
                     "sample row ", hd, " size mismatch");
    }
}

int EnhancedHdModel::num_clusters(int hd) const
{
    HDPM_REQUIRE(hd >= 1 && hd <= input_bits_, "Hd ", hd, " outside [1, ", input_bits_,
                 "]");
    const int levels = input_bits_ - hd + 1; // zeros ∈ [0, m−hd]
    if (zero_clusters_ == 0) {
        return levels;
    }
    return std::min(zero_clusters_, levels);
}

int EnhancedHdModel::cluster_of(int hd, int zeros) const
{
    const int levels = input_bits_ - hd + 1;
    HDPM_REQUIRE(zeros >= 0 && zeros < levels, "zeros ", zeros, " outside [0, ",
                 levels - 1, "] for Hd ", hd);
    const int clusters = num_clusters(hd);
    if (clusters == levels) {
        return zeros;
    }
    return std::min(clusters - 1, zeros * clusters / levels);
}

double EnhancedHdModel::coefficient(int hd, int zeros) const
{
    const int c = cluster_of(hd, zeros);
    if (samples_[static_cast<std::size_t>(hd - 1)][static_cast<std::size_t>(c)] == 0) {
        return fallback_.coefficient(hd);
    }
    return coefficients_[static_cast<std::size_t>(hd - 1)][static_cast<std::size_t>(c)];
}

double EnhancedHdModel::deviation(int hd, int zeros) const
{
    const int c = cluster_of(hd, zeros);
    if (samples_[static_cast<std::size_t>(hd - 1)][static_cast<std::size_t>(c)] == 0) {
        return fallback_.deviation(hd);
    }
    return deviations_[static_cast<std::size_t>(hd - 1)][static_cast<std::size_t>(c)];
}

std::size_t EnhancedHdModel::sample_count(int hd, int zeros) const
{
    const int c = cluster_of(hd, zeros);
    return samples_[static_cast<std::size_t>(hd - 1)][static_cast<std::size_t>(c)];
}

double EnhancedHdModel::average_deviation() const
{
    double sum = 0.0;
    std::size_t populated = 0;
    for (std::size_t row = 0; row < deviations_.size(); ++row) {
        for (std::size_t c = 0; c < deviations_[row].size(); ++c) {
            if (samples_[row][c] > 0) {
                sum += deviations_[row][c];
                ++populated;
            }
        }
    }
    return populated > 0 ? sum / static_cast<double>(populated) : 0.0;
}

std::size_t EnhancedHdModel::num_coefficients() const
{
    std::size_t total = 0;
    for (const auto& row : coefficients_) {
        total += row.size();
    }
    return total;
}

double EnhancedHdModel::estimate_cycle(int hd, int zeros) const
{
    if (hd == 0) {
        return 0.0;
    }
    return coefficient(hd, zeros);
}

std::vector<double> EnhancedHdModel::estimate_cycles(
    std::span<const BitVec> patterns) const
{
    HDPM_REQUIRE(patterns.size() >= 2, "need at least two patterns");
    // Width checks hoisted out of the classification loop (same message,
    // first offending index first).
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        HDPM_REQUIRE(patterns[j].width() == input_bits_, "pattern width ",
                     patterns[j].width(), " vs model m=", input_bits_);
    }
    std::vector<double> q;
    q.reserve(patterns.size() - 1);
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        const int hd = BitVec::hamming_distance(patterns[j - 1], patterns[j]);
        const int zeros = BitVec::stable_zeros(patterns[j - 1], patterns[j]);
        q.push_back(estimate_cycle(hd, zeros));
    }
    return q;
}

double EnhancedHdModel::estimate_average(std::span<const BitVec> patterns) const
{
    const std::vector<double> q = estimate_cycles(patterns);
    double total = 0.0;
    for (const double v : q) {
        total += v;
    }
    return total / static_cast<double>(q.size());
}

double EnhancedHdModel::estimate_from_distribution(
    std::span<const double> hd_distribution, std::span<const double> expected_zeros) const
{
    HDPM_REQUIRE(static_cast<int>(hd_distribution.size()) == input_bits_ + 1,
                 "distribution must have m+1 entries, got ", hd_distribution.size());
    HDPM_REQUIRE(expected_zeros.size() == hd_distribution.size(),
                 "expected_zeros must have m+1 entries, got ", expected_zeros.size());
    double q = 0.0;
    for (int i = 1; i <= input_bits_; ++i) {
        const double p = hd_distribution[static_cast<std::size_t>(i)];
        if (p == 0.0) {
            continue;
        }
        const int zeros = std::clamp(
            static_cast<int>(std::lround(expected_zeros[static_cast<std::size_t>(i)])), 0,
            input_bits_ - i);
        q += p * coefficient(i, zeros);
    }
    return q;
}

double EnhancedHdModel::estimate_from_histogram(
    const streams::HdClassHistogram& histogram) const
{
    HDPM_REQUIRE(histogram.width == input_bits_, "histogram width ", histogram.width,
                 " vs model m=", input_bits_);
    HDPM_REQUIRE(histogram.pairs > 0, "empty histogram");
    const auto stride = static_cast<std::size_t>(input_bits_) + 1;
    HDPM_REQUIRE(histogram.counts.size() == stride * stride,
                 "histogram must have (m+1)² entries, got ", histogram.counts.size());
    double total = 0.0;
    for (int hd = 1; hd <= input_bits_; ++hd) {
        for (int zeros = 0; zeros <= input_bits_ - hd; ++zeros) {
            const std::uint64_t n =
                histogram.counts[static_cast<std::size_t>(hd) * stride +
                                 static_cast<std::size_t>(zeros)];
            if (n != 0) {
                total += static_cast<double>(n) * coefficient(hd, zeros);
            }
        }
    }
    return total / static_cast<double>(histogram.pairs);
}

double EnhancedHdModel::estimate_trace(const streams::PackedTrace& trace,
                                       const streams::KernelOptions& options) const
{
    HDPM_REQUIRE(trace.width() == input_bits_, "trace width ", trace.width(),
                 " vs model m=", input_bits_);
    return estimate_from_histogram(streams::hd_class_histogram(trace, options));
}

void EnhancedHdModel::save(std::ostream& os) const
{
    const auto old_precision = os.precision(17); // lossless double round trip
    os << "enhanced_hdmodel 1\n";
    os << "m " << input_bits_ << " clusters " << zero_clusters_ << '\n';
    for (int hd = 1; hd <= input_bits_; ++hd) {
        const auto row = static_cast<std::size_t>(hd - 1);
        for (std::size_t c = 0; c < coefficients_[row].size(); ++c) {
            os << hd << ' ' << c << ' ' << coefficients_[row][c] << ' '
               << deviations_[row][c] << ' ' << samples_[row][c] << '\n';
        }
    }
    os << "fallback\n";
    fallback_.save(os);
    os << "end\n";
    os.precision(old_precision);
}

EnhancedHdModel EnhancedHdModel::load(std::istream& is)
{
    const std::string text = util::read_bounded(is);
    util::RecordReader lines{text};
    int version = 0;
    if (!lines.take("enhanced_hdmodel", version) || version != 1) {
        HDPM_FAIL("not a version-1 enhanced_hdmodel file");
    }
    int m = 0;
    int clusters = 0;
    if (!lines.take("m", m, util::Literal{"clusters"}, clusters) || m < 1) {
        HDPM_FAIL("malformed enhanced_hdmodel header");
    }

    // Row sizes are implied by (m, clusters), and the rows come in (hd,
    // cluster) order. The table grows as they are read, so a declared width
    // the bytes do not hold allocates nothing.
    std::vector<std::vector<double>> coeffs;
    std::vector<std::vector<double>> devs;
    std::vector<std::vector<std::size_t>> counts;
    for (int hd = 1; hd <= m; ++hd) {
        const int levels = m - hd + 1;
        const int row_clusters = clusters == 0 ? levels : std::min(clusters, levels);
        coeffs.emplace_back();
        devs.emplace_back();
        counts.emplace_back();
        for (int c = 0; c < row_clusters; ++c) {
            double p = 0.0;
            double eps = 0.0;
            std::size_t n = 0;
            if (!lines.take(std::to_string(hd), util::Literal{std::to_string(c)}, p, eps, n)) {
                HDPM_FAIL("malformed enhanced_hdmodel row (hd=", hd, ", cluster=", c, ")");
            }
            if (!std::isfinite(p) || !std::isfinite(eps)) {
                util::FaultContext context;
                context.component = "enhanced_hdmodel";
                context.bitwidth = m;
                context.detail = "non-finite coefficient in row (hd=" + std::to_string(hd) +
                                 ", cluster=" + std::to_string(c) + ")";
                throw util::FaultError{util::FaultKind::ModelFileCorrupt,
                                       std::move(context)};
            }
            coeffs.back().push_back(p);
            devs.back().push_back(eps);
            counts.back().push_back(n);
        }
    }

    if (!lines.take("fallback")) {
        HDPM_FAIL("enhanced_hdmodel file missing 'fallback'");
    }
    HdModel fallback = HdModel::parse(lines);
    if (fallback.input_bits() != m) {
        HDPM_FAIL("enhanced_hdmodel fallback has width ", fallback.input_bits(), ", not ", m);
    }
    if (!lines.take("end") || !lines.done()) {
        HDPM_FAIL("enhanced_hdmodel file missing 'end'");
    }
    return EnhancedHdModel{m,           clusters, std::move(coeffs), std::move(devs),
                           std::move(counts), std::move(fallback)};
}

} // namespace hdpm::core

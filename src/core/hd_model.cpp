#include "core/hd_model.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/interp.hpp"
#include "util/record_codec.hpp"

namespace hdpm::core {

using util::BitVec;

HdModel::HdModel(int input_bits, std::vector<double> coefficients,
                 std::vector<double> deviations, std::vector<std::size_t> sample_counts)
    : input_bits_(input_bits),
      coefficients_(std::move(coefficients)),
      deviations_(std::move(deviations)),
      samples_(std::move(sample_counts))
{
    HDPM_REQUIRE(input_bits_ >= 1, "model needs at least one input bit");
    HDPM_REQUIRE(static_cast<int>(coefficients_.size()) == input_bits_,
                 "expected ", input_bits_, " coefficients, got ", coefficients_.size());
    HDPM_REQUIRE(deviations_.empty() ||
                     deviations_.size() == coefficients_.size(),
                 "deviation vector size mismatch");
    HDPM_REQUIRE(samples_.empty() || samples_.size() == coefficients_.size(),
                 "sample count vector size mismatch");
}

double HdModel::coefficient(int hd) const
{
    HDPM_REQUIRE(hd >= 1 && hd <= input_bits_, "Hd ", hd, " outside [1, ", input_bits_,
                 "]");
    return coefficients_[static_cast<std::size_t>(hd - 1)];
}

double HdModel::deviation(int hd) const
{
    HDPM_REQUIRE(hd >= 1 && hd <= input_bits_, "Hd ", hd, " outside [1, ", input_bits_,
                 "]");
    return deviations_.empty() ? 0.0 : deviations_[static_cast<std::size_t>(hd - 1)];
}

std::size_t HdModel::sample_count(int hd) const
{
    HDPM_REQUIRE(hd >= 1 && hd <= input_bits_, "Hd ", hd, " outside [1, ", input_bits_,
                 "]");
    return samples_.empty() ? 0 : samples_[static_cast<std::size_t>(hd - 1)];
}

double HdModel::average_deviation() const
{
    if (deviations_.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    int populated = 0;
    for (std::size_t i = 0; i < deviations_.size(); ++i) {
        const bool has_samples = samples_.empty() || samples_[i] > 0;
        if (has_samples) {
            sum += deviations_[i];
            ++populated;
        }
    }
    return populated > 0 ? sum / populated : 0.0;
}

double HdModel::estimate_cycle(int hd) const
{
    if (hd == 0) {
        return 0.0;
    }
    return coefficient(hd);
}

std::vector<double> HdModel::estimate_cycles(std::span<const BitVec> patterns) const
{
    HDPM_REQUIRE(patterns.size() >= 2, "need at least two patterns");
    // Validate widths once up front; the classification loop then runs
    // check-free. The first offending pattern reports the same message the
    // old in-loop check produced.
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        HDPM_REQUIRE(patterns[j].width() == input_bits_, "pattern width ",
                     patterns[j].width(), " vs model m=", input_bits_);
    }
    std::vector<double> q;
    q.reserve(patterns.size() - 1);
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        const int hd = BitVec::hamming_distance(patterns[j - 1], patterns[j]);
        q.push_back(estimate_cycle(hd));
    }
    return q;
}

double HdModel::estimate_average(std::span<const BitVec> patterns) const
{
    const std::vector<double> q = estimate_cycles(patterns);
    double total = 0.0;
    for (const double v : q) {
        total += v;
    }
    return total / static_cast<double>(q.size());
}

double HdModel::estimate_from_distribution(std::span<const double> hd_distribution) const
{
    HDPM_REQUIRE(static_cast<int>(hd_distribution.size()) == input_bits_ + 1,
                 "distribution must have m+1 entries (Hd = 0..m), got ",
                 hd_distribution.size());
    double q = 0.0;
    for (int i = 1; i <= input_bits_; ++i) {
        q += hd_distribution[static_cast<std::size_t>(i)] * coefficient(i);
    }
    return q;
}

double HdModel::estimate_from_histogram(const streams::HdHistogram& histogram) const
{
    HDPM_REQUIRE(histogram.width == input_bits_, "histogram width ", histogram.width,
                 " vs model m=", input_bits_);
    HDPM_REQUIRE(histogram.pairs > 0, "empty histogram");
    HDPM_REQUIRE(histogram.counts.size() == static_cast<std::size_t>(input_bits_) + 1,
                 "histogram must have m+1 bins, got ", histogram.counts.size());
    double total = 0.0;
    for (int i = 1; i <= input_bits_; ++i) {
        const std::uint64_t n = histogram.counts[static_cast<std::size_t>(i)];
        if (n != 0) {
            total += static_cast<double>(n) * coefficients_[static_cast<std::size_t>(i - 1)];
        }
    }
    return total / static_cast<double>(histogram.pairs);
}

double HdModel::estimate_trace(const streams::PackedTrace& trace,
                               const streams::KernelOptions& options) const
{
    HDPM_REQUIRE(trace.width() == input_bits_, "trace width ", trace.width(),
                 " vs model m=", input_bits_);
    return estimate_from_histogram(streams::hd_histogram(trace, options));
}

double HdModel::estimate_from_average_hd(double hd_avg) const
{
    HDPM_REQUIRE(hd_avg >= 0.0, "negative average Hd");
    if (hd_avg <= 0.0) {
        return 0.0;
    }
    // Below Hd = 1, interpolate towards Q(0) = 0.
    if (hd_avg < 1.0) {
        return hd_avg * coefficients_.front();
    }
    return util::interp_on_unit_grid(coefficients_, hd_avg);
}

void HdModel::save(std::ostream& os) const
{
    const auto old_precision = os.precision(17); // lossless double round trip
    os << "hdmodel 1\n";
    os << "m " << input_bits_ << '\n';
    for (int i = 1; i <= input_bits_; ++i) {
        os << i << ' ' << coefficient(i) << ' ' << deviation(i) << ' ' << sample_count(i)
           << '\n';
    }
    os << "end\n";
    os.precision(old_precision);
}

HdModel HdModel::load(std::istream& is)
{
    const std::string text = util::read_bounded(is);
    util::RecordReader lines{text};
    HdModel model = parse(lines);
    if (!lines.done()) {
        HDPM_FAIL("trailing bytes after the hdmodel 'end' line");
    }
    return model;
}

HdModel HdModel::parse(util::RecordReader& lines)
{
    int version = 0;
    if (!lines.take("hdmodel", version) || version != 1) {
        HDPM_FAIL("not a version-1 hdmodel file");
    }
    int m = 0;
    if (!lines.take("m", m) || m < 1) {
        HDPM_FAIL("malformed hdmodel header");
    }
    // The rows grow as they are read, so a declared width the bytes do not
    // hold allocates nothing.
    std::vector<double> coeffs;
    std::vector<double> devs;
    std::vector<std::size_t> counts;
    for (int i = 1; i <= m; ++i) {
        double p = 0.0;
        double eps = 0.0;
        std::size_t n = 0;
        if (!lines.take(std::to_string(i), p, eps, n)) {
            HDPM_FAIL("malformed hdmodel row ", i);
        }
        if (!std::isfinite(p) || !std::isfinite(eps)) {
            // A syntactically valid row can still carry rot: a NaN/inf
            // coefficient would silently poison every later estimate.
            util::FaultContext context;
            context.component = "hdmodel";
            context.bitwidth = m;
            context.detail = "non-finite coefficient in row " + std::to_string(i);
            throw util::FaultError{util::FaultKind::ModelFileCorrupt,
                                   std::move(context)};
        }
        coeffs.push_back(p);
        devs.push_back(eps);
        counts.push_back(n);
    }
    if (!lines.take("end")) {
        HDPM_FAIL("hdmodel file missing 'end'");
    }
    return HdModel{m, std::move(coeffs), std::move(devs), std::move(counts)};
}

} // namespace hdpm::core

#include "core/bitwise_model.hpp"

#include <bit>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/error.hpp"
#include "util/linalg.hpp"
#include "util/record_codec.hpp"

namespace hdpm::core {

using util::BitVec;

BitwiseLinearModel::BitwiseLinearModel(double intercept, std::vector<double> weights)
    : intercept_(intercept), weights_(std::move(weights))
{
    HDPM_REQUIRE(!weights_.empty(), "model needs at least one input bit");
}

BitwiseLinearModel BitwiseLinearModel::fit(
    int input_bits, std::span<const CharacterizationRecord> records)
{
    HDPM_REQUIRE(input_bits >= 1 && input_bits <= 64, "bad input width");
    HDPM_REQUIRE(records.size() > static_cast<std::size_t>(input_bits),
                 "need more records (", records.size(), ") than parameters (",
                 input_bits + 1, ")");

    // Least squares over the (m+1)-column design [τ_0 .. τ_{m-1}, 1].
    const auto k = static_cast<std::size_t>(input_bits) + 1;
    util::Matrix design{records.size(), k};
    std::vector<double> rhs(records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
        for (int bit = 0; bit < input_bits; ++bit) {
            design.at(r, static_cast<std::size_t>(bit)) =
                static_cast<double>((records[r].toggle_mask >> bit) & 1U);
        }
        design.at(r, k - 1) = 1.0;
        rhs[r] = records[r].charge_fc;
    }
    std::vector<double> solution = util::least_squares(design, rhs);

    const double intercept = solution.back();
    solution.pop_back();
    return BitwiseLinearModel{intercept, std::move(solution)};
}

double BitwiseLinearModel::weight(int bit) const
{
    HDPM_REQUIRE(bit >= 0 && bit < input_bits(), "bit ", bit, " outside [0, ",
                 input_bits(), ")");
    return weights_[static_cast<std::size_t>(bit)];
}

double BitwiseLinearModel::estimate_cycle(std::uint64_t toggle_mask) const
{
    if (toggle_mask == 0) {
        return 0.0; // no event, no charge (matches the Hd-model convention)
    }
    double q = intercept_;
    std::uint64_t mask = toggle_mask;
    while (mask != 0) {
        const int bit = std::countr_zero(mask);
        if (bit >= input_bits()) {
            break;
        }
        q += weights_[static_cast<std::size_t>(bit)];
        mask &= mask - 1;
    }
    return q > 0.0 ? q : 0.0;
}

std::vector<double> BitwiseLinearModel::estimate_cycles(
    std::span<const BitVec> patterns) const
{
    HDPM_REQUIRE(patterns.size() >= 2, "need at least two patterns");
    // Width checks hoisted out of the per-cycle loop (same message, first
    // offending index first).
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        HDPM_REQUIRE(patterns[j].width() == input_bits(), "pattern width ",
                     patterns[j].width(), " vs model m=", input_bits());
    }
    std::vector<double> q;
    q.reserve(patterns.size() - 1);
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        q.push_back(estimate_cycle((patterns[j - 1] ^ patterns[j]).raw()));
    }
    return q;
}

double BitwiseLinearModel::estimate_average(std::span<const BitVec> patterns) const
{
    const std::vector<double> q = estimate_cycles(patterns);
    double total = 0.0;
    for (const double v : q) {
        total += v;
    }
    return total / static_cast<double>(q.size());
}

double BitwiseLinearModel::estimate_trace(const streams::PackedTrace& trace) const
{
    HDPM_REQUIRE(trace.width() == input_bits(), "trace width ", trace.width(),
                 " vs model m=", input_bits());
    HDPM_REQUIRE(trace.size() >= 2, "need at least two patterns");
    const std::span<const std::uint64_t> words = trace.words();
    const std::size_t stride = trace.words_per_sample();
    double total = 0.0;
    if (stride == 1) {
        for (std::size_t j = 1; j < words.size(); ++j) {
            total += estimate_cycle(words[j] ^ words[j - 1]);
        }
        return total / static_cast<double>(words.size() - 1);
    }
    // Multi-word walk: same event convention and same summation order as
    // estimate_cycle (intercept first, then weights in ascending global
    // bit order), so the stride-1 path and this one agree to the last ulp
    // on equal toggle sets. Bits above width() are zero in every sample,
    // so no per-bit range guard is needed.
    for (std::size_t j = 1; j < trace.size(); ++j) {
        const std::uint64_t* prev = words.data() + (j - 1) * stride;
        const std::uint64_t* cur = prev + stride;
        std::uint64_t any = 0;
        for (std::size_t k = 0; k < stride; ++k) {
            any |= prev[k] ^ cur[k];
        }
        if (any == 0) {
            continue; // no event, no charge (matches estimate_cycle)
        }
        double q = intercept_;
        for (std::size_t k = 0; k < stride; ++k) {
            std::uint64_t mask = prev[k] ^ cur[k];
            const std::size_t base = k * 64;
            while (mask != 0) {
                const int bit = std::countr_zero(mask);
                mask &= mask - 1;
                q += weights_[base + static_cast<std::size_t>(bit)];
            }
        }
        total += q > 0.0 ? q : 0.0;
    }
    return total / static_cast<double>(trace.size() - 1);
}

void BitwiseLinearModel::save(std::ostream& os) const
{
    const auto old_precision = os.precision(17);
    os << "bitwise_linear_model 1\n";
    os << "m " << input_bits() << " b0 " << intercept_ << '\n';
    for (int bit = 0; bit < input_bits(); ++bit) {
        os << bit << ' ' << weights_[static_cast<std::size_t>(bit)] << '\n';
    }
    os << "end\n";
    os.precision(old_precision);
}

BitwiseLinearModel BitwiseLinearModel::load(std::istream& is)
{
    const std::string text = util::read_bounded(is);
    util::RecordReader lines{text};
    int version = 0;
    if (!lines.take("bitwise_linear_model", version) || version != 1) {
        HDPM_FAIL("not a version-1 bitwise_linear_model file");
    }
    int m = 0;
    double intercept = 0.0;
    if (!lines.take("m", m, util::Literal{"b0"}, intercept) || !std::isfinite(intercept) ||
        m < 1) {
        HDPM_FAIL("malformed bitwise_linear_model header");
    }
    // The weights grow as they are read, so a declared width the bytes do
    // not hold allocates nothing.
    std::vector<double> weights;
    for (int bit = 0; bit < m; ++bit) {
        double w = 0.0;
        if (!lines.take(std::to_string(bit), w) || !std::isfinite(w)) {
            HDPM_FAIL("malformed bitwise_linear_model row ", bit);
        }
        weights.push_back(w);
    }
    if (!lines.take("end") || !lines.done()) {
        HDPM_FAIL("bitwise_linear_model file missing 'end'");
    }
    return BitwiseLinearModel{intercept, std::move(weights)};
}

} // namespace hdpm::core

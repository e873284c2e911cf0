#include "streams/bitstats.hpp"

#include <algorithm>

#include "streams/kernels.hpp"
#include "util/error.hpp"

namespace hdpm::streams {

using util::BitVec;

double BitStats::average_hd() const noexcept
{
    double sum = 0.0;
    for (const double t : transition_prob) {
        sum += t;
    }
    return sum;
}

BitStats measure_bit_stats(std::span<const BitVec> patterns)
{
    HDPM_REQUIRE(patterns.size() >= 2, "need at least two patterns");
    const int m = patterns.front().width();

    // Width check and word gather in one pass; the per-bit counting itself
    // runs word-parallel (CSA vertical counters) instead of `.get(i)` loops.
    std::vector<std::uint64_t> words;
    words.reserve(patterns.size());
    for (std::size_t j = 0; j < patterns.size(); ++j) {
        HDPM_REQUIRE(patterns[j].width() == m, "pattern width mismatch at index ", j);
        words.push_back(patterns[j].raw());
    }
    const PackedBitCounts counts = count_bits_words(words, m);

    BitStats stats;
    stats.pattern_count = patterns.size();
    stats.signal_prob.resize(static_cast<std::size_t>(m));
    stats.transition_prob.resize(static_cast<std::size_t>(m));
    const double n = static_cast<double>(patterns.size());
    const double pairs = static_cast<double>(patterns.size() - 1);
    for (int i = 0; i < m; ++i) {
        stats.signal_prob[static_cast<std::size_t>(i)] =
            static_cast<double>(counts.ones[static_cast<std::size_t>(i)]) / n;
        stats.transition_prob[static_cast<std::size_t>(i)] =
            static_cast<double>(counts.toggles[static_cast<std::size_t>(i)]) / pairs;
    }
    return stats;
}

BitStats measure_bit_stats(std::span<const std::int64_t> values, int width)
{
    const std::vector<BitVec> patterns = to_patterns(values, width);
    return measure_bit_stats(patterns);
}

std::vector<double> extract_hd_distribution(std::span<const BitVec> patterns)
{
    HDPM_REQUIRE(patterns.size() >= 2, "need at least two patterns");
    const int m = patterns.front().width();
    std::vector<double> dist(static_cast<std::size_t>(m) + 1, 0.0);
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        const int hd = BitVec::hamming_distance(patterns[j - 1], patterns[j]);
        dist[static_cast<std::size_t>(hd)] += 1.0;
    }
    const double pairs = static_cast<double>(patterns.size() - 1);
    for (double& p : dist) {
        p /= pairs;
    }
    return dist;
}

double extract_average_hd(std::span<const BitVec> patterns)
{
    HDPM_REQUIRE(patterns.size() >= 2, "need at least two patterns");
    std::uint64_t total = 0;
    for (std::size_t j = 1; j < patterns.size(); ++j) {
        total += static_cast<std::uint64_t>(
            BitVec::hamming_distance(patterns[j - 1], patterns[j]));
    }
    return static_cast<double>(total) / static_cast<double>(patterns.size() - 1);
}

std::vector<BitVec> to_patterns(std::span<const std::int64_t> values, int width)
{
    std::vector<BitVec> patterns;
    patterns.reserve(values.size());
    for (const std::int64_t v : values) {
        patterns.emplace_back(width, static_cast<std::uint64_t>(v));
    }
    return patterns;
}

std::vector<BitVec> to_patterns(std::span<const std::int64_t> values, int width,
                                NumberFormat format, std::size_t* clamped)
{
    if (clamped != nullptr) {
        *clamped = 0;
    }
    if (format == NumberFormat::TwosComplement) {
        return to_patterns(values, width);
    }
    HDPM_REQUIRE(width >= 2, "sign-magnitude needs at least two bits");
    const std::uint64_t max_mag = (std::uint64_t{1} << (width - 1)) - 1;
    std::vector<BitVec> patterns;
    patterns.reserve(values.size());
    for (const std::int64_t v : values) {
        // Magnitude in unsigned arithmetic: negating INT64_MIN as int64_t
        // would overflow, but its magnitude is representable as uint64_t.
        const std::uint64_t abs_v = v < 0 ? ~static_cast<std::uint64_t>(v) + 1
                                          : static_cast<std::uint64_t>(v);
        const std::uint64_t mag = std::min(abs_v, max_mag);
        if (mag != abs_v && clamped != nullptr) {
            ++*clamped;
        }
        BitVec pattern{width, mag};
        pattern.set(width - 1, v < 0);
        patterns.push_back(pattern);
    }
    return patterns;
}

std::int64_t decode_pattern(const BitVec& pattern, NumberFormat format)
{
    if (format == NumberFormat::TwosComplement) {
        return util::decode_twos_complement(pattern);
    }
    HDPM_REQUIRE(pattern.width() >= 2, "sign-magnitude needs at least two bits");
    const auto mag =
        static_cast<std::int64_t>(pattern.slice(0, pattern.width() - 1).raw());
    return pattern.get(pattern.width() - 1) ? -mag : mag;
}

} // namespace hdpm::streams

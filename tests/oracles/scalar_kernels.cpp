#include "oracles/scalar_kernels.hpp"

namespace hdpm::oracle {
namespace {

std::size_t stride_of(int width)
{
    return (static_cast<std::size_t>(width) + 63) / 64;
}

/// Bit @p i of the sample starting at @p sample.
std::uint64_t bit(const std::uint64_t* sample, int i)
{
    return (sample[i / 64] >> (i % 64)) & 1U;
}

} // namespace

streams::HdHistogram scalar_hd_histogram(std::span<const std::uint64_t> words, int width)
{
    const std::size_t stride = stride_of(width);
    const std::size_t n = words.size() / stride;
    streams::HdHistogram h;
    h.width = width;
    h.pairs = n - 1;
    h.counts.assign(static_cast<std::size_t>(width) + 1, 0);
    for (std::size_t j = 1; j < n; ++j) {
        const std::uint64_t* prev = words.data() + (j - 1) * stride;
        const std::uint64_t* cur = words.data() + j * stride;
        std::size_t hd = 0;
        for (int i = 0; i < width; ++i) {
            hd += bit(prev, i) ^ bit(cur, i);
        }
        ++h.counts[hd];
    }
    return h;
}

streams::HdClassHistogram scalar_hd_class_histogram(std::span<const std::uint64_t> words,
                                                    int width)
{
    const std::size_t stride = stride_of(width);
    const std::size_t n = words.size() / stride;
    const auto table = static_cast<std::size_t>(width) + 1;
    streams::HdClassHistogram h;
    h.width = width;
    h.pairs = n - 1;
    h.counts.assign(table * table, 0);
    for (std::size_t j = 1; j < n; ++j) {
        const std::uint64_t* prev = words.data() + (j - 1) * stride;
        const std::uint64_t* cur = words.data() + j * stride;
        std::size_t hd = 0;
        std::size_t zeros = 0;
        for (int i = 0; i < width; ++i) {
            hd += bit(prev, i) ^ bit(cur, i);
            zeros += (bit(prev, i) | bit(cur, i)) ^ 1U;
        }
        ++h.counts[hd * table + zeros];
    }
    return h;
}

streams::PackedBitCounts scalar_count_bits(std::span<const std::uint64_t> words, int width)
{
    const std::size_t stride = stride_of(width);
    const std::size_t n = words.size() / stride;
    const auto m = static_cast<std::size_t>(width);
    streams::PackedBitCounts c;
    c.width = width;
    c.samples = n;
    c.ones.assign(m, 0);
    c.toggles.assign(m, 0);
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t* cur = words.data() + j * stride;
        const std::uint64_t* prev = j > 0 ? cur - stride : nullptr;
        for (int i = 0; i < width; ++i) {
            c.ones[static_cast<std::size_t>(i)] += bit(cur, i);
            if (prev != nullptr) {
                c.toggles[static_cast<std::size_t>(i)] += bit(prev, i) ^ bit(cur, i);
            }
        }
    }
    return c;
}

} // namespace hdpm::oracle

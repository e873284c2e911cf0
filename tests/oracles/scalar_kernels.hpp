#pragma once

// Reference stream classifiers for differential tests of the word-parallel
// kernels in streams/kernels.hpp: the most naive classification possible,
// one bit at a time with shifts and masks — no popcounts, no vertical
// counters, no SIMD, no chunking. Inputs use the PackedTrace layout
// (sample-major, ceil(width/64) words per sample); results are the same
// integer structs the production kernels return.

#include <cstdint>
#include <span>

#include "streams/kernels.hpp"
#include "streams/packed_trace.hpp"

namespace hdpm::oracle {

[[nodiscard]] streams::HdHistogram scalar_hd_histogram(
    std::span<const std::uint64_t> words, int width);
[[nodiscard]] streams::HdClassHistogram scalar_hd_class_histogram(
    std::span<const std::uint64_t> words, int width);
[[nodiscard]] streams::PackedBitCounts scalar_count_bits(
    std::span<const std::uint64_t> words, int width);

[[nodiscard]] inline streams::HdHistogram scalar_hd_histogram(
    const streams::PackedTrace& trace)
{
    return scalar_hd_histogram(trace.words(), trace.width());
}
[[nodiscard]] inline streams::HdClassHistogram scalar_hd_class_histogram(
    const streams::PackedTrace& trace)
{
    return scalar_hd_class_histogram(trace.words(), trace.width());
}
[[nodiscard]] inline streams::PackedBitCounts scalar_count_bits(
    const streams::PackedTrace& trace)
{
    return scalar_count_bits(trace.words(), trace.width());
}

} // namespace hdpm::oracle

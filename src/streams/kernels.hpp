#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "streams/packed_trace.hpp"
#include "util/cpu.hpp"

namespace hdpm::streams {

/// Knobs shared by the classification kernels. The kernels process whole
/// samples as uint64 words (popcount, bit-sliced vertical counters),
/// dispatching to the widest SIMD tier the host supports (see util::cpu).
/// Every configuration produces bit-identical integer counts by
/// construction — for every width, thread count, chunk size and SIMD tier
/// — and the tests hold them to a per-bit reference walk.
struct KernelOptions {
    /// Worker threads for chunked classification; 0 = all hardware
    /// threads, 1 = run inline on the calling thread.
    unsigned threads = 1;

    /// Transitions per chunk when threading. Chunk boundaries overlap by
    /// one sample (pair j needs samples j−1 and j) and per-chunk integer
    /// histograms are merged in chunk order, so counts are bit-identical
    /// for any thread count and chunk size.
    std::size_t chunk = std::size_t{1} << 16;

    /// SIMD tier; nullopt defers to util::cpu::active() (runtime
    /// detection, the HDPM_SIMD environment variable, or
    /// util::cpu::force()). Requests above the host's capability are
    /// clamped.
    std::optional<util::cpu::SimdLevel> simd{};
};

/// Integer Hamming-distance histogram of consecutive samples:
/// counts[i] = |{j : Hd(w[j−1], w[j]) = i}|, i = 0..width.
struct HdHistogram {
    int width = 0;
    std::size_t pairs = 0;
    std::vector<std::uint64_t> counts;

    /// Σ i·counts[i] / pairs — the empirical average Hamming distance.
    [[nodiscard]] double average_hd() const noexcept;

    /// Normalized p(Hd = i) distribution (sums to 1).
    [[nodiscard]] std::vector<double> to_distribution() const;
};

/// Integer (Hd, stable-zero) class histogram — the enhanced model's event
/// classes E_{i,z}: count(hd, zeros) pairs with Hamming distance hd and
/// zeros bit positions that are 0 in both samples (zeros ∈ [0, width−hd]).
struct HdClassHistogram {
    int width = 0;
    std::size_t pairs = 0;
    /// Flattened [hd][zeros] table, stride width+1.
    std::vector<std::uint64_t> counts;

    [[nodiscard]] std::uint64_t count(int hd, int zeros) const;
};

/// Integer per-bit activity counts: ones[i] = cycles bit i is 1 over all
/// samples; toggles[i] = consecutive-sample pairs in which bit i flips.
struct PackedBitCounts {
    int width = 0;
    std::size_t samples = 0;
    std::vector<std::uint64_t> ones;
    std::vector<std::uint64_t> toggles;
};

/// Hd histogram of a packed trace (needs ≥ 2 samples).
[[nodiscard]] HdHistogram hd_histogram(const PackedTrace& trace,
                                       const KernelOptions& options = {});

/// (Hd, stable-zero) class histogram of a packed trace (needs ≥ 2 samples).
[[nodiscard]] HdClassHistogram hd_class_histogram(const PackedTrace& trace,
                                                  const KernelOptions& options = {});

/// Per-bit ones/toggle counts of a packed trace (needs ≥ 2 samples).
[[nodiscard]] PackedBitCounts count_bits(const PackedTrace& trace,
                                         const KernelOptions& options = {});

/// Single-threaded word-span kernels. @p words is sample-major with
/// ceil(width/64) words per sample (the PackedTrace layout), masked to
/// @p width; words.size() must be a multiple of that stride. These are the
/// building blocks the PackedTrace overloads chunk over; exposed for
/// callers that already hold raw words.
[[nodiscard]] HdHistogram hd_histogram_words(
    std::span<const std::uint64_t> words, int width,
    std::optional<util::cpu::SimdLevel> simd = {});
[[nodiscard]] HdClassHistogram hd_class_histogram_words(
    std::span<const std::uint64_t> words, int width,
    std::optional<util::cpu::SimdLevel> simd = {});
[[nodiscard]] PackedBitCounts count_bits_words(
    std::span<const std::uint64_t> words, int width,
    std::optional<util::cpu::SimdLevel> simd = {});

} // namespace hdpm::streams

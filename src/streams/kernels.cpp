#include "streams/kernels.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace hdpm::streams {

namespace {

/// Words per sample for a given total width (the PackedTrace stride).
constexpr std::size_t stride_for(int width) noexcept
{
    return (static_cast<std::size_t>(width) + 63) / 64;
}

/// Transitions per dispatch block: sized so the per-word popcount buffers
/// stay within a few KB (L1-resident) regardless of stride.
constexpr std::size_t kBlockWords = 4096;

constexpr std::size_t block_transitions(std::size_t stride) noexcept
{
    return std::max<std::size_t>(kBlockWords / stride, 1);
}

/// Range convention shared by all kernels: a chunk [begin, end) over the
/// sample index space owns the per-sample statistics of samples
/// begin..end−1 and the transitions (j−1, j) for j in [max(begin,1), end).
/// Adjacent chunks therefore overlap by one *read* (the predecessor
/// sample) but never by a counted event, so per-chunk integer histograms
/// merged in chunk order reproduce the single-pass counts bit-for-bit.

HdHistogram hd_histogram_range(std::span<const std::uint64_t> words, std::size_t begin,
                               std::size_t end, int width, util::cpu::SimdLevel level)
{
    HdHistogram h;
    h.width = width;
    const std::size_t first = std::max<std::size_t>(begin, 1);
    h.pairs = end - first;
    const auto bins = static_cast<std::size_t>(width) + 1;
    h.counts.assign(bins, 0);
    if (first >= end) {
        return h;
    }
    const std::size_t stride = stride_for(width);
    const std::uint64_t* w = words.data();

    if (stride == 1 && level == util::cpu::SimdLevel::Scalar) {
        // Single-word fast path: popcount over word XORs. Adjacent
        // transitions are paired and counted with ONE increment into a
        // bins×bins table — halving the read-modify-write traffic that
        // dominates a histogram loop — and two tables are interleaved so
        // consecutive equal pair-indices don't serialize on one counter's
        // store-to-load dependency. The fold at the end credits each
        // (r, c) cell to bin r and bin c; all counts stay integers, so the
        // result is identical to incrementing per transition.
        std::vector<std::uint64_t> pairs2(bins * bins * 2, 0);
        std::uint64_t* t0 = pairs2.data();
        std::uint64_t* t1 = t0 + bins * bins;
        std::size_t j = first;
        for (; j + 8 <= end; j += 8) {
            const auto a = static_cast<std::size_t>(std::popcount(w[j] ^ w[j - 1]));
            const auto b = static_cast<std::size_t>(std::popcount(w[j + 1] ^ w[j]));
            const auto c = static_cast<std::size_t>(std::popcount(w[j + 2] ^ w[j + 1]));
            const auto d = static_cast<std::size_t>(std::popcount(w[j + 3] ^ w[j + 2]));
            const auto e = static_cast<std::size_t>(std::popcount(w[j + 4] ^ w[j + 3]));
            const auto f = static_cast<std::size_t>(std::popcount(w[j + 5] ^ w[j + 4]));
            const auto g = static_cast<std::size_t>(std::popcount(w[j + 6] ^ w[j + 5]));
            const auto i = static_cast<std::size_t>(std::popcount(w[j + 7] ^ w[j + 6]));
            ++t0[a * bins + b];
            ++t1[c * bins + d];
            ++t0[e * bins + f];
            ++t1[g * bins + i];
        }
        for (; j < end; ++j) {
            ++h.counts[static_cast<std::size_t>(std::popcount(w[j] ^ w[j - 1]))];
        }
        for (std::size_t r = 0; r < bins; ++r) {
            for (std::size_t c = 0; c < bins; ++c) {
                const std::uint64_t cnt = t0[r * bins + c] + t1[r * bins + c];
                h.counts[r] += cnt;
                h.counts[c] += cnt;
            }
        }
        return h;
    }

    // Width-generic dispatched path: block the transition range so the
    // per-word popcount buffer stays L1-resident, let the selected SIMD
    // tier fill it, and bin on the way out. Eight interleaved sub-tables
    // keep the binning loop's read-modify-writes independent — a run of
    // equal distances (the common case on correlated streams) would
    // otherwise serialize on one counter's store-to-load forwarding; the
    // fold keeps everything integer-exact.
    const util::cpu::Kernels& prim = util::cpu::kernels(level);
    const std::size_t block = block_transitions(stride);
    std::vector<std::uint8_t> buf(block * stride);
    std::vector<std::uint64_t> sub(bins * 8, 0);
    std::size_t t = first;
    while (t < end) {
        const std::size_t cnt = std::min(block, end - t);
        prim.xor_popcnt(w + (t - 1) * stride, w + t * stride, cnt * stride,
                        buf.data());
        if (stride == 1) {
            std::size_t i = 0;
            for (; i + 8 <= cnt; i += 8) {
                ++sub[static_cast<std::size_t>(buf[i]) * 8];
                ++sub[static_cast<std::size_t>(buf[i + 1]) * 8 + 1];
                ++sub[static_cast<std::size_t>(buf[i + 2]) * 8 + 2];
                ++sub[static_cast<std::size_t>(buf[i + 3]) * 8 + 3];
                ++sub[static_cast<std::size_t>(buf[i + 4]) * 8 + 4];
                ++sub[static_cast<std::size_t>(buf[i + 5]) * 8 + 5];
                ++sub[static_cast<std::size_t>(buf[i + 6]) * 8 + 6];
                ++sub[static_cast<std::size_t>(buf[i + 7]) * 8 + 7];
            }
            for (; i < cnt; ++i) {
                ++sub[static_cast<std::size_t>(buf[i]) * 8];
            }
        } else {
            for (std::size_t i = 0; i < cnt; ++i) {
                const std::uint8_t* p = buf.data() + i * stride;
                std::size_t hd = 0;
                for (std::size_t k = 0; k < stride; ++k) {
                    hd += p[k];
                }
                ++sub[hd * 8 + (i & 7)];
            }
        }
        t += cnt;
    }
    for (std::size_t i = 0; i < bins; ++i) {
        for (std::size_t k = 0; k < 8; ++k) {
            h.counts[i] += sub[i * 8 + k];
        }
    }
    return h;
}

HdClassHistogram hd_class_histogram_range(std::span<const std::uint64_t> words,
                                          std::size_t begin, std::size_t end, int width,
                                          util::cpu::SimdLevel level)
{
    HdClassHistogram h;
    h.width = width;
    const std::size_t first = std::max<std::size_t>(begin, 1);
    h.pairs = end - first;
    const auto table = static_cast<std::size_t>(width) + 1;
    h.counts.assign(table * table, 0);
    if (first >= end) {
        return h;
    }
    const std::size_t stride = stride_for(width);
    const std::uint64_t* w = words.data();

    if (stride == 1 && level == util::cpu::SimdLevel::Scalar) {
        // Single-word fast path: two interleaved sub-tables (see the Hd
        // kernel) folded at the end.
        const std::uint64_t mask =
            width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
        std::vector<std::uint64_t> sub(table * table * 2, 0);
        std::uint64_t* s0 = sub.data();
        std::uint64_t* s1 = s0 + table * table;
        std::size_t j = first;
        for (; j + 2 <= end; j += 2) {
            const auto hd0 = static_cast<std::size_t>(std::popcount(w[j] ^ w[j - 1]));
            const auto z0 =
                static_cast<std::size_t>(std::popcount(~(w[j] | w[j - 1]) & mask));
            ++s0[hd0 * table + z0];
            const auto hd1 = static_cast<std::size_t>(std::popcount(w[j + 1] ^ w[j]));
            const auto z1 =
                static_cast<std::size_t>(std::popcount(~(w[j + 1] | w[j]) & mask));
            ++s1[hd1 * table + z1];
        }
        for (; j < end; ++j) {
            const auto hd = static_cast<std::size_t>(std::popcount(w[j] ^ w[j - 1]));
            const auto z =
                static_cast<std::size_t>(std::popcount(~(w[j] | w[j - 1]) & mask));
            ++s0[hd * table + z];
        }
        for (std::size_t i = 0; i < table * table; ++i) {
            h.counts[i] = s0[i] + s1[i];
        }
        return h;
    }

    // Width-generic dispatched path. The NOR popcounts are taken over full
    // 64-bit words; the bits above width in each sample's top word are
    // zero in both operands, so they inflate every transition's raw stable
    // zero count by the same constant slack = stride·64 − width, which is
    // subtracted instead of masking inside the primitives.
    const util::cpu::Kernels& prim = util::cpu::kernels(level);
    const std::size_t slack = stride * 64 - static_cast<std::size_t>(width);
    const std::size_t block = block_transitions(stride);
    std::vector<std::uint8_t> buf_x(block * stride);
    std::vector<std::uint8_t> buf_z(block * stride);
    std::size_t t = first;
    while (t < end) {
        const std::size_t cnt = std::min(block, end - t);
        prim.xor_nor_popcnt(w + (t - 1) * stride, w + t * stride, cnt * stride,
                            buf_x.data(), buf_z.data());
        for (std::size_t i = 0; i < cnt; ++i) {
            std::size_t hd = 0;
            std::size_t zraw = 0;
            for (std::size_t k = 0; k < stride; ++k) {
                hd += buf_x[i * stride + k];
                zraw += buf_z[i * stride + k];
            }
            ++h.counts[hd * table + (zraw - slack)];
        }
        t += cnt;
    }
    return h;
}

PackedBitCounts count_bits_range(std::span<const std::uint64_t> words, std::size_t begin,
                                 std::size_t end, int width, util::cpu::SimdLevel level)
{
    PackedBitCounts c;
    c.width = width;
    c.samples = end - begin;
    const auto m = static_cast<std::size_t>(width);
    c.ones.assign(m, 0);
    c.toggles.assign(m, 0);
    const std::size_t first = std::max<std::size_t>(begin, 1);
    const std::size_t stride = stride_for(width);
    const std::uint64_t* w = words.data();

    // CSA vertical counters (scalar or Harley–Seal AVX2 via the
    // dispatch table) accumulate per-position tallies with O(1) word-level
    // ops per sample instead of a width-long bit loop. Totals are laid out
    // word-major (k·64 + bit), which is exactly the global bit order.
    const util::cpu::Kernels& prim = util::cpu::kernels(level);
    std::vector<std::uint64_t> one_totals(stride * 64, 0);
    std::vector<std::uint64_t> toggle_totals(stride * 64, 0);
    prim.positional_ones(w + begin * stride, end - begin, stride, one_totals.data());
    if (first < end) {
        prim.positional_toggles(w + (first - 1) * stride, w + first * stride,
                                end - first, stride, toggle_totals.data());
    }
    for (std::size_t i = 0; i < m; ++i) {
        c.ones[i] = one_totals[i];
        c.toggles[i] = toggle_totals[i];
    }
    return c;
}

/// Split [0, n) into deterministic sample chunks, run @p fn per chunk on
/// the pool, and fold the per-chunk results in chunk order with @p merge.
/// The chunk layout depends only on (n, options.chunk) — never on the
/// thread count or SIMD tier — and all counts are integers, so the merged
/// result is bit-identical for any `threads`.
template <typename Result, typename RangeFn, typename MergeFn>
Result run_chunked(const PackedTrace& trace, const KernelOptions& options,
                   const RangeFn& fn, const MergeFn& merge)
{
    HDPM_REQUIRE(trace.size() >= 2, "need at least two samples");
    const std::size_t n = trace.size();
    const std::size_t chunk = std::max<std::size_t>(options.chunk, 2);
    if (options.threads == 1 || n <= chunk) {
        return fn(0, n);
    }
    const std::size_t chunks = (n + chunk - 1) / chunk;
    const util::ThreadPool pool{options.threads};
    std::vector<Result> parts = pool.parallel_map(chunks, [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        return fn(begin, end);
    });
    Result total = std::move(parts.front());
    for (std::size_t c = 1; c < parts.size(); ++c) {
        merge(total, parts[c]);
    }
    return total;
}

/// Resolve the per-call SIMD choice once, so every chunk of one
/// classification uses the same tier even if util::cpu::force() runs
/// concurrently.
util::cpu::SimdLevel resolve_level(const std::optional<util::cpu::SimdLevel>& simd)
{
    return simd.has_value() ? *simd : util::cpu::active();
}

} // namespace

double HdHistogram::average_hd() const noexcept
{
    if (pairs == 0) {
        return 0.0;
    }
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        total += static_cast<std::uint64_t>(i) * counts[i];
    }
    return static_cast<double>(total) / static_cast<double>(pairs);
}

std::vector<double> HdHistogram::to_distribution() const
{
    HDPM_REQUIRE(pairs > 0, "empty histogram");
    std::vector<double> dist(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        dist[i] = static_cast<double>(counts[i]) / static_cast<double>(pairs);
    }
    return dist;
}

std::uint64_t HdClassHistogram::count(int hd, int zeros) const
{
    HDPM_REQUIRE(hd >= 0 && hd <= width, "Hd ", hd, " outside [0, ", width, "]");
    HDPM_REQUIRE(zeros >= 0 && zeros <= width - hd, "zeros ", zeros, " outside [0, ",
                 width - hd, "] for Hd ", hd);
    const auto stride = static_cast<std::size_t>(width) + 1;
    return counts[static_cast<std::size_t>(hd) * stride + static_cast<std::size_t>(zeros)];
}

HdHistogram hd_histogram_words(std::span<const std::uint64_t> words, int width,
                               std::optional<util::cpu::SimdLevel> simd)
{
    const std::size_t stride = stride_for(width);
    HDPM_REQUIRE(words.size() % stride == 0, "word count ", words.size(),
                 " is not a multiple of the ", stride, "-word sample stride");
    const std::size_t n = words.size() / stride;
    HDPM_REQUIRE(n >= 2, "need at least two samples");
    return hd_histogram_range(words, 0, n, width, resolve_level(simd));
}

HdClassHistogram hd_class_histogram_words(std::span<const std::uint64_t> words,
                                          int width,
                                          std::optional<util::cpu::SimdLevel> simd)
{
    const std::size_t stride = stride_for(width);
    HDPM_REQUIRE(words.size() % stride == 0, "word count ", words.size(),
                 " is not a multiple of the ", stride, "-word sample stride");
    const std::size_t n = words.size() / stride;
    HDPM_REQUIRE(n >= 2, "need at least two samples");
    return hd_class_histogram_range(words, 0, n, width, resolve_level(simd));
}

PackedBitCounts count_bits_words(std::span<const std::uint64_t> words, int width,
                                 std::optional<util::cpu::SimdLevel> simd)
{
    const std::size_t stride = stride_for(width);
    HDPM_REQUIRE(words.size() % stride == 0, "word count ", words.size(),
                 " is not a multiple of the ", stride, "-word sample stride");
    const std::size_t n = words.size() / stride;
    HDPM_REQUIRE(n >= 2, "need at least two samples");
    return count_bits_range(words, 0, n, width, resolve_level(simd));
}

HdHistogram hd_histogram(const PackedTrace& trace, const KernelOptions& options)
{
    const util::cpu::SimdLevel level = resolve_level(options.simd);
    return run_chunked<HdHistogram>(
        trace, options,
        [&](std::size_t begin, std::size_t end) {
            return hd_histogram_range(trace.words(), begin, end, trace.width(), level);
        },
        [](HdHistogram& total, const HdHistogram& part) {
            total.pairs += part.pairs;
            for (std::size_t i = 0; i < total.counts.size(); ++i) {
                total.counts[i] += part.counts[i];
            }
        });
}

HdClassHistogram hd_class_histogram(const PackedTrace& trace,
                                    const KernelOptions& options)
{
    const util::cpu::SimdLevel level = resolve_level(options.simd);
    return run_chunked<HdClassHistogram>(
        trace, options,
        [&](std::size_t begin, std::size_t end) {
            return hd_class_histogram_range(trace.words(), begin, end, trace.width(), level);
        },
        [](HdClassHistogram& total, const HdClassHistogram& part) {
            total.pairs += part.pairs;
            for (std::size_t i = 0; i < total.counts.size(); ++i) {
                total.counts[i] += part.counts[i];
            }
        });
}

PackedBitCounts count_bits(const PackedTrace& trace, const KernelOptions& options)
{
    const util::cpu::SimdLevel level = resolve_level(options.simd);
    return run_chunked<PackedBitCounts>(
        trace, options,
        [&](std::size_t begin, std::size_t end) {
            return count_bits_range(trace.words(), begin, end, trace.width(), level);
        },
        [](PackedBitCounts& total, const PackedBitCounts& part) {
            total.samples += part.samples;
            for (std::size_t i = 0; i < total.ones.size(); ++i) {
                total.ones[i] += part.ones[i];
                total.toggles[i] += part.toggles[i];
            }
        });
}

} // namespace hdpm::streams

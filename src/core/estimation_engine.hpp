#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "core/bitwise_model.hpp"
#include "core/enhanced_model.hpp"
#include "core/hd_model.hpp"
#include "core/histogram_cache.hpp"
#include "streams/kernels.hpp"
#include "streams/packed_trace.hpp"

namespace hdpm::core {

/// Throughput counters of an engine's estimate calls since the last
/// reset_stats(). Cycles are counted per (model, trace) evaluation, so
/// evaluating 3 models against a 1M-cycle trace reports 3M cycles even
/// when the classification histogram was computed only once.
struct EstimateRunStats {
    std::size_t models = 0;          ///< (model, trace) evaluations served
    std::size_t cycles = 0;          ///< transitions evaluated across them
    std::size_t histograms_built = 0;///< classification passes actually run
    std::size_t cache_hits = 0;      ///< evaluations served from the cache
    double seconds = 0.0;            ///< wall time inside estimate calls

    /// Serving throughput in estimated cycles per second (0 if no time
    /// was measured).
    [[nodiscard]] double cycles_per_second() const noexcept
    {
        return seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
    }
};

/// A model reference an EstimationEngine can evaluate. Non-owning.
using AnyModel =
    std::variant<const HdModel*, const EnhancedHdModel*, const BitwiseLinearModel*>;

/// Batched trace-evaluation engine: evaluates models against packed traces,
/// computing each trace's classification histogram once and caching it in a
/// private HistogramCache (keyed by trace identity, trace geometry and
/// histogram kind) so that serving many models — or the same model
/// repeatedly — against one trace pays for classification once.
///
/// The kernels run with the engine's KernelOptions (packed/scalar, thread
/// count, chunking, SIMD tier); results are bit-identical across those
/// knobs, so the cache never keys on them. The cache holds at most
/// cache_capacity histograms (an Hd and a class histogram of one trace are
/// two) within cache_bytes; an Hd entry holds (width+1) bins but a class
/// entry holds (width+1)², and wide traces are charged accordingly. The
/// engine itself is not thread-safe: one engine per thread (the kernels
/// parallelize internally).
class EstimationEngine {
public:
    explicit EstimationEngine(streams::KernelOptions options = {},
                              std::size_t cache_capacity = 8,
                              std::size_t cache_bytes = std::size_t{64} << 20);

    [[nodiscard]] const streams::KernelOptions& options() const noexcept
    {
        return options_;
    }

    /// Replace the kernel options. The histogram cache stays valid (all
    /// kernel configurations produce identical integer histograms).
    void set_options(const streams::KernelOptions& options) noexcept
    {
        options_ = options;
    }

    /// Average charge per cycle of @p trace under each model kind. The Hd
    /// and enhanced models are served from cached histograms; the bitwise
    /// model evaluates per transition (its clamp is nonlinear — see
    /// BitwiseLinearModel::estimate_trace) and bypasses the cache.
    [[nodiscard]] double estimate(const HdModel& model,
                                  const streams::PackedTrace& trace);
    [[nodiscard]] double estimate(const EnhancedHdModel& model,
                                  const streams::PackedTrace& trace);
    [[nodiscard]] double estimate(const BitwiseLinearModel& model,
                                  const streams::PackedTrace& trace);

    /// Evaluate a batch of models against one trace; returns one average
    /// per model, in order.
    [[nodiscard]] std::vector<double> estimate_batch(std::span<const AnyModel> models,
                                                     const streams::PackedTrace& trace);

    /// The trace's Hd histogram, computed on first use and cached. The
    /// reference stays valid until the next call on this engine.
    [[nodiscard]] const streams::HdHistogram& hd_histogram(
        const streams::PackedTrace& trace);

    /// The trace's (Hd, stable-zero) class histogram, cached likewise.
    [[nodiscard]] const streams::HdClassHistogram& hd_class_histogram(
        const streams::PackedTrace& trace);

    [[nodiscard]] const EstimateRunStats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = {}; }

    /// Bytes of histogram bins currently held by the cache.
    [[nodiscard]] std::size_t cache_bytes_used() const { return cache_.bytes_used(); }

private:
    /// Kernel options with the chunk size rescaled so a chunk covers
    /// roughly the same number of *words* regardless of the trace's
    /// stride (wide samples get proportionally fewer samples per chunk).
    [[nodiscard]] streams::KernelOptions options_for(
        const streams::PackedTrace& trace) const noexcept;

    /// Tally a histogram lookup in stats_.
    void count(util::CacheOutcome outcome) noexcept;

    streams::KernelOptions options_;
    HistogramCache cache_;
    EstimateRunStats stats_;
};

} // namespace hdpm::core

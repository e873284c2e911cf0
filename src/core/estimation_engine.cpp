#include "core/estimation_engine.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"

namespace hdpm::core {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

EstimationEngine::EstimationEngine(streams::KernelOptions options,
                                   std::size_t cache_capacity,
                                   std::size_t cache_bytes)
    : options_(options), cache_(cache_capacity, cache_bytes)
{
}

streams::KernelOptions EstimationEngine::options_for(
    const streams::PackedTrace& trace) const noexcept
{
    streams::KernelOptions opts = options_;
    // Keep the words-per-chunk (and thus per-task cost) roughly constant
    // across strides. Chunk layout only affects work division, never the
    // counts, so this is purely a scheduling choice.
    opts.chunk = std::max<std::size_t>(options_.chunk / trace.words_per_sample(), 2);
    return opts;
}

void EstimationEngine::count(util::CacheOutcome outcome) noexcept
{
    if (outcome == util::CacheOutcome::Built) {
        ++stats_.histograms_built;
    } else {
        ++stats_.cache_hits;
    }
}

// The cache always keeps its most recently used entry, so the histogram
// behind each returned reference outlives the local shared_ptr until the
// next lookup on this (single-threaded) engine.

const streams::HdHistogram& EstimationEngine::hd_histogram(
    const streams::PackedTrace& trace)
{
    util::CacheOutcome outcome = util::CacheOutcome::Hit;
    const auto histogram = cache_.hd(trace, options_for(trace), &outcome);
    count(outcome);
    return *histogram;
}

const streams::HdClassHistogram& EstimationEngine::hd_class_histogram(
    const streams::PackedTrace& trace)
{
    util::CacheOutcome outcome = util::CacheOutcome::Hit;
    const auto histogram = cache_.hd_class(trace, options_for(trace), &outcome);
    count(outcome);
    return *histogram;
}

double EstimationEngine::estimate(const HdModel& model,
                                  const streams::PackedTrace& trace)
{
    HDPM_REQUIRE(trace.width() == model.input_bits(), "trace width ", trace.width(),
                 " vs model m=", model.input_bits());
    const auto start = Clock::now();
    const double q = model.estimate_from_histogram(hd_histogram(trace));
    stats_.seconds += elapsed_seconds(start);
    ++stats_.models;
    stats_.cycles += trace.cycles();
    return q;
}

double EstimationEngine::estimate(const EnhancedHdModel& model,
                                  const streams::PackedTrace& trace)
{
    HDPM_REQUIRE(trace.width() == model.input_bits(), "trace width ", trace.width(),
                 " vs model m=", model.input_bits());
    const auto start = Clock::now();
    const double q = model.estimate_from_histogram(hd_class_histogram(trace));
    stats_.seconds += elapsed_seconds(start);
    ++stats_.models;
    stats_.cycles += trace.cycles();
    return q;
}

double EstimationEngine::estimate(const BitwiseLinearModel& model,
                                  const streams::PackedTrace& trace)
{
    const auto start = Clock::now();
    const double q = model.estimate_trace(trace);
    stats_.seconds += elapsed_seconds(start);
    ++stats_.models;
    stats_.cycles += trace.cycles();
    return q;
}

std::vector<double> EstimationEngine::estimate_batch(std::span<const AnyModel> models,
                                                     const streams::PackedTrace& trace)
{
    std::vector<double> results;
    results.reserve(models.size());
    for (const AnyModel& model : models) {
        results.push_back(std::visit(
            [&](const auto* m) {
                HDPM_REQUIRE(m != nullptr, "null model in batch");
                return estimate(*m, trace);
            },
            model));
    }
    return results;
}

} // namespace hdpm::core

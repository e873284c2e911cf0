#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/characterize.hpp"
#include "core/estimation_engine.hpp"
#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "streams/packed_trace.hpp"

// Counting global allocator: every heap allocation in the process bumps one
// relaxed atomic. The replacements are deliberately minimal — they only
// exist so the tests below can assert that the pairs-mode characterization
// loop and warm estimation are allocation-free in steady state (perf
// invariants cheap to regress silently with one stray std::vector or list
// node).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
} // namespace

// noinline keeps compilers from pairing the malloc/free internals across
// call sites and warning about mismatched allocation functions.
#if defined(__GNUC__)
#define HDPM_ALLOC_NOINLINE __attribute__((noinline))
#else
#define HDPM_ALLOC_NOINLINE
#endif

HDPM_ALLOC_NOINLINE void* operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc{};
}

HDPM_ALLOC_NOINLINE void* operator new[](std::size_t size)
{
    return ::operator new(size);
}

HDPM_ALLOC_NOINLINE void* operator new(std::size_t size, std::align_val_t align)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) {
        return p;
    }
    throw std::bad_alloc{};
}

HDPM_ALLOC_NOINLINE void* operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

HDPM_ALLOC_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
HDPM_ALLOC_NOINLINE void operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
HDPM_ALLOC_NOINLINE void operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete(void* p, std::size_t,
                                         std::align_val_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}
HDPM_ALLOC_NOINLINE void operator delete[](void* p, std::size_t,
                                           std::align_val_t) noexcept
{
    std::free(p);
}

namespace hdpm::core {
namespace {

/// Allocations of one single-shard, single-thread pairs-mode collection of
/// @p n records: a native run, or an event sweep over @p corners when that
/// is not empty. One shard and threads=1 keep the measurement
/// deterministic; everything the shard loop touches (stimulus arenas, the
/// batched evaluator, each load class's event simulator with its wheel and
/// scratch) is sized once.
std::uint64_t allocations_for(const dp::DatapathModule& module, std::size_t n,
                              const std::vector<gate::Corner>& corners = {})
{
    CharacterizationOptions options;
    options.max_transitions = n;
    options.min_transitions = n;
    options.batch = n;
    options.shard_size = n;
    options.threads = 1;
    options.seed = 9;
    options.mode = StimulusMode::StratifiedPairs;
    options.corners = corners;

    const Characterizer characterizer;
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    std::vector<std::vector<CharacterizationRecord>> blocks;
    if (corners.empty()) {
        blocks.push_back(characterizer.collect_records(module, options));
    } else {
        blocks = characterizer.collect_records_corners(module, options);
    }
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(blocks.size(), std::max<std::size_t>(corners.size(), 1));
    for (const std::vector<CharacterizationRecord>& records : blocks) {
        EXPECT_EQ(records.size(), n);
    }
    return after - before;
}

TEST(SteadyAlloc, PairsCollectionDoesNotAllocatePerRecord)
{
    const dp::DatapathModule module =
        dp::make_module(dp::ModuleType::RippleAdder, std::array<int, 1>{4});

    // A native run, and a two-class event sweep whose load classes each
    // simulate on their own event simulator.
    const std::vector<std::vector<gate::Corner>> inputs = {
        {},
        {{3.3, 25.0, gate::LoadClass::Nominal}, {3.3, 25.0, gate::LoadClass::Heavy}}};
    for (const std::vector<gate::Corner>& corners : inputs) {
        const std::string label =
            corners.empty() ? "native run" : std::to_string(corners.size()) + "-corner sweep";
        // Warm up lazy one-time state (locale, gtest bookkeeping, allocator
        // pools) so both measured runs see identical surroundings.
        (void)allocations_for(module, 256, corners);

        const std::uint64_t small = allocations_for(module, 256, corners);
        const std::uint64_t large = allocations_for(module, 1024, corners);

        // Setup allocations (contexts, simulators, arenas, the result
        // reserves) are identical for both sizes; per-record allocation
        // would add at least 768 to the larger run. The slack absorbs only
        // logarithmic growth of any amortized container.
        EXPECT_LE(large, small + 64)
            << label << ": pairs-mode collection must not allocate per record (steady "
               "state): 256 records cost "
            << small << " allocations, 1024 cost " << large;
    }
}

TEST(SteadyAlloc, WarmEngineEstimateDoesNotAllocate)
{
    // Both histogram kinds of one trace are cached by the first two calls;
    // every later estimate is a cache hit plus a dot product. A hit that
    // allocated (an LRU node per refresh, say) would cost 20000 here.
    constexpr int kWidth = 8;
    std::vector<std::int64_t> values(512);
    for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] = static_cast<std::int64_t>((i * 37) % 256) - 128;
    }
    const streams::PackedTrace trace = streams::PackedTrace::from_values(values, kWidth);
    const HdModel basic{kWidth, std::vector<double>(kWidth, 2.0)};
    std::vector<std::vector<double>> coefficients;
    std::vector<std::vector<double>> deviations;
    std::vector<std::vector<std::size_t>> samples;
    for (int hd = 1; hd <= kWidth; ++hd) {
        const auto levels = static_cast<std::size_t>(kWidth - hd + 1);
        coefficients.emplace_back(levels, 1.0 + hd);
        deviations.emplace_back(levels, 0.0);
        samples.emplace_back(levels, 1);
    }
    const EnhancedHdModel enhanced{kWidth, 0, std::move(coefficients),
                                   std::move(deviations), std::move(samples), basic};

    EstimationEngine engine;
    double sum = engine.estimate(basic, trace) + engine.estimate(enhanced, trace);
    ASSERT_EQ(engine.stats().histograms_built, 2U);

    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        sum += engine.estimate(basic, trace);
        sum += engine.estimate(enhanced, trace);
    }
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0U) << "warm estimates must not allocate";
    EXPECT_EQ(engine.stats().histograms_built, 2U);
    EXPECT_EQ(engine.stats().cache_hits, 20000U);
    EXPECT_GT(sum, 0.0);
}

} // namespace
} // namespace hdpm::core

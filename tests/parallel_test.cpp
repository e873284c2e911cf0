#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/characterize.hpp"
#include "dpgen/module.hpp"
#include "util/parallel.hpp"

namespace hdpm {
namespace {

TEST(SplitMix64, MatchesReferenceSequence)
{
    // Reference values of Steele/Lea/Flood splitmix64 for seed state 1, 2.
    EXPECT_EQ(util::splitmix64(0), 0xe220a8397b1dcdafULL);
    EXPECT_NE(util::splitmix64(1), util::splitmix64(2));
    // Stateless: same input, same output.
    EXPECT_EQ(util::splitmix64(42), util::splitmix64(42));
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    const util::ThreadPool pool{4};
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    const util::ThreadPool pool{1};
    EXPECT_EQ(pool.size(), 1U);
    std::size_t sum = 0; // deliberately unsynchronized: must run inline
    pool.parallel_for(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 4950U);
}

TEST(ThreadPool, ParallelMapPreservesOrdering)
{
    const util::ThreadPool pool{4};
    const std::vector<int> squares =
        pool.parallel_map(64, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(squares.size(), 64U);
    for (std::size_t i = 0; i < squares.size(); ++i) {
        EXPECT_EQ(squares[i], static_cast<int>(i * i));
    }
}

TEST(ThreadPool, PropagatesLowestIndexException)
{
    const util::ThreadPool pool{4};
    try {
        pool.parallel_for(100, [](std::size_t i) {
            if (i == 17 || i == 63) {
                throw std::runtime_error("boom " + std::to_string(i));
            }
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "boom 17");
    }
}

TEST(ThreadPool, ZeroItemsIsANoOp)
{
    const util::ThreadPool pool{4};
    bool called = false;
    pool.parallel_for(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(OrderedStream, ConsumesInIndexOrderOnTheCallingThread)
{
    const util::ThreadPool pool{4};
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> seen;
    bool off_thread = false;
    pool.for_each_ordered(
        200, 8,
        [](std::size_t i) {
            // Uneven work, so completion order differs from index order.
            std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 200));
            return i * i;
        },
        [&](std::size_t i, std::size_t& square) {
            off_thread = off_thread || std::this_thread::get_id() != caller;
            EXPECT_EQ(square, i * i);
            seen.push_back(i);
            return true;
        });
    EXPECT_FALSE(off_thread);
    std::vector<std::size_t> expected(200);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(seen, expected);
}

TEST(OrderedStream, EarlyStopClaimsNothingBeyondTheWindow)
{
    const util::ThreadPool pool{4};
    constexpr std::size_t kWindow = 6;
    constexpr std::size_t kStop = 20;
    std::atomic<std::size_t> max_claimed{0};
    std::atomic<std::size_t> produced{0};
    std::size_t consumed = 0;
    pool.for_each_ordered(
        1000, kWindow,
        [&](std::size_t i) {
            std::size_t seen = max_claimed.load();
            while (i > seen && !max_claimed.compare_exchange_weak(seen, i)) {
            }
            produced.fetch_add(1);
            return i;
        },
        [&](std::size_t i, std::size_t&) {
            ++consumed;
            return i < kStop;
        });
    EXPECT_EQ(consumed, kStop + 1);
    // consume(kStop) returned false with the cursor at kStop: no claim may
    // reach kStop + window.
    EXPECT_LT(max_claimed.load(), kStop + kWindow);
    EXPECT_LE(produced.load(), kStop + kWindow); // indices 0..kStop + kWindow - 1
}

TEST(OrderedStream, RethrowsLowestIndexExceptionAfterJoin)
{
    const util::ThreadPool pool{4};
    std::atomic<int> running{0};
    std::vector<std::size_t> consumed;
    try {
        pool.for_each_ordered(
            100, 8,
            [&](std::size_t i) {
                running.fetch_add(1);
                // Index 13 fails late, 11 fails early: 11 must win.
                std::this_thread::sleep_for(std::chrono::milliseconds(i == 11 ? 5 : 1));
                running.fetch_sub(1);
                if (i == 11 || i == 13) {
                    throw std::runtime_error("boom " + std::to_string(i));
                }
                return i;
            },
            [&](std::size_t i, std::size_t&) {
                consumed.push_back(i);
                return true;
            });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "boom 11");
    }
    EXPECT_EQ(running.load(), 0); // every worker finished before the rethrow
    std::vector<std::size_t> expected(11);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(consumed, expected); // every index below the failure consumed
}

TEST(OrderedStream, ConsumeExceptionStopsClaimsAndRethrows)
{
    const util::ThreadPool pool{4};
    std::atomic<std::size_t> produced{0};
    EXPECT_THROW(pool.for_each_ordered(
                     1000, 8,
                     [&](std::size_t i) {
                         produced.fetch_add(1);
                         return i;
                     },
                     [](std::size_t i, std::size_t&) {
                         if (i == 5) {
                             throw std::logic_error("stop");
                         }
                         return true;
                     }),
                 std::logic_error);
    EXPECT_LE(produced.load(), 5U + 8U); // indices 0..12 at most
}

TEST(OrderedStream, SingleThreadRunsInline)
{
    const util::ThreadPool pool{1};
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> trace; // deliberately unsynchronized
    pool.for_each_ordered(
        5, 4,
        [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            trace.push_back(i);
            return i;
        },
        [&](std::size_t i, std::size_t&) {
            trace.push_back(100 + i);
            return true;
        });
    // Strict alternation: nothing is produced ahead of its consume.
    EXPECT_EQ(trace, (std::vector<std::size_t>{0, 100, 1, 101, 2, 102, 3, 103, 4, 104}));
}

TEST(OrderedStream, NeverMoreThanWindowResultsPending)
{
    for (const std::size_t window : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        const util::ThreadPool pool{4};
        std::atomic<std::size_t> pending{0};
        std::atomic<std::size_t> peak{0};
        pool.for_each_ordered(
            300, window,
            [&](std::size_t i) {
                const std::size_t now = pending.fetch_add(1) + 1;
                std::size_t seen = peak.load();
                while (now > seen && !peak.compare_exchange_weak(seen, now)) {
                }
                return i;
            },
            [&](std::size_t, std::size_t&) {
                // A slow consumer: workers run into the window limit.
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                pending.fetch_sub(1);
                return true;
            });
        EXPECT_LE(peak.load(), window) << "window " << window;
        EXPECT_EQ(pending.load(), 0U) << "window " << window;
    }
}

TEST(OrderedStream, RunsOnAtMostPoolSizeThreads)
{
    // The calling thread is one of the producers: a stream never puts more
    // than size() threads to work, consumer included.
    const util::ThreadPool pool{3};
    const std::thread::id caller = std::this_thread::get_id();
    std::mutex mutex;
    std::set<std::thread::id> producers;
    pool.for_each_ordered(
        200, 6,
        [&](std::size_t i) {
            // Slow producers: the calling thread finds the next result
            // still in flight and produces in the meantime.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            const std::lock_guard<std::mutex> lock{mutex};
            producers.insert(std::this_thread::get_id());
            return i;
        },
        [](std::size_t, std::size_t&) { return true; });
    EXPECT_LE(producers.size(), pool.size());
    EXPECT_EQ(producers.count(caller), 1U);
}

TEST(OrderedStream, ZeroItemsIsANoOp)
{
    const util::ThreadPool pool{4};
    bool called = false;
    pool.for_each_ordered(
        0, 4,
        [&](std::size_t i) {
            called = true;
            return i;
        },
        [&](std::size_t, std::size_t&) {
            called = true;
            return true;
        });
    EXPECT_FALSE(called);
}

/// The tentpole guarantee: the sharded characterization engine produces
/// bit-identical records — and therefore bit-identical coefficients — for
/// every thread count.
class ShardedDeterminismTest : public ::testing::Test {
protected:
    static core::CharacterizationOptions base_options()
    {
        core::CharacterizationOptions options;
        options.max_transitions = 4000;
        options.min_transitions = 4000;
        options.batch = 1000;
        options.shard_size = 500;
        options.seed = 99;
        return options;
    }
};

TEST_F(ShardedDeterminismTest, RecordsIdenticalAcrossThreadCounts)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 8);
    const core::Characterizer characterizer;

    core::CharacterizationOptions options = base_options();
    options.threads = 1;
    const auto serial = characterizer.collect_records(module, options);
    options.threads = 4;
    const auto parallel = characterizer.collect_records(module, options);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].hd, serial[i].hd) << "record " << i;
        EXPECT_EQ(parallel[i].stable_zeros, serial[i].stable_zeros) << "record " << i;
        EXPECT_EQ(parallel[i].toggle_mask, serial[i].toggle_mask) << "record " << i;
        // Exact equality on purpose: shards are merged in shard order, so
        // the summed charges see the same operand order on every run.
        EXPECT_EQ(parallel[i].charge_fc, serial[i].charge_fc) << "record " << i;
    }
}

TEST_F(ShardedDeterminismTest, FittedModelIdenticalAcrossThreadCounts)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 8);
    const core::Characterizer characterizer;

    core::CharacterizationOptions options = base_options();
    options.threads = 1;
    const core::HdModel serial = characterizer.characterize(module, options);
    options.threads = 4;
    const core::HdModel parallel = characterizer.characterize(module, options);

    ASSERT_EQ(parallel.input_bits(), serial.input_bits());
    for (int hd = 1; hd <= serial.input_bits(); ++hd) {
        EXPECT_EQ(parallel.coefficient(hd), serial.coefficient(hd)) << "p_" << hd;
        EXPECT_EQ(parallel.deviation(hd), serial.deviation(hd)) << "eps_" << hd;
        EXPECT_EQ(parallel.sample_count(hd), serial.sample_count(hd)) << "n_" << hd;
    }
}

TEST_F(ShardedDeterminismTest, ConvergenceStopIsThreadCountInvariant)
{
    // With a loose tolerance the run stops early; the stop point is decided
    // on the merged deterministic stream, so it must not move with threads.
    // At 4 threads, shards past the stop are in flight when it is reached
    // and are abandoned unmerged: neither the records nor the stats may
    // show them.
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 6);
    const core::Characterizer characterizer;

    for (const core::CharBackend backend :
         {core::CharBackend::EventKernel, core::CharBackend::PowerEmulation}) {
        SCOPED_TRACE(core::char_backend_name(backend));
        core::CharacterizationOptions options = base_options();
        options.max_transitions = 8000;
        options.min_transitions = 1000;
        options.tolerance = 0.05;
        options.backend = backend;

        options.threads = 1;
        core::CharRunStats serial_stats;
        options.stats = &serial_stats;
        const auto serial = characterizer.collect_records(module, options);
        ASSERT_LT(serial.size(), options.max_transitions); // stopped early

        options.threads = 4;
        core::CharRunStats parallel_stats;
        options.stats = &parallel_stats;
        const auto parallel = characterizer.collect_records(module, options);

        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].toggle_mask, serial[i].toggle_mask) << "record " << i;
            EXPECT_EQ(parallel[i].charge_fc, serial[i].charge_fc) << "record " << i;
        }
        EXPECT_EQ(parallel_stats.records, serial_stats.records);
        EXPECT_EQ(parallel_stats.shards, serial_stats.shards);
        EXPECT_EQ(parallel_stats.sim_transitions, serial_stats.sim_transitions);
        EXPECT_EQ(parallel_stats.sim_events, serial_stats.sim_events);
        EXPECT_EQ(parallel_stats.emulated_pairs, serial_stats.emulated_pairs);
        EXPECT_EQ(parallel_stats.emulation_passes, serial_stats.emulation_passes);
    }
}

TEST_F(ShardedDeterminismTest, ProgressReportsMergedShardsInOrder)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 4);
    const core::Characterizer characterizer;

    core::CharacterizationOptions options = base_options();
    options.threads = 4;
    std::vector<core::CharProgress> events;
    options.progress = [&](const core::CharProgress& p) { events.push_back(p); };
    const auto records = characterizer.collect_records(module, options);

    ASSERT_FALSE(events.empty());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].shards_merged, i + 1);
        EXPECT_EQ(events[i].max_records, options.max_transitions);
        if (i > 0) {
            EXPECT_GE(events[i].records, events[i - 1].records);
        }
    }
    EXPECT_EQ(events.back().records, records.size());
}

} // namespace
} // namespace hdpm

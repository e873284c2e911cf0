/// Tests of util::SingleFlightLru, the cache under core::HistogramCache and
/// serve::ModelCache: single-flight builds under concurrency, failure
/// propagation and retry, LRU order, and the entry-cap and byte-budget
/// bounds with their two exemptions (in-flight entries and the most
/// recently used ready entry).

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/single_flight_lru.hpp"

using namespace hdpm;
using util::CacheOutcome;

namespace {

using Cache = util::SingleFlightLru<int, int>;

/// Charges an entry its own value in bytes.
std::size_t value_bytes(const int& value)
{
    return static_cast<std::size_t>(value);
}

/// Spin until @p done holds (the waits below are for other threads to
/// reach a known point; each is bounded by the test's own progress).
template <typename Pred>
void wait_until(Pred done)
{
    while (!done()) {
        std::this_thread::sleep_for(std::chrono::microseconds{100});
    }
}

/// A build of one key parked in another thread until open() is called, so
/// a test can act on the cache while that entry is in flight.
class ParkedBuild {
public:
    ParkedBuild(Cache& cache, int key, int value)
    {
        std::future<void> running = started_.get_future();
        thread_ = std::thread([this, &cache, key, value] {
            result_ = cache.get(key, [&] {
                started_.set_value();
                gate_.get_future().wait();
                return value;
            });
        });
        running.wait();
    }

    ~ParkedBuild()
    {
        if (thread_.joinable()) {
            open();
        }
    }

    /// Let the build finish; returns its lookup.
    Cache::Lookup open()
    {
        gate_.set_value();
        thread_.join();
        return result_;
    }

private:
    std::promise<void> started_;
    std::promise<void> gate_;
    Cache::Lookup result_;
    std::thread thread_;
};

} // namespace

TEST(SingleFlightLru, ConcurrentColdKeyBuildsExactlyOnce)
{
    Cache cache{8};
    constexpr int kThreads = 8;
    std::atomic<int> builds{0};
    std::atomic<bool> go{false};
    std::vector<Cache::Lookup> lookups(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            wait_until([&] { return go.load(); });
            lookups[static_cast<std::size_t>(t)] = cache.get(7, [&] {
                builds.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds{20});
                return 42;
            });
        });
    }
    go.store(true);
    for (std::thread& thread : threads) {
        thread.join();
    }

    EXPECT_EQ(builds.load(), 1);
    int built = 0;
    for (const Cache::Lookup& lookup : lookups) {
        built += lookup.outcome == CacheOutcome::Built ? 1 : 0;
        EXPECT_EQ(lookup.value, lookups[0].value); // one shared value
        EXPECT_EQ(*lookup.value, 42);
    }
    EXPECT_EQ(built, 1);
    EXPECT_EQ(cache.built(), 1U);
    EXPECT_EQ(cache.hits() + cache.coalesced(), static_cast<std::uint64_t>(kThreads - 1));
}

TEST(SingleFlightLru, WaiterOnAnInFlightKeyCoalesces)
{
    Cache cache{8};
    ParkedBuild leader{cache, 1, 10};
    std::future<Cache::Lookup> waiter = std::async(std::launch::async, [&] {
        return cache.get(1, [] {
            ADD_FAILURE() << "a waiter must not build";
            return 0;
        });
    });
    wait_until([&] { return cache.coalesced() == 1; });
    const Cache::Lookup built = leader.open();
    const Cache::Lookup coalesced = waiter.get();
    EXPECT_EQ(built.outcome, CacheOutcome::Built);
    EXPECT_EQ(coalesced.outcome, CacheOutcome::Coalesced);
    EXPECT_EQ(coalesced.value, built.value);
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit);
}

TEST(SingleFlightLru, FailedBuildReachesEveryWaiterAndReleasesTheKey)
{
    Cache cache{8};
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::atomic<bool> building{false};
    std::thread leader([&] {
        EXPECT_THROW((void)cache.get(1,
                                     [&]() -> int {
                                         building.store(true);
                                         opened.wait();
                                         throw std::runtime_error("build failed");
                                     }),
                     std::runtime_error);
    });
    wait_until([&] { return building.load(); });

    constexpr int kWaiters = 3;
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
        waiters.emplace_back([&] {
            EXPECT_THROW((void)cache.get(1,
                                         [] {
                                             ADD_FAILURE() << "a waiter must not build";
                                             return 0;
                                         }),
                         std::runtime_error);
        });
    }
    wait_until([&] { return cache.coalesced() == kWaiters; });
    gate.set_value();
    leader.join();
    for (std::thread& waiter : waiters) {
        waiter.join();
    }
    EXPECT_EQ(cache.built(), 0U);
    EXPECT_EQ(cache.size(), 0U);

    // The key was released: the next caller builds afresh.
    const Cache::Lookup retry = cache.get(1, [] { return 5; });
    EXPECT_EQ(retry.outcome, CacheOutcome::Built);
    EXPECT_EQ(*retry.value, 5);
    EXPECT_EQ(cache.built(), 1U);
}

TEST(SingleFlightLru, InFlightEntrySurvivesEntryCapPressure)
{
    Cache cache{1};
    ParkedBuild parked{cache, 1, 10};
    EXPECT_EQ(cache.get(2, [] { return 20; }).outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.get(3, [] { return 30; }).outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.evictions(), 1U); // 2 went; the in-flight 1 was exempt
    EXPECT_EQ(cache.size(), 1U);

    const Cache::Lookup built = parked.open();
    EXPECT_EQ(built.outcome, CacheOutcome::Built);
    EXPECT_EQ(*built.value, 10);
    EXPECT_EQ(cache.evictions(), 2U); // publishing 1 pushed out 3
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit);
}

TEST(SingleFlightLru, InFlightEntrySurvivesByteBudgetPressure)
{
    Cache cache{8, 100, &value_bytes};
    ParkedBuild parked{cache, 1, 90};
    EXPECT_EQ(cache.get(2, [] { return 60; }).outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.get(3, [] { return 60; }).outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.evictions(), 1U); // 120 bytes > 100: 2 went, 1 was exempt
    EXPECT_EQ(cache.bytes_used(), 60U);

    EXPECT_EQ(*parked.open().value, 90);
    EXPECT_EQ(cache.bytes_used(), 90U); // 150 bytes > 100: 3 went, not 1
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit);
    EXPECT_EQ(cache.get(3, [] { return 60; }).outcome, CacheOutcome::Built);
}

TEST(SingleFlightLru, OversizeMostRecentlyUsedEntryIsKept)
{
    Cache cache{8, 10, &value_bytes};
    EXPECT_EQ(cache.get(1, [] { return 100; }).outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.bytes_used(), 100U); // over budget, but the sole entry
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit);

    // A second oversize entry evicts the first and is itself kept.
    EXPECT_EQ(cache.get(2, [] { return 50; }).outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.size(), 1U);
    EXPECT_EQ(cache.bytes_used(), 50U);
    EXPECT_EQ(cache.get(2, [] { return 0; }).outcome, CacheOutcome::Hit);
    EXPECT_EQ(cache.get(1, [] { return 100; }).outcome, CacheOutcome::Built);
}

TEST(SingleFlightLru, EraseIfSkipsInFlightEntries)
{
    Cache cache{8, 1000, &value_bytes};
    ParkedBuild parked{cache, 1, 10};
    (void)cache.get(2, [] { return 20; });
    (void)cache.get(3, [] { return 30; });
    EXPECT_EQ(cache.erase_if([](int key) { return key != 3; }), 1U); // 2 only
    EXPECT_EQ(cache.bytes_used(), 30U);
    EXPECT_EQ(cache.erase_if([](int) { return true; }), 1U); // 3; 1 in flight
    EXPECT_EQ(cache.size(), 0U);

    EXPECT_EQ(parked.open().outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit);
    EXPECT_EQ(cache.bytes_used(), 10U);
    EXPECT_EQ(cache.evictions(), 0U); // erasure is not eviction
}

TEST(SingleFlightLru, HitsRefreshLruOrder)
{
    Cache cache{3};
    for (int key = 1; key <= 3; ++key) {
        (void)cache.get(key, [key] { return key; });
    }
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit); // 1 3 2
    (void)cache.get(4, [] { return 4; });                                  // 4 1 3; 2 out
    EXPECT_EQ(cache.evictions(), 1U);
    EXPECT_EQ(cache.get(3, [] { return 0; }).outcome, CacheOutcome::Hit); // 3 4 1
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit); // 1 3 4
    EXPECT_EQ(cache.get(4, [] { return 0; }).outcome, CacheOutcome::Hit); // 4 1 3
    EXPECT_EQ(cache.get(2, [] { return 2; }).outcome, CacheOutcome::Built); // 3 out
    EXPECT_EQ(cache.get(1, [] { return 0; }).outcome, CacheOutcome::Hit);
    EXPECT_EQ(cache.get(3, [] { return 3; }).outcome, CacheOutcome::Built);
    EXPECT_EQ(cache.hits(), 5U);
    EXPECT_EQ(cache.built(), 6U);
    EXPECT_EQ(cache.evictions(), 3U);
}

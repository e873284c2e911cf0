#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

namespace hdpm::util {

std::uint64_t splitmix64(std::uint64_t x) noexcept
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

ThreadPool::ThreadPool(unsigned threads) : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
    }
    if (threads_ == 0) {
        threads_ = 1; // hardware_concurrency may be unknown
    }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) const
{
    if (n == 0) {
        return;
    }
    const auto workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::size_t first_error_index = std::numeric_limits<std::size_t>::max();

    auto body = [&]() noexcept {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed)) {
                return;
            }
            try {
                fn(i);
            } catch (...) {
                failed.store(true, std::memory_order_relaxed);
                const std::lock_guard<std::mutex> lock{error_mutex};
                if (i < first_error_index) {
                    first_error_index = i;
                    first_error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 0; t + 1 < workers; ++t) {
        pool.emplace_back(body);
    }
    body(); // the calling thread works too
    for (auto& thread : pool) {
        thread.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

void ThreadPool::stream_ordered(std::size_t n, std::size_t window,
                                const std::function<void(std::size_t)>& produce,
                                const std::function<bool(std::size_t)>& consume) const
{
    // Slot i % window belongs to index i from its claim until its consume;
    // a claim waits until i < cursor + window, so slots never collide. The
    // mutex orders each slot's fill before its consume.
    std::mutex mutex;
    std::condition_variable produced;
    std::condition_variable space;
    std::size_t next = 0;   // next index to claim
    std::size_t cursor = 0; // next index to consume
    bool stop = false;      // no further claims
    std::vector<bool> ready(window, false);
    std::vector<std::exception_ptr> errors(window);

    const auto claimable = [&] { return !stop && next < n && next < cursor + window; };
    const auto run = [&](std::size_t i) {
        std::exception_ptr error;
        try {
            produce(i);
        } catch (...) {
            error = std::current_exception();
        }
        {
            const std::lock_guard<std::mutex> lock{mutex};
            ready[i % window] = true;
            errors[i % window] = error;
            if (error != nullptr) {
                stop = true; // every index below i is already claimed
            }
        }
        produced.notify_one();
    };
    auto body = [&]() noexcept {
        for (;;) {
            std::size_t i = 0;
            {
                std::unique_lock<std::mutex> lock{mutex};
                space.wait(lock, [&] { return stop || next >= n || claimable(); });
                if (!claimable()) {
                    return;
                }
                i = next++;
            }
            run(i);
        }
    };

    // The calling thread is one of the size() producers, so consuming
    // never competes with size() busy workers for the cores.
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(threads_ - 1, n - 1));
    std::vector<std::thread> pool;
    pool.reserve(workers);
    std::exception_ptr failure;
    try {
        for (unsigned t = 0; t < workers; ++t) {
            pool.emplace_back(body);
        }
    } catch (...) {
        failure = std::current_exception(); // a worker failed to start
    }

    while (failure == nullptr && cursor < n) {
        const std::size_t slot = cursor % window;
        std::optional<std::size_t> own; // claimed while the cursor is in flight
        {
            std::unique_lock<std::mutex> lock{mutex};
            produced.wait(lock, [&] { return ready[slot] || claimable(); });
            if (ready[slot]) {
                failure = errors[slot];
            } else {
                own = next++;
            }
        }
        if (own.has_value()) {
            run(*own);
            continue;
        }
        if (failure != nullptr) {
            break;
        }
        bool more = false;
        try {
            more = consume(cursor);
        } catch (...) {
            failure = std::current_exception();
            break;
        }
        if (!more) {
            break;
        }
        {
            const std::lock_guard<std::mutex> lock{mutex};
            ready[slot] = false;
            ++cursor;
        }
        space.notify_all();
    }
    {
        const std::lock_guard<std::mutex> lock{mutex};
        stop = true;
    }
    space.notify_all();
    for (auto& thread : pool) {
        thread.join();
    }
    if (failure != nullptr) {
        std::rethrow_exception(failure);
    }
}

} // namespace hdpm::util

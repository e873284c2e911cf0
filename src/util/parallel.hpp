#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

namespace hdpm::util {

/// One round of splitmix64 on a single value. Used to derive decorrelated
/// per-shard seeds (`seed ^ splitmix64(shard)`) so that shard streams are
/// statistically independent of each other and of the master stream.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// A small joining thread pool.
///
/// Each parallel_for / parallel_map call spawns up to size()-1 worker
/// threads, participates in the work from the calling thread, and joins all
/// workers before returning — no detached state survives a call, so nested
/// and concurrent use from multiple threads is safe by construction.
///
/// Guarantees:
///  - parallel_map preserves input ordering: result[i] is fn(i) regardless
///    of which thread ran it or when it finished.
///  - The first exception (the one thrown by the lowest index among failed
///    tasks) is rethrown on the calling thread after all workers join;
///    indices not yet started when a task fails are skipped.
///  - A pool of size 1 (or n <= 1) runs everything inline on the calling
///    thread, which keeps single-threaded runs trivially deterministic and
///    debuggable.
///
/// for_each_ordered is the streaming counterpart of parallel_map: up to
/// size() threads produce while the calling thread consumes the results
/// one at a time, in index order — no barrier between the two.
class ThreadPool {
public:
    /// @p threads = 0 selects std::thread::hardware_concurrency().
    explicit ThreadPool(unsigned threads = 0);

    /// Number of threads a call may use (including the calling thread).
    [[nodiscard]] unsigned size() const noexcept { return threads_; }

    /// Run fn(0..n-1), blocking until all invocations finish.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const;

    /// Run fn(0..n-1) and collect the results in input order.
    template <typename Fn>
    [[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn) const
        -> std::vector<std::invoke_result_t<Fn&, std::size_t>>
    {
        using T = std::invoke_result_t<Fn&, std::size_t>;
        std::vector<std::optional<T>> slots(n);
        parallel_for(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
        std::vector<T> out;
        out.reserve(n);
        for (auto& slot : slots) {
            out.push_back(std::move(*slot));
        }
        return out;
    }

    /// Ordered streaming: size() threads — the calling thread among them —
    /// run produce(0..n-1) while the calling thread runs consume(i, result)
    /// in index order, stopping early once consume returns false. The
    /// calling thread consumes whatever is ready and, while the next result
    /// is still in flight, produces the next unclaimed index itself.
    ///
    ///  - Indices are claimed in ascending order and never more than
    ///    @p window ahead of the consume cursor, so at most @p window
    ///    results are ever pending and an early stop leaves no claim past
    ///    (stopping index + window).
    ///  - consume(i, ...) runs only after every consume(j < i); it is never
    ///    concurrent with itself.
    ///  - A throwing produce(i) stops further claims; every consume(j < i)
    ///    still runs and produce(i)'s exception (the lowest failing index)
    ///    is rethrown on the calling thread after all workers join. A
    ///    throwing consume likewise stops claims, joins and rethrows.
    ///  - A pool of size 1 (or n <= 1) starts no thread: the calling thread
    ///    runs produce/consume alternately.
    template <typename Produce, typename Consume>
    void for_each_ordered(std::size_t n, std::size_t window, Produce&& produce,
                          Consume&& consume) const
    {
        using T = std::invoke_result_t<Produce&, std::size_t>;
        if (n == 0) {
            return;
        }
        std::vector<std::optional<T>> slots(std::clamp<std::size_t>(window, 1, n));
        stream_ordered(
            n, slots.size(),
            [&](std::size_t i) { slots[i % slots.size()].emplace(produce(i)); },
            [&](std::size_t i) {
                std::optional<T>& slot = slots[i % slots.size()];
                const bool more = consume(i, *slot);
                slot.reset();
                return more;
            });
    }

private:
    /// for_each_ordered's scheduler over @p window result slots: produce(i)
    /// fills slot i % window, consume(i) drains it on the calling thread.
    void stream_ordered(std::size_t n, std::size_t window,
                        const std::function<void(std::size_t)>& produce,
                        const std::function<bool(std::size_t)>& consume) const;

    unsigned threads_;
};

} // namespace hdpm::util

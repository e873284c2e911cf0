#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace hdpm::util {

/// How SingleFlightLru::get satisfied a lookup.
enum class CacheOutcome : std::uint8_t {
    Hit = 0,       ///< the value was already cached
    Built = 1,     ///< this caller ran the build
    Coalesced = 2, ///< waited on a concurrent caller's build
};

/// A thread-safe LRU cache whose misses are built at most once at a time.
///
/// Single flight: the first caller of a cold key runs the build outside the
/// lock; concurrent callers of the same key block on that build and receive
/// the identical value. A failed build reaches every waiter as the builder's
/// exception and releases the key, so a later get() retries.
///
/// Eviction is least-recently-used over ready entries, bounded by an entry
/// cap and a byte budget. Each entry is charged by the charge function given
/// at construction (none: 0 bytes). In-flight entries are never evicted and
/// do not count against either bound, and the most recently used ready entry
/// is always kept, so a single entry larger than the whole budget still
/// serves. A hit is O(1) and allocation-free: it splices the entry's LRU
/// node, whose iterator lives in the map entry, to the front.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SingleFlightLru {
public:
    using ChargeFn = std::size_t (*)(const Value&);

    struct Lookup {
        std::shared_ptr<const Value> value;
        CacheOutcome outcome = CacheOutcome::Hit;
    };

    explicit SingleFlightLru(std::size_t max_entries,
                             std::size_t max_bytes = std::numeric_limits<std::size_t>::max(),
                             ChargeFn charge = nullptr)
        : max_entries_(std::max<std::size_t>(max_entries, 1)), max_bytes_(max_bytes),
          charge_(charge)
    {
    }

    SingleFlightLru(const SingleFlightLru&) = delete;
    SingleFlightLru& operator=(const SingleFlightLru&) = delete;

    /// The value of @p key, running `build()` (which returns a Value) on a
    /// miss. Rethrows the build's exception, in the builder and in every
    /// caller coalesced onto it.
    template <typename Build>
    Lookup get(const Key& key, Build&& build)
    {
        std::unique_lock<std::mutex> lock{mutex_};
        const auto [it, cold] = entries_.try_emplace(key);
        // The reference (not the iterator) survives concurrent inserts, and
        // nothing but this build erases an in-flight entry.
        Entry& entry = it->second;
        if (!cold) {
            if (entry.value != nullptr) {
                lru_.splice(lru_.begin(), lru_, entry.lru);
                hits_.fetch_add(1, std::memory_order_relaxed);
                return {entry.value, CacheOutcome::Hit};
            }
            coalesced_.fetch_add(1, std::memory_order_relaxed);
            const std::shared_future<std::shared_ptr<const Value>> flight = entry.flight;
            lock.unlock();
            return {flight.get(), CacheOutcome::Coalesced};
        }
        std::promise<std::shared_ptr<const Value>> promise;
        entry.flight = promise.get_future().share();
        lock.unlock();

        std::shared_ptr<const Value> value;
        std::list<Key> node; // the entry's LRU node, allocated off the lock
        try {
            node.push_back(key);
            value = std::make_shared<const Value>(build());
        } catch (...) {
            lock.lock();
            entries_.erase(key);
            lock.unlock();
            promise.set_exception(std::current_exception());
            throw;
        }
        const std::size_t bytes = charge_ != nullptr ? charge_(*value) : 0;

        lock.lock();
        entry.value = value;
        entry.flight = {};
        entry.bytes = bytes;
        lru_.splice(lru_.begin(), node);
        entry.lru = lru_.begin();
        bytes_used_ += bytes;
        built_.fetch_add(1, std::memory_order_relaxed);
        evict_locked();
        lock.unlock();
        promise.set_value(value);
        return {std::move(value), CacheOutcome::Built};
    }

    /// Erase every ready entry whose key satisfies @p pred; in-flight
    /// entries are left to finish. Returns the number erased.
    template <typename Pred>
    std::size_t erase_if(Pred pred)
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        std::size_t erased = 0;
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (it->second.value != nullptr && pred(it->first)) {
                bytes_used_ -= it->second.bytes;
                lru_.erase(it->second.lru);
                it = entries_.erase(it);
                ++erased;
            } else {
                ++it;
            }
        }
        return erased;
    }

    /// Ready entries held.
    [[nodiscard]] std::size_t size() const
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        return lru_.size();
    }

    /// Bytes charged by the ready entries held.
    [[nodiscard]] std::size_t bytes_used() const
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        return bytes_used_;
    }

    [[nodiscard]] std::uint64_t hits() const noexcept
    {
        return hits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t built() const noexcept
    {
        return built_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t coalesced() const noexcept
    {
        return coalesced_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t evictions() const noexcept
    {
        return evictions_.load(std::memory_order_relaxed);
    }

private:
    /// In flight while value is null: flight is then the build's future.
    /// Ready once value is set: lru then points at the key's LRU node.
    struct Entry {
        std::shared_ptr<const Value> value;
        std::shared_future<std::shared_ptr<const Value>> flight;
        typename std::list<Key>::iterator lru;
        std::size_t bytes = 0;
    };

    void evict_locked()
    {
        while (lru_.size() > 1 &&
               (lru_.size() > max_entries_ || bytes_used_ > max_bytes_)) {
            const auto victim = entries_.find(lru_.back());
            bytes_used_ -= victim->second.bytes;
            entries_.erase(victim);
            lru_.pop_back();
            evictions_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    const std::size_t max_entries_;
    const std::size_t max_bytes_;
    const ChargeFn charge_;
    mutable std::mutex mutex_;
    std::unordered_map<Key, Entry, Hash> entries_;
    std::list<Key> lru_; ///< ready entries, most recently used first
    std::size_t bytes_used_ = 0;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> built_{0};
    std::atomic<std::uint64_t> coalesced_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

} // namespace hdpm::util

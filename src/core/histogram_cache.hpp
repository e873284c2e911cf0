#pragma once

#include <cstdint>
#include <memory>
#include <variant>

#include "streams/kernels.hpp"
#include "streams/packed_trace.hpp"
#include "util/single_flight_lru.hpp"

namespace hdpm::core {

/// Classification histograms of packed traces, each built at most once
/// concurrently and kept in one LRU.
///
/// Classification — one pass over a potentially million-sample trace — is
/// the dominant cost of a cold estimate; everything after it is a dot
/// product (eqs. 2–3). The first caller of a (trace id, width, kind) runs
/// the kernel pass; concurrent callers of the same key wait on it and are
/// handed the identical histogram, so under fan-out load (N models scored
/// on one trace) built() stays far below the number of estimates served.
///
/// The key carries the trace's width alongside its id: the width fixes the
/// bin count and the words-per-sample stride, so two traces that ever share
/// an id but not a geometry can never alias an entry. Both histogram kinds
/// share one entry cap and one byte budget; an Hd entry is charged its
/// (width+1) bins, a class entry its (width+1)². Histograms are integer
/// counts, bit-identical for every KernelOptions, so entries never key on
/// the options used to build them.
class HistogramCache {
public:
    HistogramCache(std::size_t max_entries, std::size_t max_bytes);

    /// The Hd histogram of @p trace. @p outcome (optional) reports how this
    /// call was served.
    [[nodiscard]] std::shared_ptr<const streams::HdHistogram> hd(
        const streams::PackedTrace& trace, const streams::KernelOptions& options,
        util::CacheOutcome* outcome = nullptr);

    /// The (Hd, stable-zero) class histogram of @p trace, likewise.
    [[nodiscard]] std::shared_ptr<const streams::HdClassHistogram> hd_class(
        const streams::PackedTrace& trace, const streams::KernelOptions& options,
        util::CacheOutcome* outcome = nullptr);

    /// Drop every ready histogram of @p trace_id (e.g. on CloseTrace). An
    /// in-flight build finishes and its entry ages out.
    void invalidate(std::uint64_t trace_id);

    [[nodiscard]] std::uint64_t built() const noexcept { return lru_.built(); }
    [[nodiscard]] std::uint64_t hits() const noexcept { return lru_.hits(); }
    [[nodiscard]] std::uint64_t coalesced() const noexcept { return lru_.coalesced(); }

    /// Bytes of histogram bins currently held.
    [[nodiscard]] std::size_t bytes_used() const { return lru_.bytes_used(); }

private:
    enum class Kind : std::uint8_t { Hd = 0, Classes = 1 };

    struct Key {
        std::uint64_t id = 0;
        int width = 0;
        Kind kind = Kind::Hd;

        friend bool operator==(const Key&, const Key&) = default;
    };

    struct KeyHash {
        [[nodiscard]] std::size_t operator()(const Key& key) const noexcept
        {
            // splitmix-style mix of the three fields.
            std::uint64_t x = key.id ^
                              (static_cast<std::uint64_t>(key.width) * 2 +
                               static_cast<std::uint64_t>(key.kind)) *
                                  0x9e3779b97f4a7c15ULL;
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ULL;
            x ^= x >> 27;
            return static_cast<std::size_t>(x);
        }
    };

    using Histogram = std::variant<streams::HdHistogram, streams::HdClassHistogram>;

    template <typename Wanted, typename Build>
    std::shared_ptr<const Wanted> get(const Key& key, Build&& build,
                                      util::CacheOutcome* outcome);

    util::SingleFlightLru<Key, Histogram, KeyHash> lru_;
};

} // namespace hdpm::core

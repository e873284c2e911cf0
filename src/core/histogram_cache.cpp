#include "core/histogram_cache.hpp"

namespace hdpm::core {

namespace {

std::size_t histogram_bytes(const std::variant<streams::HdHistogram,
                                               streams::HdClassHistogram>& histogram)
{
    return std::visit(
        [](const auto& h) { return h.counts.size() * sizeof(std::uint64_t); },
        histogram);
}

} // namespace

HistogramCache::HistogramCache(std::size_t max_entries, std::size_t max_bytes)
    : lru_(max_entries, max_bytes, &histogram_bytes)
{
}

template <typename Wanted, typename Build>
std::shared_ptr<const Wanted> HistogramCache::get(const Key& key, Build&& build,
                                                  util::CacheOutcome* outcome)
{
    auto lookup = lru_.get(key, [&] { return Histogram{build()}; });
    if (outcome != nullptr) {
        *outcome = lookup.outcome;
    }
    const Wanted* histogram = &std::get<Wanted>(*lookup.value);
    return {std::move(lookup.value), histogram};
}

std::shared_ptr<const streams::HdHistogram> HistogramCache::hd(
    const streams::PackedTrace& trace, const streams::KernelOptions& options,
    util::CacheOutcome* outcome)
{
    return get<streams::HdHistogram>(
        Key{trace.id(), trace.width(), Kind::Hd},
        [&] { return streams::hd_histogram(trace, options); }, outcome);
}

std::shared_ptr<const streams::HdClassHistogram> HistogramCache::hd_class(
    const streams::PackedTrace& trace, const streams::KernelOptions& options,
    util::CacheOutcome* outcome)
{
    return get<streams::HdClassHistogram>(
        Key{trace.id(), trace.width(), Kind::Classes},
        [&] { return streams::hd_class_histogram(trace, options); }, outcome);
}

void HistogramCache::invalidate(std::uint64_t trace_id)
{
    (void)lru_.erase_if([&](const Key& key) { return key.id == trace_id; });
}

} // namespace hdpm::core

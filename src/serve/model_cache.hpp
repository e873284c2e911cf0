#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>

#include "core/model_library.hpp"
#include "util/single_flight_lru.hpp"

namespace hdpm::serve {

/// A model the cache serves: either family, immutable once loaded.
using ServedModel = std::variant<core::HdModel, core::EnhancedHdModel>;

/// Capacity-bounded front over a core::ModelLibrary.
///
/// The library already resolves cold misses with single-flight
/// characterize-on-miss semantics, but it parses a model file on *every*
/// lookup; this cache keeps the deserialized models hot in memory.
/// Concurrent requests for the same model block on the first requester's
/// load rather than re-characterizing (single flight at this layer too),
/// and a failed load reaches every waiter and releases the key for retry.
/// Eviction is LRU over loaded models; a load in flight is never evicted.
class ModelCache {
public:
    ModelCache(const core::ModelLibrary& library,
               core::CharacterizationOptions char_options, std::size_t capacity);

    /// The model for (type, widths, kind, corner), loading or
    /// characterizing on miss. @p zero_clusters selects the enhanced
    /// variant when @p enhanced is true. @p corner, when set, overrides the
    /// cache's configured characterization corner for this entry; the
    /// corner is part of the cache key (via ModelLibrary::model_key), so
    /// two corners of the same module can never alias one cached model.
    [[nodiscard]] std::shared_ptr<const ServedModel> get(
        dp::ModuleType type, std::span<const int> widths, bool enhanced,
        int zero_clusters,
        const std::optional<gate::Corner>& corner = std::nullopt);

    /// Lookups served without loading, including those that waited on a
    /// concurrent load of the same model.
    [[nodiscard]] std::uint64_t hits() const noexcept
    {
        return lru_.hits() + lru_.coalesced();
    }
    /// Models loaded (from disk or by characterization).
    [[nodiscard]] std::uint64_t misses() const noexcept { return lru_.built(); }

private:
    const core::ModelLibrary* library_;
    core::CharacterizationOptions char_options_;
    util::SingleFlightLru<std::string, ServedModel> lru_;
};

} // namespace hdpm::serve

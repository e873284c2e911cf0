#include "serve/model_cache.hpp"

namespace hdpm::serve {

ModelCache::ModelCache(const core::ModelLibrary& library,
                       core::CharacterizationOptions char_options, std::size_t capacity)
    : library_(&library), char_options_(std::move(char_options)), lru_(capacity)
{
}

std::shared_ptr<const ServedModel> ModelCache::get(
    dp::ModuleType type, std::span<const int> widths, bool enhanced,
    int zero_clusters, const std::optional<gate::Corner>& corner)
{
    // The request corner overrides the configured default; either way the
    // effective corner lands in both the cache key and the
    // characterization options, so corner-qualified entries can never
    // alias the native-corner model (or each other).
    const std::optional<gate::Corner>& effective =
        corner.has_value() ? corner : char_options_.corner;
    std::string key = library_->model_key(type, widths, effective);
    if (enhanced) {
        key += ".z" + std::to_string(zero_clusters);
    }
    return lru_
        .get(key,
             [&]() -> ServedModel {
                 core::CharacterizationOptions options = char_options_;
                 options.corner = effective;
                 if (enhanced) {
                     return library_->get_or_characterize_enhanced(type, widths,
                                                                   zero_clusters, options);
                 }
                 return library_->get_or_characterize(type, widths, options);
             })
        .value;
}

} // namespace hdpm::serve

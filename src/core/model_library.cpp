#include "core/model_library.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/file_io.hpp"

namespace hdpm::core {

namespace {

/// Bump when the set of fingerprinted fields changes; every stored model
/// becomes stale at once, which is exactly the safe behaviour.
/// v3: operating corner (vdd, temperature, load class) joined the plan.
constexpr std::uint64_t kFingerprintVersion = 3;

constexpr std::string_view kOptionsHeaderTag = "options";

std::string fingerprint_header_line(std::uint64_t fingerprint)
{
    std::string line{kOptionsHeaderTag};
    line += ' ';
    util::append_hex64(line, fingerprint);
    line += '\n';
    return line;
}

/// Consume the `options <hex>` header of @p in. Returns true (stream
/// positioned at the model payload) when a well-formed header equal to
/// @p fingerprint was read; false for a mismatch or a legacy file with no
/// header.
bool consume_matching_header(std::istream& in, std::uint64_t fingerprint)
{
    std::string line;
    if (!std::getline(in, line)) {
        return false;
    }
    return line + '\n' == fingerprint_header_line(fingerprint);
}

} // namespace

std::uint64_t characterization_fingerprint(const CharacterizationOptions& options,
                                           const sim::EventSimOptions& sim_options)
{
    std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL; // FNV-1a offset basis
    const auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xffU;
            hash *= 0x0000'0100'0000'01b3ULL; // FNV-1a prime
        }
    };
    mix(kFingerprintVersion);
    // The stimulus plan: everything that shapes the generated stream.
    mix(options.seed);
    mix(options.max_transitions);
    mix(options.min_transitions);
    mix(options.batch);
    mix(std::bit_cast<std::uint64_t>(options.tolerance));
    mix(options.mode ? static_cast<std::uint64_t>(*options.mode) + 1 : 0);
    mix(options.shard_size);
    // The scoring backend and its calibration budget: emulated records are
    // a different measurement of the same stimulus plan, so two runs that
    // differ only in backend (or in how many event-kernel pairs calibrated
    // the emulation weights) must never share a stored model or resume each
    // other's checkpoints.
    mix(static_cast<std::uint64_t>(options.backend));
    mix(options.calibration_pairs);
    // The reference-simulation physics.
    mix(sim_options.count_input_charge ? 1 : 0);
    mix(static_cast<std::uint64_t>(sim_options.inertial_window_ps));
    // The operating corner: a derived library scales every charge in the
    // measurement, so corner-qualified models and journals must never mix
    // with native-corner ones (or with each other across corners).
    mix(options.corner.has_value() ? 1 : 0);
    if (options.corner.has_value()) {
        mix(std::bit_cast<std::uint64_t>(options.corner->vdd_v));
        mix(std::bit_cast<std::uint64_t>(options.corner->temp_c));
        mix(static_cast<std::uint64_t>(options.corner->load_class));
    }
    // Deliberately excluded (execution-only, results bit-identical):
    // threads, max_events_per_cycle, progress, stats,
    // checkpoint/checkpoint_every (resume is bit-identical), strict_faults.
    // Also excluded: options.corners — a sweep stores each corner's model
    // under that corner's single-corner fingerprint, and stamps its one
    // journal with this fingerprint plus the corner list (see
    // journal_fingerprint in characterize.cpp).
    return hash;
}

ModelLibrary::ModelLibrary(std::filesystem::path directory,
                           const gate::TechLibrary& library,
                           sim::EventSimOptions sim_options)
    : directory_(std::move(directory)), library_(&library), sim_options_(sim_options)
{
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
        HDPM_FAIL("cannot create model library directory '", directory_.string(), "': ",
                  ec.message());
    }
    // Sweep ".tmp" debris left by runs killed between write and rename. A
    // .tmp never matched any probe (models are only read under their final
    // name), so removal is always safe.
    for (const auto& entry : std::filesystem::directory_iterator{directory_, ec}) {
        if (entry.path().extension() == ".tmp") {
            std::error_code remove_ec;
            if (std::filesystem::remove(entry.path(), remove_ec)) {
                stale_tmps_.fetch_add(1, std::memory_order_relaxed);
            }
        }
    }
}

std::string ModelLibrary::model_key(dp::ModuleType type, std::span<const int> widths,
                                    const std::optional<gate::Corner>& corner) const
{
    std::string key = library_->name();
    key += '_';
    key += dp::module_type_id(type);
    key += '_';
    const std::vector<int> expanded = dp::expand_operand_widths(type, widths);
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        if (i > 0) {
            key += 'x';
        }
        key += std::to_string(expanded[i]);
    }
    if (corner.has_value()) {
        key += '@';
        key += corner->key();
    }
    return key;
}

std::filesystem::path ModelLibrary::basic_path(
    dp::ModuleType type, std::span<const int> widths,
    const std::optional<gate::Corner>& corner) const
{
    return directory_ / (model_key(type, widths, corner) + ".hdm");
}

std::filesystem::path ModelLibrary::enhanced_path(
    dp::ModuleType type, std::span<const int> widths, int zero_clusters,
    const std::optional<gate::Corner>& corner) const
{
    return directory_ / (model_key(type, widths, corner) + ".z" +
                         std::to_string(zero_clusters) + ".ehdm");
}

bool ModelLibrary::contains(dp::ModuleType type, std::span<const int> widths) const
{
    return std::filesystem::exists(basic_path(type, widths, std::nullopt));
}

template <typename Model, typename BuildFn>
Model ModelLibrary::load_or_build(const std::filesystem::path& path,
                                  const std::uint64_t fingerprint,
                                  BuildFn&& build) const
{
    const std::string key = path.string();
    std::promise<void> promise;
    for (;;) {
        std::shared_future<void> flight;
        {
            std::unique_lock<std::mutex> lock{mutex_};
            // The in-flight check must precede the file probe: a stale file
            // may sit on disk while the leader rebuilds it, and the flight
            // entry is only erased once the replacement is complete (the
            // leader publishes with an atomic rename, so a probe never sees
            // a half-written model).
            const auto it = in_flight_.find(key);
            if (it != in_flight_.end()) {
                flight = it->second;
            } else {
                std::ifstream in{path};
                if (in && consume_matching_header(in, fingerprint)) {
                    lock.unlock(); // complete + current: reading needs no lock
                    try {
                        return Model::load(in);
                    } catch (const util::RuntimeError&) {
                        // Current fingerprint but unparseable payload:
                        // truncation or bit rot behind a valid header.
                        // Quarantine the file and loop back — the probe now
                        // misses, so some caller becomes the rebuild leader
                        // and the store heals itself.
                        in.close();
                        util::quarantine_file(path);
                        quarantined_.fetch_add(1, std::memory_order_relaxed);
                        continue;
                    }
                }
                // Missing, legacy (no header) or characterized under other
                // options: this caller becomes the rebuild leader.
                in_flight_.emplace(key, promise.get_future().share());
                break;
            }
        }
        // Wait out the leader's characterization, then re-probe the file.
        // get() rethrows a leader failure to every waiter.
        flight.get();
    }
    try {
        Model model = build();
        // Serialize to memory, then publish crash-safely (util::publish_file),
        // so no reader — in this process or another sharing the directory —
        // can ever observe a partially written model. The in-memory payload
        // is also where the fault-injection hooks corrupt (truncate /
        // bit-flip) a model on its way to disk.
        std::ostringstream serialized;
        serialized << fingerprint_header_line(fingerprint);
        model.save(serialized);
        std::string payload = serialized.str();
        HDPM_FAULT_MUTATE(util::FaultPoint::ModelShortWrite, payload);
        HDPM_FAULT_MUTATE(util::FaultPoint::ModelBitFlip, payload);
        util::publish_file(path, payload);
        {
            const std::lock_guard<std::mutex> lock{mutex_};
            in_flight_.erase(key);
        }
        promise.set_value();
        return model;
    } catch (...) {
        {
            const std::lock_guard<std::mutex> lock{mutex_};
            in_flight_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
}

HdModel ModelLibrary::get_or_characterize(dp::ModuleType type,
                                          std::span<const int> widths,
                                          const CharacterizationOptions& options) const
{
    const std::filesystem::path path = basic_path(type, widths, options.corner);
    return load_or_build<HdModel>(
        path, characterization_fingerprint(options, sim_options_), [&] {
            const dp::DatapathModule module = dp::make_module(type, widths);
            const Characterizer characterizer{*library_, sim_options_};
            return characterizer.characterize(module, options);
        });
}

EnhancedHdModel ModelLibrary::get_or_characterize_enhanced(
    dp::ModuleType type, std::span<const int> widths, int zero_clusters,
    const CharacterizationOptions& options) const
{
    const std::filesystem::path path =
        enhanced_path(type, widths, zero_clusters, options.corner);
    return load_or_build<EnhancedHdModel>(
        path, characterization_fingerprint(options, sim_options_), [&] {
            const dp::DatapathModule module = dp::make_module(type, widths);
            const Characterizer characterizer{*library_, sim_options_};
            return characterizer.characterize_enhanced(module, zero_clusters, options);
        });
}

void ModelLibrary::store_basic(dp::ModuleType type, std::span<const int> widths,
                               const CharacterizationOptions& options,
                               const HdModel& model) const
{
    (void)load_or_build<HdModel>(basic_path(type, widths, options.corner),
                                 characterization_fingerprint(options, sim_options_),
                                 [&] { return model; });
}

void ModelLibrary::store_enhanced(dp::ModuleType type, std::span<const int> widths,
                                  int zero_clusters,
                                  const CharacterizationOptions& options,
                                  const EnhancedHdModel& model) const
{
    (void)load_or_build<EnhancedHdModel>(
        enhanced_path(type, widths, zero_clusters, options.corner),
        characterization_fingerprint(options, sim_options_), [&] { return model; });
}

void ModelLibrary::clear() const
{
    for (const auto& entry : std::filesystem::directory_iterator{directory_}) {
        const std::string ext = entry.path().extension().string();
        if (ext == ".hdm" || ext == ".ehdm" || ext == ".corrupt") {
            std::filesystem::remove(entry.path());
        }
    }
}

} // namespace hdpm::core

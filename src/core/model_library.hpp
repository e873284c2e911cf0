#pragma once

#include <atomic>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/characterize.hpp"

namespace hdpm::core {

/// FNV-1a fingerprint of every knob that shapes a characterized model's
/// coefficients: the stimulus plan (seed, budgets, batch, tolerance, mode,
/// shard size) and the reference-simulation physics (input-charge
/// accounting, inertial window). Execution-only knobs that are proven
/// bit-identical — threads, the event-budget safety valve, checkpointing,
/// progress/stats observers — are deliberately excluded, so re-running
/// with a different thread count still hits the stored model.
[[nodiscard]] std::uint64_t characterization_fingerprint(
    const CharacterizationOptions& options, const sim::EventSimOptions& sim_options);

/// Stamp of the corner-timing physics, folded into every corner-qualified
/// fingerprint (stored models and sweep journals) and into no native-corner
/// one: change it when what a corner does to simulated time changes, so
/// every stored slow-corner model is recharacterized while native models
/// stay valid. 1: timing is a dilation of the load class's nominal delays
/// (gate::TechLibrary::at). 2: every (Vdd, T) corner is derived from its
/// load class's nominal charges by gate::ChargeLaw, with one calibration
/// fit per load class. 3: both backends apply that law to each class's
/// summed charges a·(Q + b·Q_int), not to per-net weights, so emulation and
/// transfer records off the class-nominal corner move by rounding and
/// stamp-2 models and journals are recharacterized, never mixed in.
inline constexpr std::uint64_t kCornerTimingStamp = 3;

/// A directory-backed store of characterized macro-models.
///
/// Characterization is the expensive step of the flow (it runs reference
/// power simulations), and its results are reusable across runs — exactly
/// like the cell-library characterization data the paper's flow assumes.
/// The library keys models by (technology, module family, operand widths)
/// and transparently characterizes on a miss.
///
/// Thread safety: all methods may be called concurrently. A miss is
/// resolved with single-flight semantics — the first caller of a key
/// becomes the leader and characterizes; concurrent callers of the same
/// key block on the leader's flight and then load the stored file, so one
/// characterization never runs twice however many threads race on it. A
/// leader failure is rethrown to every waiter of that flight; the key is
/// released so a later call can retry.
///
/// File layout: <directory>/<tech>_<module>_<w1>x<w0>.hdm      (basic)
///              <directory>/<tech>_<module>_<w1>x<w0>.z<K>.ehdm (enhanced)
/// Each file starts with a one-line `options <hex>` header — the
/// characterization_fingerprint the model was built under. A stored model
/// is only reused when the requested options hash to the same fingerprint;
/// a mismatch (or a legacy header-less file) triggers recharacterization,
/// so stale coefficients can never leak across an options change.
///
/// Degradation: a file whose fingerprint header matches but whose payload
/// fails to parse (truncation, bit rot, non-finite coefficients) is
/// quarantined — renamed with a ".corrupt" suffix for inspection — and the
/// model is recharacterized, so a damaged store degrades to a slower run,
/// never to a failed or wrong one. Stale ".tmp" debris from killed runs is
/// swept on open. Both events are counted (models_quarantined /
/// stale_tmps_removed) rather than silent.
class ModelLibrary {
public:
    /// Open (creating if needed) a model library directory.
    explicit ModelLibrary(std::filesystem::path directory,
                          const gate::TechLibrary& library = gate::TechLibrary::generic350(),
                          sim::EventSimOptions sim_options = {});

    /// The deterministic file-name key of a model. A corner-qualified model
    /// (options.corner set) appends the corner's canonical key — e.g.
    /// "generic350_csa_multiplier_16x16@v3300t250n" — so two corners of the
    /// same instance can never alias each other's stored files.
    [[nodiscard]] std::string model_key(
        dp::ModuleType type, std::span<const int> widths,
        const std::optional<gate::Corner>& corner = std::nullopt) const;

    /// The stored, current basic model of the instance under @p options
    /// (its corner and fingerprint), or nullopt. Never characterizes: it is
    /// the probe get_or_characterize runs first (a build of the file in
    /// flight is waited out, a damaged current file is quarantined).
    [[nodiscard]] std::optional<HdModel> find_basic(
        dp::ModuleType type, std::span<const int> widths,
        const CharacterizationOptions& options = {}) const;

    /// Enhanced-model variant of find_basic.
    [[nodiscard]] std::optional<EnhancedHdModel> find_enhanced(
        dp::ModuleType type, std::span<const int> widths, int zero_clusters,
        const CharacterizationOptions& options = {}) const;

    /// Load the basic model for a module instance, characterizing and
    /// storing it first if absent.
    [[nodiscard]] HdModel get_or_characterize(
        dp::ModuleType type, std::span<const int> widths,
        const CharacterizationOptions& options = {}) const;

    /// Enhanced-model variant; @p zero_clusters as in Characterizer.
    [[nodiscard]] EnhancedHdModel get_or_characterize_enhanced(
        dp::ModuleType type, std::span<const int> widths, int zero_clusters = 0,
        const CharacterizationOptions& options = {}) const;

    /// Publish a model fitted elsewhere (e.g. by the fleet coordinator from
    /// merged worker journals) under the exact key, fingerprint header, and
    /// atomic tmp+rename discipline get_or_characterize uses. The stored
    /// file is byte-identical to what a single-process characterization
    /// under @p options would have written from the same records. A current
    /// stored model for the key is kept (first-published-wins — safe
    /// because characterization is deterministic).
    void store_basic(dp::ModuleType type, std::span<const int> widths,
                     const CharacterizationOptions& options, const HdModel& model) const;
    void store_enhanced(dp::ModuleType type, std::span<const int> widths,
                        int zero_clusters, const CharacterizationOptions& options,
                        const EnhancedHdModel& model) const;

    /// Remove every stored model (e.g. after a technology change).
    void clear() const;

    [[nodiscard]] const std::filesystem::path& directory() const noexcept
    {
        return directory_;
    }

    /// The technology library models are characterized under.
    [[nodiscard]] const gate::TechLibrary& technology() const noexcept { return *library_; }

    /// Corrupt model files set aside (".corrupt") by this instance.
    [[nodiscard]] std::uint64_t models_quarantined() const noexcept
    {
        return quarantined_.load(std::memory_order_relaxed);
    }

    /// Stale ".tmp" files swept when the directory was opened.
    [[nodiscard]] std::uint64_t stale_tmps_removed() const noexcept
    {
        return stale_tmps_.load(std::memory_order_relaxed);
    }

private:
    [[nodiscard]] std::filesystem::path basic_path(
        dp::ModuleType type, std::span<const int> widths,
        const std::optional<gate::Corner>& corner) const;
    [[nodiscard]] std::filesystem::path enhanced_path(
        dp::ModuleType type, std::span<const int> widths, int zero_clusters,
        const std::optional<gate::Corner>& corner) const;

    /// The library's one probe: wait out a build of @p path in flight, then
    /// load @p path if it exists and its stored options fingerprint equals
    /// @p fingerprint. A current file whose payload does not parse is
    /// quarantined and reads as a miss. On a miss with @p leader set, the
    /// caller becomes the path's build leader (its flight is registered
    /// under the same lock as the probe, so two callers never both build).
    template <typename Model>
    [[nodiscard]] std::optional<Model> find(const std::filesystem::path& path,
                                            std::uint64_t fingerprint,
                                            std::promise<void>* leader) const;

    /// find() @p path, else run @p build (single-flight per path) and store
    /// its result — prefixed with the fingerprint header — before returning
    /// it. A legacy file without a header, or one characterized under
    /// different options, is recharacterized rather than silently reused.
    template <typename Model, typename BuildFn>
    [[nodiscard]] Model load_or_build(const std::filesystem::path& path,
                                      std::uint64_t fingerprint, BuildFn&& build) const;

    std::filesystem::path directory_;
    const gate::TechLibrary* library_;
    sim::EventSimOptions sim_options_;
    mutable std::atomic<std::uint64_t> quarantined_{0};
    mutable std::atomic<std::uint64_t> stale_tmps_{0};

    mutable std::mutex mutex_; ///< guards in_flight_
    /// Single-flight table: one pending characterization per model file.
    mutable std::unordered_map<std::string, std::shared_future<void>> in_flight_;
};

} // namespace hdpm::core

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/characterize.hpp"
#include "core/hd_model.hpp"
#include "dpgen/module.hpp"

namespace hdpm::core {

/// A characterized prototype instance: its operand widths and fitted model.
struct PrototypeModel {
    std::vector<int> operand_widths;
    HdModel model;
};

/// Bit-width parameterizable Hd-model (paper section 5).
///
/// For each Hamming-distance index i the coefficient is expressed as
/// p_i = R_iᵀ·M(widths) where M is the module family's complexity basis
/// (linear in m for ripple structures, m1·m0 terms for array multipliers;
/// eqs. 6–9). The regression vectors R_i are fitted by least squares over a
/// prototype set (eq. 10).
///
/// Coefficient indices larger than the biggest prototype can support fall
/// back to the highest fitted index (extrapolation is clamped); indices
/// with fewer prototypes than basis terms are fitted with the leading
/// (highest-order) terms only, so predictions keep scaling with the
/// structural complexity. Both cases are inherent to regressing a
/// triangular coefficient family and are reported by samples_for().
class ParameterizableModel {
public:
    ParameterizableModel() = default;

    /// Fit regression vectors from characterized prototypes of one module
    /// family (the "prototype set"). The per-index least-squares problems
    /// are independent; @p threads > 1 (0 = hardware) fans them out on a
    /// pool, with results identical for every thread count.
    [[nodiscard]] static ParameterizableModel fit(
        dp::ModuleType type, std::span<const PrototypeModel> prototypes,
        unsigned threads = 1);

    [[nodiscard]] dp::ModuleType module_type() const noexcept { return type_; }

    /// Highest coefficient index any prototype provided.
    [[nodiscard]] int max_fitted_hd() const noexcept
    {
        return static_cast<int>(r_.size());
    }

    /// Number of prototypes that contributed to coefficient index @p hd.
    [[nodiscard]] std::size_t samples_for(int hd) const;

    /// True when the least-squares fit of index @p hd was ill-conditioned
    /// (e.g. a degenerate prototype set) and degraded to the recorded
    /// ridge-regularized solve.
    [[nodiscard]] bool used_ridge_fallback(int hd) const;

    /// Number of coefficient indices fitted via the ridge fallback.
    [[nodiscard]] std::size_t ridge_fallback_count() const noexcept;

    /// Regression vector R_i (basis-term order of complexity_basis(type)).
    [[nodiscard]] std::span<const double> regression_vector(int hd) const;

    /// Predicted coefficient p_i for a module with the given operand
    /// widths (clamped to ≥ 0).
    [[nodiscard]] double coefficient(int hd, std::span<const int> operand_widths) const;

    /// Build a full HdModel for a target instance of the family.
    [[nodiscard]] HdModel model_for(std::span<const int> operand_widths) const;

    /// Convenience for square two-operand / single-operand modules.
    [[nodiscard]] HdModel model_for(int width) const;

private:
    dp::ModuleType type_{};
    std::vector<std::vector<double>> r_;   ///< per hd-1: basis-sized vector
    std::vector<std::size_t> samples_;     ///< prototypes per coefficient index
    std::vector<std::uint8_t> ridge_;      ///< per hd-1: ridge fallback used
};

/// Total primary-input bit count of a module family instance (the m the
/// Hd-model runs over) without building the netlist.
[[nodiscard]] int total_input_bits(dp::ModuleType type, std::span<const int> operand_widths);

/// Characterize one prototype per width of a module family, fanning the
/// (mutually independent) characterizations out over @p threads workers
/// (0 = one per hardware thread), and return the prototypes in input order.
///
/// Each prototype keeps @p options except for the seed, which is derived
/// as splitmix64(seed ^ (index + 1)) so prototype streams are decorrelated,
/// and options.threads, which is forced to 1 inside each characterization —
/// the parallelism budget is spent across prototypes here, not within one.
/// The prototype set is bit-identical for every thread count.
[[nodiscard]] std::vector<PrototypeModel> characterize_prototype_set(
    dp::ModuleType type, std::span<const int> widths,
    const Characterizer& characterizer, const CharacterizationOptions& options,
    unsigned threads = 0);

} // namespace hdpm::core

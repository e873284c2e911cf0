#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "streams/kernels.hpp"
#include "util/bitvec.hpp"

namespace hdpm::util {
class RecordReader;
} // namespace hdpm::util

namespace hdpm::core {

/// The basic Hamming-distance power macro-model (paper section 3).
///
/// A module with m input bits has m switching-event classes E_i, one per
/// Hamming distance i of consecutive input vectors; each class carries a
/// power coefficient p_i (the average charge of such a transition, eq. 2/4)
/// and an average relative deviation ε_i (eq. 5). The cycle charge of a
/// transition with Hamming distance i is estimated as Q = p_i.
///
/// Coefficients are produced by the Characterizer or by a
/// ParameterizableModel (regression over bit-widths, section 5).
class HdModel {
public:
    HdModel() = default;

    /// Construct from per-class data; @p coefficients holds p_1..p_m
    /// (index 0 = Hd 1). @p deviations (ε_i) and @p sample_counts are
    /// optional and may be empty.
    HdModel(int input_bits, std::vector<double> coefficients,
            std::vector<double> deviations = {},
            std::vector<std::size_t> sample_counts = {});

    /// Number of input bits m (= number of event classes).
    [[nodiscard]] int input_bits() const noexcept { return input_bits_; }

    /// Coefficient p_i for Hamming distance @p hd ∈ [1, m].
    [[nodiscard]] double coefficient(int hd) const;

    /// Average relative deviation ε_i of class @p hd (0 if unknown).
    [[nodiscard]] double deviation(int hd) const;

    /// Characterization sample count of class @p hd (0 if unknown).
    [[nodiscard]] std::size_t sample_count(int hd) const;

    /// All coefficients p_1..p_m.
    [[nodiscard]] std::span<const double> coefficients() const noexcept
    {
        return coefficients_;
    }

    /// Total average coefficient deviation ε = (1/m)·Σ ε_i over populated
    /// classes (the paper's figure-of-merit for fig. 1).
    [[nodiscard]] double average_deviation() const;

    /// --- Estimation -------------------------------------------------

    /// Charge of one transition with Hamming distance @p hd (0 → 0).
    [[nodiscard]] double estimate_cycle(int hd) const;

    /// Per-cycle charges for a pattern stream (n patterns → n-1 cycles).
    [[nodiscard]] std::vector<double> estimate_cycles(
        std::span<const util::BitVec> patterns) const;

    /// Average charge per cycle for a pattern stream.
    [[nodiscard]] double estimate_average(std::span<const util::BitVec> patterns) const;

    /// Average charge per cycle from a Hamming-distance distribution
    /// p(Hd = i), i = 0..m (section 6.2/6.3: Σ p(Hd=i)·p_i).
    [[nodiscard]] double estimate_from_distribution(
        std::span<const double> hd_distribution) const;

    /// Average charge per cycle from an integer Hd histogram:
    /// Σ counts[i]·p_i / pairs. The histogram form keeps classification
    /// integer-exact; only this final dot product is floating point.
    [[nodiscard]] double estimate_from_histogram(
        const streams::HdHistogram& histogram) const;

    /// Average charge per cycle for a packed trace: classify transitions
    /// with the word-parallel kernels (histogram), then reduce. Agrees with
    /// estimate_average on the expanded patterns up to FP summation order.
    [[nodiscard]] double estimate_trace(const streams::PackedTrace& trace,
                                        const streams::KernelOptions& options = {}) const;

    /// Average charge per cycle from only the average Hamming distance,
    /// linearly interpolating between coefficients (section 6.2). This is
    /// the estimator whose error figure 6 quantifies.
    [[nodiscard]] double estimate_from_average_hd(double hd_avg) const;

    /// --- Serialization ----------------------------------------------

    /// Write the model in the library's text format.
    void save(std::ostream& os) const;

    /// Read a model written by save(), which must fill the rest of @p is.
    /// Throws RuntimeError on bad input.
    [[nodiscard]] static HdModel load(std::istream& is);

    /// Take a model written by save() off @p lines, through its 'end' line
    /// (an enhanced model file embeds its fallback this way). Throws
    /// RuntimeError on bad input.
    [[nodiscard]] static HdModel parse(util::RecordReader& lines);

private:
    int input_bits_ = 0;
    std::vector<double> coefficients_;   ///< p_1..p_m
    std::vector<double> deviations_;     ///< ε_1..ε_m (may be empty)
    std::vector<std::size_t> samples_;   ///< per-class sample counts (may be empty)
};

} // namespace hdpm::core

#pragma once

#include "streams/wordstats.hpp"

namespace hdpm::stats {

/// Propagation of word-level statistics (µ, σ², ρ) through datapath
/// operators, in the spirit of Landman's propagation technique [9] and its
/// refinement by Ramprasad et al. [10]: instead of simulating a whole
/// design, word statistics are pushed from the primary inputs through the
/// dataflow graph and each module's power is then estimated from the
/// analytic Hd-distribution at its inputs.
///
/// Assumptions (documented approximations): distinct input streams are
/// mutually independent; processes are near-Gaussian so second-order
/// statistics suffice; lag-1 autocorrelation composes as indicated below.

/// Sum of two independent streams: µ = µa+µb, σ² = σa²+σb²,
/// ρ = (ρa·σa² + ρb·σb²)/(σa²+σb²). @p out_width sets the result width.
[[nodiscard]] streams::WordStats propagate_add(const streams::WordStats& a,
                                               const streams::WordStats& b,
                                               int out_width);

/// Multiplication by a constant c: µ = c·µ, σ² = c²·σ², ρ unchanged.
[[nodiscard]] streams::WordStats propagate_const_mult(const streams::WordStats& a,
                                                      double c, int out_width);

} // namespace hdpm::stats

#pragma once

/// Umbrella header of the hdpower library: the Hamming-distance power
/// macro-modelling toolkit (DATE 1999 reproduction).
///
/// Typical flow:
///   1. Build a component:            dp::make_module(...)
///   2. Characterize it:              core::Characterizer::characterize(...)
///   3. (Optionally) fit a family:    core::ParameterizableModel::fit(...)
///   4. Estimate power of a stream:   model.estimate_average(patterns), or
///      statistically from word-level stats via core::estimate_from_word_stats
///      (stats::propagate_add / propagate_const_mult carry those stats
///      through adders and constant multipliers).
/// The reference simulator behind all of it is sim::PowerSimulator.
///
/// The header includes what the programs in examples/ and bench/ use; the
/// fleet and serving layers have their own headers (fleet/, serve/).

#include "core/adaptive.hpp"
#include "core/bitwise_model.hpp"
#include "core/bus_model.hpp"
#include "core/char_report.hpp"
#include "core/characterize.hpp"
#include "core/enhanced_model.hpp"
#include "core/error_metrics.hpp"
#include "core/estimation_engine.hpp"
#include "core/estimator.hpp"
#include "core/hd_model.hpp"
#include "core/model_library.hpp"
#include "core/regression.hpp"
#include "core/workloads.hpp"
#include "dpgen/arith.hpp"
#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "sim/functional.hpp"
#include "sim/glitch.hpp"
#include "sim/power.hpp"
#include "sim/probabilistic.hpp"
#include "sim/report.hpp"
#include "sim/sequential.hpp"
#include "stats/datamodel.hpp"
#include "stats/gaussian.hpp"
#include "stats/propagation.hpp"
#include "streams/bitstats.hpp"
#include "streams/io.hpp"
#include "streams/kernels.hpp"
#include "streams/packed_trace.hpp"
#include "streams/stream.hpp"
#include "streams/wordstats.hpp"

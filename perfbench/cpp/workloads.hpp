#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "harness.hpp"
#include "util/bitvec.hpp"

namespace perfbench {

/// Seed of the held-out type-II (music) stream behind model_err_pct. Fixed,
/// not --seed, so model_err_pct repeats exactly across seeds and commits.
inline constexpr std::uint64_t kHeldOutSeed = 0x4d55534943ULL;

/// Event-kernel reference: mean charge per cycle [fC] of @p patterns on
/// @p module at @p corner (the library's native corner when unset).
[[nodiscard]] double reference_charge_fc(const hdpm::dp::DatapathModule& module,
                                         const std::optional<hdpm::gate::Corner>& corner,
                                         std::span<const hdpm::util::BitVec> patterns);

/// Each workload fills @p report for one run: end-to-end metrics from an
/// untraced pass, or (config.trace) per-layer metrics, the tracing overhead
/// and the unattributed residuals from an untraced plus a traced pass.

void run_char_event(const Config& config, Report& report);
void run_char_corners_emul(const Config& config, Report& report);
void run_fleet_emul(const Config& config, Report& report);
void run_serve_churn(const Config& config, Report& report);

} // namespace perfbench

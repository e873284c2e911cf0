#pragma once

#include <array>
#include <string>
#include <string_view>

#include "gatelib/gate.hpp"

namespace hdpm::gate {

/// Wire-load class of an operating corner: a coarse knob for the
/// interconnect environment (placement density, routing congestion) that
/// scales the per-net wire capacitance without touching cell data.
enum class LoadClass : std::uint8_t {
    Light = 0,   ///< sparse placement, short wires (0.6× wire caps)
    Nominal = 1, ///< the library's native wire model (1.0×)
    Heavy = 2,   ///< congested routing, long wires (1.6× wire caps)
};

/// Human-readable load-class name ("light" / "nominal" / "heavy").
[[nodiscard]] const char* load_class_name(LoadClass load) noexcept;

/// Wire-capacitance multiplier of a load class.
[[nodiscard]] double load_class_wire_scale(LoadClass load) noexcept;

/// One operating corner of a technology library: supply voltage, junction
/// temperature, and wire-load class. TechLibrary::at derives a complete
/// scaled library for a corner (alpha-power Vdd scaling of delay, CV²
/// scaling of internal energy, linear temperature derating — see
/// docs/corners.md for the laws and constants).
///
/// The *identity corner* — native Vdd (or vdd_v = 0), 25 °C, Nominal —
/// derives a library whose every number is bit-identical to the base
/// library (all scale factors are exactly 1.0 in IEEE arithmetic), so
/// corner-aware code paths cost nothing when no corner is requested.
struct Corner {
    double vdd_v = 0.0;   ///< supply [V]; 0 = the library's native supply
    double temp_c = 25.0; ///< junction temperature [°C]
    LoadClass load_class = LoadClass::Nominal;

    /// Whitespace-free identity token, e.g. "v3300t250n" (supply in mV,
    /// temperature in deci-°C, load-class letter). Used in derived library
    /// names, model keys, file names, and checkpoint fingerprints; corners
    /// that round to the same token are the same corner for caching.
    [[nodiscard]] std::string key() const;

    friend bool operator==(const Corner&, const Corner&) = default;
};

/// Parse a corner spec "vdd:temp[:load]" — e.g. "0.9:85", "1.62:125:heavy",
/// "3.3:25:l". Load accepts light/nominal/heavy or their first letters;
/// omitted = nominal. Throws on malformed input, a zero supply, and a
/// supply or temperature out of TechLibrary::corner_supply's range.
[[nodiscard]] Corner parse_corner(std::string_view spec);

/// Exact per-field multipliers TechLibrary::derived applies to every cell:
/// one multiplication per field, so a scaling of 1.0 is bit-preserving and
/// a hand-written scaled library (the historical generic180 constants) is
/// reproduced exactly.
struct CellScaling {
    double cap_scale = 1.0;    ///< input and output pin capacitance
    double energy_scale = 1.0; ///< internal energy per transition
    double delay_scale = 1.0;  ///< intrinsic (unloaded) delay
    double slope_scale = 1.0;  ///< delay-vs-load slope
};

/// The exact supply and temperature axis of a load class. A net's edge
/// charge is ½·C·V + E_int/V, and at() scales E_int by (V/V₀)²·τ with
/// τ = 1 + k·(T − 25 °C), so at any (V, T) corner of a load class
///
///     q(corner) = a · (q + b · q_int),   a = V/V₀,  b = τ − 1,
///
/// where q is the net's edge charge at the class-nominal corner and q_int
/// its internal-energy part E_int/V₀. The law is linear, so it holds for
/// any sum of edge charges over one toggle stream — a cycle charge, or a
/// per-net weight — and the corners of a class share their toggles
/// (timing is a dilation). At the class-nominal corner a is exactly 1 and
/// b exactly 0, so apply() returns q bit for bit.
struct ChargeLaw {
    double supply_ratio = 1.0;    ///< a = V/V₀
    double internal_excess = 0.0; ///< b = τ − 1 = k·(T − 25 °C)

    /// a · (q + b · q_int).
    [[nodiscard]] double apply(double q, double q_int) const noexcept
    {
        return supply_ratio * (q + internal_excess * q_int);
    }
};

/// Electrical characterization data of one cell kind.
///
/// These are the per-cell numbers the reference power simulator consumes:
/// switched capacitance plus a lumped internal (short-circuit + internal
/// node) energy per output transition, and a linear delay model
/// delay = intrinsic + slope · C_load.
struct GateElectrical {
    double input_cap_ff = 0.0;       ///< capacitance presented by each input pin [fF]
    double output_cap_ff = 0.0;      ///< intrinsic drain capacitance on the output [fF]
    double internal_energy_fj = 0.0; ///< internal energy per output transition [fJ]
    double intrinsic_delay_ps = 0.0; ///< unloaded propagation delay [ps]
    double delay_per_ff_ps = 0.0;    ///< delay slope versus load capacitance [ps/fF]
};

/// A synthetic technology library.
///
/// Substitute for the 0.35 µm standard-cell data behind the paper's
/// DesignWare + PowerMill flow. Absolute values are plausible-scale
/// fabrications; what matters for the macro-model experiments is the
/// *relative* sizing between cells and the presence of load-dependent delay
/// (which creates arrival-time skew and therefore glitching).
class TechLibrary {
public:
    /// Build a library from explicit per-kind data.
    TechLibrary(std::string name, double vdd_v, double wire_cap_base_ff,
                double wire_cap_per_fanout_ff,
                std::array<GateElectrical, kNumGateKinds> cells);

    /// Library name (for reports).
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Supply voltage [V].
    [[nodiscard]] double vdd() const noexcept { return vdd_v_; }

    /// Fixed wire capacitance added to every driven net [fF].
    [[nodiscard]] double wire_cap_base_ff() const noexcept { return wire_cap_base_ff_; }

    /// Additional wire capacitance per fanout pin [fF].
    [[nodiscard]] double wire_cap_per_fanout_ff() const noexcept
    {
        return wire_cap_per_fanout_ff_;
    }

    /// Electrical data of a cell kind.
    [[nodiscard]] const GateElectrical& spec(GateKind kind) const noexcept
    {
        return cells_[static_cast<std::size_t>(kind)];
    }

    /// A derived library: every cell field multiplied by the matching
    /// CellScaling factor (exactly one multiplication per field), with the
    /// given supply and wire capacitances adopted verbatim and this
    /// library's time_scale() kept. This is the
    /// single mechanism behind both hand-named process variants
    /// (generic180) and operating-corner derivation (at()).
    [[nodiscard]] TechLibrary derived(std::string name, double vdd_v,
                                      double wire_cap_base_ff,
                                      double wire_cap_per_fanout_ff,
                                      const CellScaling& scaling) const;

    /// The library scaled to an operating corner: internal energies scale
    /// as (V/V₀)² with a linear temperature derating, wire capacitances
    /// scale with the load class, and the derived library's vdd() is the
    /// corner supply (so the ½·C·Vdd edge-charge term scales without
    /// further bookkeeping).
    ///
    /// Timing is a dilation: the corner's delay factor (the alpha-power law
    /// V/(V−Vth)^α relative to the native supply, with its own linear
    /// temperature derating — corner_delay_scale) stretches every delay of
    /// the load class uniformly, so the cell delay fields keep the class's
    /// nominal values and time_scale() carries the factor. Simulators run
    /// in class-nominal time — identical event order, toggles and glitch
    /// filtering at every corner of a load class — and scale the times
    /// they report by time_scale() (docs/corners.md §1).
    /// The identity corner derives a bit-identical library (see Corner).
    /// The derived name is "<name>@<corner.key()>".
    [[nodiscard]] TechLibrary at(const Corner& corner) const;

    /// Factor from class-nominal simulation time to reported time: 1 for a
    /// base library, corner_delay_scale for a corner-derived one.
    [[nodiscard]] double time_scale() const noexcept { return time_scale_; }

    /// The supply @p corner runs at (its own, or the native one for 0), and
    /// the one corner check, of every derivation below and of the server's
    /// wire corners: throws PreconditionError for any other supply not
    /// finite and strictly between the threshold and 20 V (so NaN, negative
    /// and infinite supplies are refused, never read as native) and for a
    /// temperature outside [−100, 300] °C.
    [[nodiscard]] double corner_supply(const Corner& corner) const;

    /// The internal-energy multiplier at() applies for @p corner:
    /// a²·(1 + b) in the terms of corner_charge_law.
    [[nodiscard]] double corner_energy_scale(const Corner& corner) const;

    /// The charge law of @p corner relative to its load class's nominal
    /// corner (native supply, 25 °C), which has the same capacitances and
    /// delays: see ChargeLaw. Throws PreconditionError for a corner at()
    /// cannot derive (supply or temperature out of range, supply at or
    /// below the threshold).
    [[nodiscard]] ChargeLaw corner_charge_law(const Corner& corner) const;

    /// The delay multiplier of @p corner: the time dilation at() records as
    /// time_scale().
    [[nodiscard]] double corner_delay_scale(const Corner& corner) const;

    /// The default generic 350 nm-class library (Vdd = 3.3 V).
    [[nodiscard]] static const TechLibrary& generic350();

    /// A scaled 180 nm-class variant (Vdd = 1.8 V) used to check that model
    /// conclusions are technology-independent. Generated from generic350()
    /// through derived() — the constants live in one place.
    [[nodiscard]] static const TechLibrary& generic180();

private:
    std::string name_;
    double vdd_v_;
    double wire_cap_base_ff_;
    double wire_cap_per_fanout_ff_;
    std::array<GateElectrical, kNumGateKinds> cells_;
    double time_scale_ = 1.0;
};

} // namespace hdpm::gate

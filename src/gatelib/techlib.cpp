#include "gatelib/techlib.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/error.hpp"

namespace hdpm::gate {

namespace {

/// Corner-scaling physics constants (see docs/corners.md).
///
/// Alpha-power delay law: t_d ∝ V / (V − Vth)^α with α between 1 (full
/// velocity saturation) and 2 (long-channel); 1.3 matches submicron CMOS.
/// Vth is modeled as a fixed fraction of the library's native supply.
/// Temperature enters both delay and energy as small linear deratings
/// around the 25 °C nominal — carrier mobility falls with temperature
/// (slower, slightly more short-circuit energy).
constexpr double kAlphaPower = 1.3;
constexpr double kVthFraction = 0.2;
constexpr double kDelayTempPerC = 0.0013;
constexpr double kEnergyTempPerC = 0.0005;
constexpr double kNominalTempC = 25.0;

double alpha_power_factor(double vdd, double vth)
{
    return vdd / std::pow(vdd - vth, kAlphaPower);
}

/// The library-free part of the one corner check, shared by parse_corner
/// and TechLibrary::corner_supply: the supply is 0 (native) or finite in
/// (0, 20) V, the temperature in [−100, 300] °C.
void check_corner(const Corner& corner)
{
    HDPM_REQUIRE(corner.vdd_v == 0.0 || (corner.vdd_v > 0.0 && corner.vdd_v < 20.0),
                 "corner supply out of range: ", corner.vdd_v, " V");
    HDPM_REQUIRE(corner.temp_c >= -100.0 && corner.temp_c <= 300.0,
                 "corner temperature out of range: ", corner.temp_c, " C");
}

} // namespace

const char* load_class_name(LoadClass load) noexcept
{
    switch (load) {
    case LoadClass::Light:
        return "light";
    case LoadClass::Heavy:
        return "heavy";
    case LoadClass::Nominal:
        break;
    }
    return "nominal";
}

double load_class_wire_scale(LoadClass load) noexcept
{
    switch (load) {
    case LoadClass::Light:
        return 0.6;
    case LoadClass::Heavy:
        return 1.6;
    case LoadClass::Nominal:
        break;
    }
    return 1.0;
}

std::string Corner::key() const
{
    const char load_letter = load_class == LoadClass::Light   ? 'l'
                             : load_class == LoadClass::Heavy ? 'h'
                                                              : 'n';
    char buf[48];
    std::snprintf(buf, sizeof buf, "v%lldt%lld%c",
                  static_cast<long long>(std::llround(vdd_v * 1000.0)),
                  static_cast<long long>(std::llround(temp_c * 10.0)), load_letter);
    return buf;
}

Corner parse_corner(std::string_view spec)
{
    const auto fail = [&] {
        HDPM_FAIL("bad corner spec '", std::string{spec},
                  "' (expected vdd:temp[:load], e.g. 0.9:85:heavy)");
    };
    Corner corner;
    const std::size_t first = spec.find(':');
    if (first == std::string_view::npos || first == 0) {
        fail();
    }
    const std::size_t second = spec.find(':', first + 1);
    const std::string vdd_text{spec.substr(0, first)};
    const std::string temp_text{spec.substr(
        first + 1, second == std::string_view::npos ? std::string_view::npos
                                                    : second - first - 1)};
    try {
        std::size_t used = 0;
        corner.vdd_v = std::stod(vdd_text, &used);
        if (used != vdd_text.size()) {
            fail();
        }
        corner.temp_c = std::stod(temp_text, &used);
        if (used != temp_text.size()) {
            fail();
        }
    } catch (const std::exception&) {
        fail();
    }
    if (second != std::string_view::npos) {
        const std::string_view load = spec.substr(second + 1);
        if (load == "light" || load == "l") {
            corner.load_class = LoadClass::Light;
        } else if (load == "nominal" || load == "n") {
            corner.load_class = LoadClass::Nominal;
        } else if (load == "heavy" || load == "h") {
            corner.load_class = LoadClass::Heavy;
        } else {
            fail();
        }
    }
    HDPM_REQUIRE(corner.vdd_v != 0.0, "corner supply out of range: 0 V");
    check_corner(corner);
    return corner;
}

TechLibrary::TechLibrary(std::string name, double vdd_v, double wire_cap_base_ff,
                         double wire_cap_per_fanout_ff,
                         std::array<GateElectrical, kNumGateKinds> cells)
    : name_(std::move(name)),
      vdd_v_(vdd_v),
      wire_cap_base_ff_(wire_cap_base_ff),
      wire_cap_per_fanout_ff_(wire_cap_per_fanout_ff),
      cells_(cells)
{
}

TechLibrary TechLibrary::derived(std::string name, double vdd_v,
                                 double wire_cap_base_ff,
                                 double wire_cap_per_fanout_ff,
                                 const CellScaling& scaling) const
{
    std::array<GateElectrical, kNumGateKinds> cells = cells_;
    for (GateElectrical& e : cells) {
        e.input_cap_ff *= scaling.cap_scale;
        e.output_cap_ff *= scaling.cap_scale;
        e.internal_energy_fj *= scaling.energy_scale;
        e.intrinsic_delay_ps *= scaling.delay_scale;
        e.delay_per_ff_ps *= scaling.slope_scale;
    }
    TechLibrary out{std::move(name), vdd_v, wire_cap_base_ff, wire_cap_per_fanout_ff,
                    cells};
    out.time_scale_ = time_scale_;
    return out;
}

double TechLibrary::corner_supply(const Corner& corner) const
{
    check_corner(corner);
    const double v = corner.vdd_v != 0.0 ? corner.vdd_v : vdd_v_;
    const double vth = kVthFraction * vdd_v_;
    HDPM_REQUIRE(v > vth, "corner supply ", v, " V at or below the threshold ", vth,
                 " V of library '", name_, "'");
    return v;
}

ChargeLaw TechLibrary::corner_charge_law(const Corner& corner) const
{
    return {corner_supply(corner) / vdd_v_,
            kEnergyTempPerC * (corner.temp_c - kNominalTempC)};
}

double TechLibrary::corner_energy_scale(const Corner& corner) const
{
    const ChargeLaw law = corner_charge_law(corner);
    return law.supply_ratio * law.supply_ratio * (1.0 + law.internal_excess);
}

double TechLibrary::corner_delay_scale(const Corner& corner) const
{
    const double v = corner_supply(corner);
    const double vth = kVthFraction * vdd_v_;
    return (alpha_power_factor(v, vth) / alpha_power_factor(vdd_v_, vth)) *
           (1.0 + kDelayTempPerC * (corner.temp_c - kNominalTempC));
}

TechLibrary TechLibrary::at(const Corner& corner) const
{
    const double v = corner_supply(corner);
    CellScaling scaling;
    scaling.energy_scale = corner_energy_scale(corner);
    const double delay_scale = corner_delay_scale(corner);
    HDPM_REQUIRE(scaling.energy_scale > 0.0 && delay_scale > 0.0,
                 "corner scaling degenerate at ", corner.key());
    // Delays keep the load class's nominal values; the corner's delay
    // factor is a dilation of reported time, not of the simulated delays.
    const double wire = load_class_wire_scale(corner.load_class);
    TechLibrary out = derived(name_ + "@" + corner.key(), v, wire_cap_base_ff_ * wire,
                              wire_cap_per_fanout_ff_ * wire, scaling);
    out.time_scale_ *= delay_scale;
    return out;
}

namespace {

std::array<GateElectrical, kNumGateKinds> generic350_cells()
{
    std::array<GateElectrical, kNumGateKinds> c{};
    auto set = [&](GateKind k, GateElectrical e) { c[static_cast<std::size_t>(k)] = e; };
    //                 in-cap out-cap  E-int  t0     slope
    set(GateKind::Const0, {0.0, 0.5, 0.0, 0.0, 0.0});
    set(GateKind::Const1, {0.0, 0.5, 0.0, 0.0, 0.0});
    set(GateKind::Buf, {4.0, 3.0, 5.0, 70.0, 2.5});
    set(GateKind::Inv, {4.0, 3.0, 4.0, 40.0, 3.0});
    set(GateKind::And2, {5.0, 3.5, 9.0, 90.0, 3.0});
    set(GateKind::Nand2, {5.0, 4.0, 6.0, 60.0, 3.2});
    set(GateKind::Or2, {5.0, 3.5, 9.5, 95.0, 3.0});
    set(GateKind::Nor2, {5.0, 4.5, 7.0, 70.0, 3.5});
    set(GateKind::Xor2, {7.0, 5.0, 14.0, 120.0, 3.4});
    set(GateKind::Xnor2, {7.0, 5.0, 14.5, 125.0, 3.4});
    set(GateKind::And3, {5.5, 4.0, 12.0, 110.0, 3.1});
    set(GateKind::Nand3, {5.5, 4.5, 8.0, 80.0, 3.3});
    set(GateKind::Or3, {5.5, 4.0, 12.5, 115.0, 3.1});
    set(GateKind::Nor3, {5.5, 5.0, 9.0, 90.0, 3.7});
    set(GateKind::Xor3, {7.5, 5.5, 22.0, 180.0, 3.5});
    set(GateKind::Mux2, {6.0, 4.5, 11.0, 100.0, 3.2});
    set(GateKind::Aoi21, {5.5, 4.5, 8.0, 75.0, 3.4});
    set(GateKind::Oai21, {5.5, 4.5, 8.0, 75.0, 3.4});
    set(GateKind::Maj3, {6.0, 5.0, 13.0, 110.0, 3.3});
    return c;
}

} // namespace

const TechLibrary& TechLibrary::generic350()
{
    static const TechLibrary lib{"generic350", 3.3, 2.0, 1.5, generic350_cells()};
    return lib;
}

const TechLibrary& TechLibrary::generic180()
{
    // Capacitances ~0.45×, delays ~0.4×, internal energies ~0.2× of the
    // 350 nm library — a coarse constant-field scaling, expressed through
    // the same derivation machinery operating corners use. The slope in
    // ps/fF shrinks less (thinner wires); the wire capacitances are the
    // historical hand-picked values, not a clean single factor.
    static const TechLibrary lib = generic350().derived(
        "generic180", 1.8, 1.0, 0.8, CellScaling{0.45, 0.20, 0.40, 0.90});
    return lib;
}

} // namespace hdpm::gate

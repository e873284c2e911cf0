/// hdpower_cli — command-line front end to the library, the shape of tool
/// a downstream user would script against:
///
///   hdpower_cli list
///   hdpower_cli info <module> <width...> [--corner VDD:TEMP[:LOAD]]
///   hdpower_cli characterize <module> <width...> [--models DIR] [--budget N]
///                                                [--enhanced [K]]
///   hdpower_cli estimate <module> <width...> --data <I|II|III|IV|V>
///                        [--patterns N] [--models DIR] [--verify]
///                        [--stream FILE]... [--threads N] [--enhanced [K]]
///   hdpower_cli report <module> <width...> --data <type> [--patterns N]
///                        [--top K]
///   hdpower_cli sweep <module> <wmin> <wmax> --data <type>
///                        [--models DIR] [--budget N]
///
/// Characterized models are cached in the model library directory
/// (default ./hdpm_models), so a repeated characterize or estimate loads
/// them and simulates nothing.
///
/// Every numeric flag and width is a plain decimal integer: a sign,
/// trailing characters or an out-of-range value is a usage error.
///
/// Exit codes: 0 = success; 1 = runtime failure; 2 = usage error;
/// 3 = characterization completed but degraded (some stimulus shards
/// failed and were skipped — the model is usable but has reduced
/// coverage; rerun with --strict to turn the first failure fatal).

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/hdpower.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace hdpm;
using cli::parse_data_type;

namespace {

[[noreturn]] void usage(const char* argv0)
{
    std::cerr << "usage: " << argv0 << " <command> [args]\n"
              << "commands:\n"
              << "  list\n"
              << "  info <module> <width...> [--corner VDD:TEMP[:LOAD]]\n"
              << "  characterize <module> <width...> [--models DIR] [--budget N] "
                 "[--enhanced [K]] [--threads N]\n"
                 "                                   [--checkpoint FILE] [--strict] "
                 "[--backend event|emulation] [--calibration N] [--shard-size N]\n"
                 "                                   [--corner VDD:TEMP[:LOAD]] "
                 "[--corners SPEC,SPEC,...]\n"
              << "  estimate <module> <width...> --data <I..V> [--patterns N] "
                 "[--models DIR] [--verify] [--threads N]\n"
                 "                               [--stream FILE]... "
                 "[--enhanced [K]]\n"
                 "                               [--simd scalar|avx2|avx512|auto] "
                 "[--repeat N] [--corner VDD:TEMP[:LOAD]]\n"
              << "  report <module> <width...> --data <I..V> [--patterns N] [--top K]\n"
              << "  sweep <module> <wmin> <wmax> --data <I..V> [--models DIR] "
                 "[--budget N] [--threads N]\n"
              << "--threads 0 (the default) uses every hardware thread;\n"
              << "characterization results are bit-identical for any thread count\n"
              << "and with or without a checkpoint journal.\n"
              << "--checkpoint FILE journals completed shards crash-safely so a\n"
              << "killed run resumes where it stopped; --strict makes the first\n"
              << "shard failure fatal instead of degrading coverage.\n"
              << "--simd pins the estimation kernel's instruction tier (default auto =\n"
              << "widest the host supports); every tier is bit-identical.\n"
              << "--backend emulation scores stimulus word-parallel (64 pairs per\n"
              << "pass) with a glitch correction calibrated on --calibration N\n"
              << "event-kernel pairs (default 512); --backend event (the default)\n"
              << "runs the exact event kernel for every pair.\n"
              << "--corner VDD:TEMP[:LOAD] characterizes/estimates at a derived\n"
              << "operating corner (volts, deg C, light|nominal|heavy wire load);\n"
              << "--corners SPEC,SPEC,... characterizes every listed corner in one\n"
              << "amortized stimulus sweep (see docs/corners.md).\n"
              << "modules wider than 64 input bits are served via the section-5\n"
              << "parameterizable family (characterized at small prototype widths).\n"
              << "numeric flags and widths take plain decimal integers (no sign).\n"
              << "exit codes: 0 ok, 1 runtime failure, 2 usage, 3 completed degraded\n";
    std::exit(2);
}

struct Cli : cli::CharFlags {
    dp::ModuleType module_type{};
    std::vector<int> widths;
    std::string models_dir = "hdpm_models";
    std::size_t patterns = 2000;
    std::size_t top_k = 10;
    unsigned threads = 0;
    std::string checkpoint;
    bool strict = false;
    bool verify = false;
    bool has_data = false;
    streams::DataType data{};
    std::vector<std::string> stream_files; ///< one CSV per operand
    std::optional<util::cpu::SimdLevel> simd; ///< nullopt = runtime auto
    std::size_t repeat = 1; ///< estimate: serve the query N times
    std::optional<gate::Corner> corner;  ///< single operating corner
    std::vector<gate::Corner> corners;   ///< multi-corner sweep list
};

/// Parse a comma-separated corner list ("3.3:25,2.5:85:heavy,...").
std::vector<gate::Corner> parse_corner_list(const std::string& spec)
{
    std::vector<gate::Corner> corners;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        const std::size_t comma = spec.find(',', begin);
        const std::string item = spec.substr(
            begin, comma == std::string::npos ? std::string::npos : comma - begin);
        if (!item.empty()) {
            const gate::Corner corner = gate::parse_corner(item);
            // Corners with one key are one corner (Corner::key): a repeat
            // would characterize and store it twice.
            if (std::ranges::any_of(corners, [&](const gate::Corner& seen) {
                    return seen.key() == corner.key();
                })) {
                std::cerr << "--corners lists corner " << corner.key() << " twice\n";
                std::exit(2);
            }
            corners.push_back(corner);
        }
        if (comma == std::string::npos) {
            break;
        }
        begin = comma + 1;
    }
    if (corners.empty()) {
        std::cerr << "--corners needs at least one VDD:TEMP[:LOAD] spec\n";
        std::exit(2);
    }
    return corners;
}

Cli parse_module_args(int argc, char** argv, int start)
{
    Cli cli;
    if (start >= argc) {
        usage(argv[0]);
    }
    cli.module_type = dp::module_type_from_id(argv[start]);
    cli::FlagReader args{argc, argv, start + 1};
    cli.widths = args.widths();
    if (cli.widths.empty()) {
        std::cerr << "missing width(s)\n";
        usage(argv[0]);
    }
    while (args.next()) {
        const std::string& flag = args.flag();
        if (cli.read(args)) {
            continue;
        }
        if (flag == "--models") {
            cli.models_dir = args.value();
        } else if (flag == "--patterns") {
            args.number(cli.patterns);
        } else if (flag == "--top") {
            args.number(cli.top_k);
        } else if (flag == "--threads") {
            args.number(cli.threads);
        } else if (flag == "--checkpoint") {
            cli.checkpoint = args.value();
        } else if (flag == "--strict") {
            cli.strict = true;
        } else if (flag == "--data") {
            cli.data = parse_data_type(args.value());
            cli.has_data = true;
        } else if (flag == "--stream") {
            cli.stream_files.push_back(args.value());
        } else if (flag == "--simd") {
            const std::string tier = args.value();
            bool ok = false;
            cli.simd = util::cpu::parse_level(tier, &ok);
            if (!ok) {
                std::cerr << "unknown SIMD tier '" << tier
                          << "' (use scalar, avx2, avx512, or auto)\n";
                std::exit(2);
            }
        } else if (flag == "--repeat") {
            args.positive_number(cli.repeat);
        } else if (flag == "--verify") {
            cli.verify = true;
        } else if (flag == "--corner") {
            cli.corner = gate::parse_corner(args.value());
        } else if (flag == "--corners") {
            cli.corners = parse_corner_list(args.value());
        } else {
            std::cerr << "unknown flag '" << flag << "'\n";
            usage(argv[0]);
        }
    }
    if (cli.corner.has_value() && !cli.corners.empty()) {
        std::cerr << "--corner and --corners are mutually exclusive (a sweep takes "
                     "its corners from --corners)\n";
        std::exit(2);
    }
    return cli;
}

core::CharacterizationOptions char_options(const Cli& cli)
{
    core::CharacterizationOptions options = cli.options();
    options.threads = cli.threads;
    options.checkpoint = cli.checkpoint;
    options.strict_faults = cli.strict;
    options.corner = cli.corner;
    return options;
}

/// Print any shard failures a (non-strict) run captured; true when the run
/// completed degraded — the CLI then exits 3 so scripts can tell a clean
/// model from a reduced-coverage one.
bool report_shard_failures(const core::CharRunStats& stats)
{
    if (stats.shard_failures.empty()) {
        return false;
    }
    std::cerr << "warning: " << stats.shard_failures.size()
              << " stimulus shard(s) failed and were skipped:\n";
    for (const auto& failure : stats.shard_failures) {
        std::cerr << "  shard " << failure.shard << " ["
                  << util::fault_kind_name(failure.kind) << "]: " << failure.message
                  << '\n';
    }
    return true;
}

/// Progress ticker on stderr: one carriage-return-updated line (callers
/// print the terminating newline once the run finished).
core::ProgressFn stderr_progress()
{
    return [](const core::CharProgress& p) {
        std::cerr << "\r  characterizing: " << p.records << '/' << p.max_records
                  << " transitions (shard " << p.shards_merged << '/'
                  << p.shards_planned << ")   " << std::flush;
    };
}

int cmd_list()
{
    util::TextTable modules;
    modules.set_header({"module id", "display name", "operands", "complexity basis"});
    modules.set_alignment({util::Align::Left, util::Align::Left});
    for (const dp::ModuleType type : dp::all_module_types()) {
        std::string basis;
        for (const auto& term : dp::complexity_basis(type).term_names) {
            basis += basis.empty() ? term : (", " + term);
        }
        modules.add_row({dp::module_type_id(type), dp::module_type_display(type),
                         std::to_string(dp::module_num_operands(type)), basis});
    }
    modules.print(std::cout);

    util::TextTable types;
    types.set_header({"data type", "name"});
    types.set_alignment({util::Align::Left, util::Align::Left});
    for (const streams::DataType type : streams::all_data_types()) {
        types.add_row({streams::data_type_label(type), streams::data_type_name(type)});
    }
    std::cout << '\n';
    types.print(std::cout);
    return 0;
}

int cmd_info(const Cli& cli)
{
    const dp::DatapathModule module = dp::make_module(cli.module_type, cli.widths);
    const auto stats = module.netlist().stats();
    // At a --corner the critical path is reported in that corner's time
    // (the class-nominal path dilated by its delay factor).
    const gate::TechLibrary library =
        cli.corner.has_value() ? gate::TechLibrary::generic350().at(*cli.corner)
                               : gate::TechLibrary::generic350();
    const sim::ElectricalView view{module.netlist(), library};

    std::cout << module.display_name() << '\n';
    std::cout << "  input bits (m):    " << module.total_input_bits() << '\n';
    std::cout << "  cells:             " << stats.num_cells << '\n';
    std::cout << "  nets:              " << stats.num_nets << '\n';
    std::cout << "  outputs:           " << stats.num_outputs << '\n';
    std::cout << "  total capacitance: " << view.total_cap_ff() << " fF\n";
    std::cout << "  critical path:     " << view.critical_path_ps() << " ps\n";
    std::cout << "  gate mix:\n";
    for (int k = 0; k < gate::kNumGateKinds; ++k) {
        if (stats.cells_per_kind[static_cast<std::size_t>(k)] > 0) {
            std::cout << "    " << gate::gate_name(static_cast<gate::GateKind>(k)) << ": "
                      << stats.cells_per_kind[static_cast<std::size_t>(k)] << '\n';
        }
    }
    return 0;
}

/// Characterize over the run's corner list: --corners, or the one --corner
/// (native when unset). Every corner's stored, current model is looked up
/// first; when all are there nothing is simulated. Otherwise one record
/// collection scores every corner, each corner is fitted and stored, and
/// the quality report is printed from that run's records.
int cmd_characterize(const Cli& cli)
{
    const core::ModelLibrary library{cli.models_dir};
    std::vector<std::optional<gate::Corner>> corners(cli.corners.begin(), cli.corners.end());
    if (corners.empty()) {
        corners.push_back(cli.corner);
    }
    // Each corner's model is stored under its single-corner options — the
    // caller's, whatever mode the enhanced collection pins below.
    const auto stored_options = [&](std::size_t k) {
        core::CharacterizationOptions options = char_options(cli);
        options.corner = corners[k];
        return options;
    };
    // Per corner: its model's average deviation.
    std::vector<double> deviations(corners.size(), 0.0);
    bool all_stored = true;
    for (std::size_t k = 0; k < corners.size() && all_stored; ++k) {
        std::optional<double> deviation;
        if (cli.enhanced) {
            if (const auto model = library.find_enhanced(cli.module_type, cli.widths,
                                                         cli.zero_clusters, stored_options(k))) {
                deviation = model->average_deviation();
            }
        } else if (const auto model =
                       library.find_basic(cli.module_type, cli.widths, stored_options(k))) {
            deviation = model->average_deviation();
        }
        all_stored = deviation.has_value();
        deviations[k] = deviation.value_or(0.0);
    }

    const dp::DatapathModule module = dp::make_module(cli.module_type, cli.widths);
    const int m = module.total_input_bits();
    core::CharRunStats stats;
    std::vector<std::vector<core::CharacterizationRecord>> records;
    bool degraded = false;
    if (!all_stored) {
        core::CharacterizationOptions options = char_options(cli);
        options.corners = cli.corners;
        options.progress = stderr_progress();
        options.stats = &stats;
        // StratifiedPairs is the one mode that populates every (i, z) class
        // of the enhanced model; an explicitly set mode is respected.
        if (cli.enhanced && !options.mode.has_value()) {
            options.mode = core::StimulusMode::StratifiedPairs;
        }
        const core::Characterizer characterizer;
        if (cli.corners.empty()) {
            // A native run is no gate::Corner, and a one-corner sweep would
            // stamp its journal differently: this run collects as itself.
            records.push_back(characterizer.collect_records(module, options));
        } else {
            records = characterizer.collect_records_corners(module, options);
        }
        std::cerr << '\n';
        degraded = report_shard_failures(stats);

        // Every corner's records are bit-identical to an independent
        // single-corner run at that corner, so each is stored under that
        // run's fingerprint.
        for (std::size_t k = 0; k < corners.size(); ++k) {
            if (cli.enhanced) {
                const core::EnhancedHdModel model =
                    core::fit_enhanced_model(m, cli.zero_clusters, records[k]);
                library.store_enhanced(cli.module_type, cli.widths, cli.zero_clusters,
                                       stored_options(k), model);
                deviations[k] = model.average_deviation();
            } else {
                const core::HdModel model = core::fit_basic_model(m, records[k]);
                library.store_basic(cli.module_type, cli.widths, stored_options(k), model);
                deviations[k] = model.average_deviation();
            }
        }
    }

    util::TextTable table;
    table.set_header({"corner", "model key", "avg deviation"});
    table.set_alignment({util::Align::Left, util::Align::Left});
    for (std::size_t k = 0; k < corners.size(); ++k) {
        const std::optional<gate::Corner>& corner = corners[k];
        table.add_row(
            {corner.has_value() ? util::TextTable::fmt(corner->vdd_v, 2) + " V, " +
                                      util::TextTable::fmt(corner->temp_c, 1) + " C, " +
                                      gate::load_class_name(corner->load_class)
                                : "native",
             library.model_key(cli.module_type, cli.widths, corner),
             util::TextTable::fmt(100.0 * deviations[k], 2) + "%"});
    }
    std::cout << (cli.enhanced ? "enhanced" : "basic") << " models of "
              << module.display_name() << " (m = " << m << ") under "
              << library.directory().string() << ":\n";
    table.print(std::cout);
    if (all_stored) {
        std::cout << "every model was stored: nothing simulated\n";
        return 0;
    }

    for (std::size_t k = 0; k < corners.size(); ++k) {
        if (corners.size() > 1) {
            std::cout << "\ncorner " << corners[k]->key() << ":\n";
        }
        // The run's counters print once, in the first corner's report.
        core::print_characterization_report(
            std::cout, k == 0 ? core::summarize_characterization(m, records[k], stats)
                              : core::summarize_characterization(m, records[k]));
    }
    return degraded ? 3 : 0;
}

/// The section-5 parameterizable family of the CLI's module, fitted from
/// the basic models of @p prototype_widths (one operand-width list each).
/// The prototypes are characterized — or loaded — on --threads workers,
/// one thread each (the model library is thread-safe and single-flight).
core::ParameterizableModel fit_family(const Cli& cli, const core::ModelLibrary& library,
                                      const std::vector<std::vector<int>>& prototype_widths)
{
    const util::ThreadPool pool{cli.threads};
    core::CharacterizationOptions options = char_options(cli);
    options.threads = 1; // parallelism is spent across prototypes
    const std::vector<core::PrototypeModel> prototypes =
        pool.parallel_map(prototype_widths.size(), [&](std::size_t i) {
            core::PrototypeModel proto;
            proto.operand_widths = prototype_widths[i];
            proto.model =
                library.get_or_characterize(cli.module_type, prototype_widths[i], options);
            return proto;
        });
    return core::ParameterizableModel::fit(cli.module_type, prototypes, cli.threads);
}

int cmd_estimate(const Cli& cli)
{
    if (!cli.has_data && cli.stream_files.empty()) {
        std::cerr << "estimate requires --data or --stream\n";
        return 2;
    }
    const core::ModelLibrary library{cli.models_dir};
    const dp::DatapathModule module = dp::make_module(cli.module_type, cli.widths);

    // Pack the operand streams once; every evaluation below reuses the
    // trace without re-materializing per-sample patterns.
    std::vector<std::vector<std::int64_t>> operands;
    std::string source;
    if (!cli.stream_files.empty()) {
        if (cli.stream_files.size() != module.operand_widths().size()) {
            std::cerr << "module expects " << module.operand_widths().size()
                      << " operand stream(s), got " << cli.stream_files.size() << '\n';
            return 2;
        }
        for (const std::string& path : cli.stream_files) {
            operands.push_back(streams::load_stream(path));
            source += source.empty() ? path : (", " + path);
        }
    } else {
        operands = core::make_operand_streams(module, cli.data, cli.patterns, 2026);
        source = "data type " + std::string{streams::data_type_label(cli.data)};
    }
    const streams::PackedTrace trace =
        streams::PackedTrace::from_operands(operands, module.operand_widths());
    if (trace.out_of_range() > 0) {
        std::cerr << "warning: " << trace.out_of_range()
                  << " operand value(s) across " << trace.size()
                  << " pattern(s) exceeded their operand's two's-complement "
                     "range and were truncated to the operand width\n";
        const auto per_operand = trace.out_of_range_by_operand();
        for (std::size_t op = 0; op < per_operand.size(); ++op) {
            if (per_operand[op] == 0) {
                continue;
            }
            std::cerr << "  operand " << op << " ("
                      << (op < cli.stream_files.size() ? cli.stream_files[op]
                                                       : "generated")
                      << ", " << trace.operand_widths()[op] << " bits): "
                      << per_operand[op] << " truncated sample(s)\n";
        }
    }

    const bool wide = module.total_input_bits() > util::BitVec::kMaxWidth;
    if (wide && cli.enhanced) {
        std::cerr << "modules wider than " << util::BitVec::kMaxWidth
                  << " input bits have no enhanced-model family; rerun without "
                     "--enhanced\n";
        return 2;
    }
    if (wide && cli.verify) {
        std::cerr << "--verify replays the trace through the reference gate-level "
                     "simulator, which is limited to "
                  << util::BitVec::kMaxWidth
                  << " input bits; rerun without --verify\n";
        return 2;
    }

    streams::KernelOptions kernel_options;
    kernel_options.threads = cli.threads;
    kernel_options.simd = cli.simd;
    core::EstimationEngine engine{kernel_options};

    double estimate = 0.0;
    std::string model_desc;
    if (cli.enhanced) {
        const core::EnhancedHdModel model = library.get_or_characterize_enhanced(
            cli.module_type, cli.widths, cli.zero_clusters, char_options(cli));
        for (std::size_t r = 0; r < cli.repeat; ++r) {
            estimate = engine.estimate(model, trace);
        }
        model_desc = "enhanced model";
    } else if (wide) {
        // Too wide to simulate directly (the characterizer's pattern
        // encoding is 64-bit-bounded): characterize small square
        // prototypes of the same family and fit the section-5
        // parameterizable regression, then instantiate the model at the
        // requested widths. Coefficient indices beyond the largest
        // prototype extrapolate (clamped to the highest fitted index).
        std::vector<std::vector<int>> prototype_widths;
        for (const int scale : {4, 6, 8}) {
            prototype_widths.emplace_back(cli.widths.size(), scale);
        }
        const core::ParameterizableModel family = fit_family(cli, library, prototype_widths);
        const core::HdModel model = family.model_for(cli.widths);
        for (std::size_t r = 0; r < cli.repeat; ++r) {
            estimate = engine.estimate(model, trace);
        }
        model_desc = "parameterizable family (prototype widths 4, 6, 8; Hd > " +
                     std::to_string(family.max_fitted_hd()) + " clamped)";
    } else {
        const core::HdModel model =
            library.get_or_characterize(cli.module_type, cli.widths, char_options(cli));
        for (std::size_t r = 0; r < cli.repeat; ++r) {
            estimate = engine.estimate(model, trace);
        }
        model_desc = "basic Hd model";
    }

    std::cout << module.display_name() << ", " << source << " (" << trace.size()
              << " patterns, " << trace.width() << " bits in "
              << trace.words_per_sample() << " word(s)/sample):\n";
    std::cout << "  model:                " << model_desc << '\n';
    std::cout << "  macro-model estimate: " << estimate << " fC/cycle\n";
    const core::EstimateRunStats& stats = engine.stats();
    // Report the tier that actually ran: requests above the host's
    // capability are clamped by the dispatch layer.
    const auto requested = cli.simd.has_value() ? *cli.simd : util::cpu::active();
    const std::string kernel_desc =
        std::string{"packed/"} +
        util::cpu::level_name(std::min(requested, util::cpu::max_supported()));
    std::cout << "  served " << stats.cycles << " cycles in "
              << util::TextTable::fmt(stats.seconds * 1e3, 2) << " ms ("
              << util::TextTable::fmt(stats.cycles_per_second() / 1e6, 1)
              << " M cycles/s, " << kernel_desc << " kernel, "
              << stats.histograms_built << " histogram(s) built)\n";
    if (cli.repeat > 1) {
        // Repeated queries exercise the engine's histogram cache: the first
        // evaluation classifies the trace, every later one reuses the
        // cached histogram (the serving daemon's hot path, measurable here
        // without a daemon).
        const double hit_rate = stats.models > 0
                                    ? static_cast<double>(stats.cache_hits) /
                                          static_cast<double>(stats.models)
                                    : 0.0;
        std::cout << "  repeat: " << cli.repeat
                  << " evaluations, histogram cache hit-rate "
                  << util::TextTable::fmt(100.0 * hit_rate, 1) << "% ("
                  << stats.cache_hits << '/' << stats.models << ")\n";
    }

    if (cli.verify) {
        const auto patterns = trace.to_patterns();
        // Verify against the same physics the model was characterized
        // under: a --corner estimate replays through the corner-derived
        // library, not the base technology.
        const gate::TechLibrary reference_library =
            cli.corner.has_value()
                ? gate::TechLibrary::generic350().at(*cli.corner)
                : gate::TechLibrary::generic350();
        sim::PowerSimulator reference{module.netlist(), reference_library};
        const double simulated = reference.run(patterns).mean_charge_fc();
        std::cout << "  reference simulation: " << simulated << " fC/cycle\n";
        std::cout << "  average error:        "
                  << 100.0 * (estimate - simulated) / simulated << " %\n";
    }
    return 0;
}

int cmd_report(const Cli& cli)
{
    if (!cli.has_data) {
        std::cerr << "report requires --data\n";
        return 2;
    }
    const dp::DatapathModule module = dp::make_module(cli.module_type, cli.widths);
    const auto patterns = core::make_module_stream(module, cli.data, cli.patterns, 2026);

    sim::PowerSimulator power{module.netlist(), gate::TechLibrary::generic350()};
    const auto result = power.run(patterns);
    std::cout << module.display_name() << ": " << result.mean_charge_fc()
              << " fC/cycle over " << result.cycle_charge_fc.size() << " cycles, "
              << result.total_transitions << " net toggles\n\n";
    sim::print_power_report(std::cout, module.netlist(), power.simulator(), cli.top_k);

    std::cout << '\n';
    const sim::GlitchReport glitches =
        sim::analyze_glitches(module.netlist(), gate::TechLibrary::generic350(), patterns);
    sim::print_glitch_report(std::cout, glitches, cli.top_k);
    return 0;
}

int cmd_sweep(const Cli& cli)
{
    if (!cli.has_data) {
        std::cerr << "sweep requires --data\n";
        return 2;
    }
    if (cli.widths.size() != 2 || cli.widths[0] > cli.widths[1]) {
        std::cerr << "sweep takes <wmin> <wmax>\n";
        return 2;
    }
    const int wmin = cli.widths[0];
    const int wmax = cli.widths[1];

    // Characterize three prototype widths, fit the family regression, then
    // predict the whole range statistically — the section-5 workflow.
    const core::ModelLibrary library{cli.models_dir};
    const std::vector<std::vector<int>> prototype_widths{{wmin}, {(wmin + wmax) / 2}, {wmax}};
    const core::ParameterizableModel family = fit_family(cli, library, prototype_widths);
    for (const std::vector<int>& widths : prototype_widths) {
        std::cout << "prototype " << widths[0] << " ready\n";
    }

    util::TextTable table;
    table.set_header({"width", "m", "power [fC/cycle]"});
    for (int w = wmin; w <= wmax; ++w) {
        const auto values = streams::generate_stream(cli.data, w, 4000, 2026);
        const streams::WordStats stats = streams::measure_word_stats(values, w);
        const core::HdModel model = family.model_for(w);

        std::vector<streams::WordStats> operand_stats;
        // Statistical estimate needs per-operand stats matching the
        // family's expanded operand widths.
        const std::array<int, 1> width_arg = {w};
        for (const int operand_width :
             dp::expand_operand_widths(cli.module_type, width_arg)) {
            streams::WordStats s = stats;
            s.width = operand_width;
            operand_stats.push_back(s);
        }
        const double power =
            core::estimate_from_word_stats(model, operand_stats).from_distribution_fc;
        table.add_row({std::to_string(w),
                       std::to_string(model.input_bits()),
                       util::TextTable::fmt(power, 1)});
    }
    std::cout << dp::module_type_display(cli.module_type) << ", data type "
              << streams::data_type_label(cli.data)
              << " — predicted from 3 prototype characterizations:\n";
    table.print(std::cout);
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) {
        usage(argv[0]);
    }
    const std::string command = argv[1];
    try {
        if (command == "list") {
            return cmd_list();
        }
        const Cli cli = parse_module_args(argc, argv, 2);
        if (command == "info") {
            return cmd_info(cli);
        }
        if (command == "characterize") {
            return cmd_characterize(cli);
        }
        if (command == "estimate") {
            return cmd_estimate(cli);
        }
        if (command == "report") {
            return cmd_report(cli);
        }
        if (command == "sweep") {
            return cmd_sweep(cli);
        }
        usage(argv[0]);
    } catch (const util::FaultError& error) {
        // Structured failures carry the where (module, bit-width, shard)
        // and — for simulation faults — the exact (u, v) vector pair to
        // replay; keep that machine-locatable detail on one line.
        std::cerr << "error [" << util::fault_kind_name(error.kind())
                  << "]: " << error.context().describe() << '\n';
        return 1;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
}

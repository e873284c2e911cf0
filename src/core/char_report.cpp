#include "core/char_report.hpp"

#include <cmath>
#include <ostream>

#include "util/accumulators.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace hdpm::core {

double CharacterizationReport::worst_relative_ci95() const noexcept
{
    double worst = 0.0;
    for (const ClassQuality& cls : classes) {
        if (cls.samples > 0) {
            worst = std::max(worst, cls.relative_ci95());
        }
    }
    return worst;
}

std::size_t CharacterizationReport::min_class_samples() const noexcept
{
    std::size_t least = ~std::size_t{0};
    for (const ClassQuality& cls : classes) {
        least = std::min(least, cls.samples);
    }
    return classes.empty() ? 0 : least;
}

CharacterizationReport summarize_characterization(
    int input_bits, std::span<const CharacterizationRecord> records)
{
    HDPM_REQUIRE(input_bits >= 1, "bad input width");
    HDPM_REQUIRE(!records.empty(), "no records");

    std::vector<util::RunningStats> per_class(static_cast<std::size_t>(input_bits));
    util::RunningStats overall;
    for (const CharacterizationRecord& rec : records) {
        HDPM_REQUIRE(rec.hd >= 1 && rec.hd <= input_bits, "record Hd out of range");
        per_class[static_cast<std::size_t>(rec.hd - 1)].add(rec.charge_fc);
        overall.add(rec.charge_fc);
    }

    CharacterizationReport report;
    report.input_bits = input_bits;
    report.total_records = records.size();
    report.min_charge_fc = overall.min();
    report.max_charge_fc = overall.max();
    report.classes.resize(static_cast<std::size_t>(input_bits));
    for (int hd = 1; hd <= input_bits; ++hd) {
        const util::RunningStats& stats = per_class[static_cast<std::size_t>(hd - 1)];
        ClassQuality cls;
        cls.hd = hd;
        cls.samples = stats.count();
        cls.mean_fc = stats.mean();
        cls.stddev_fc = stats.stddev();
        cls.standard_error_fc =
            stats.count() > 0 ? stats.stddev() / std::sqrt(static_cast<double>(stats.count()))
                              : 0.0;
        report.classes[static_cast<std::size_t>(hd - 1)] = cls;
    }
    // Exact ε_i (paper eq. 5) in a second pass.
    std::vector<double> abs_dev(static_cast<std::size_t>(input_bits), 0.0);
    for (const CharacterizationRecord& rec : records) {
        const ClassQuality& cls = report.classes[static_cast<std::size_t>(rec.hd - 1)];
        if (cls.mean_fc > 0.0) {
            abs_dev[static_cast<std::size_t>(rec.hd - 1)] +=
                std::abs(rec.charge_fc - cls.mean_fc) / cls.mean_fc;
        }
    }
    for (int hd = 1; hd <= input_bits; ++hd) {
        ClassQuality& cls = report.classes[static_cast<std::size_t>(hd - 1)];
        cls.deviation = cls.samples > 0
                            ? abs_dev[static_cast<std::size_t>(hd - 1)] /
                                  static_cast<double>(cls.samples)
                            : 0.0;
    }
    return report;
}

CharacterizationReport summarize_characterization(
    int input_bits, std::span<const CharacterizationRecord> records,
    const CharRunStats& run)
{
    CharacterizationReport report = summarize_characterization(input_bits, records);
    report.run = run;
    return report;
}

void print_characterization_report(std::ostream& os,
                                   const CharacterizationReport& report)
{
    os << "characterization quality: " << report.total_records << " transitions, m = "
       << report.input_bits << ", charge range ["
       << util::TextTable::fmt(report.min_charge_fc, 1) << ", "
       << util::TextTable::fmt(report.max_charge_fc, 1) << "] fC\n";
    if (report.run.records > 0) {
        const CharRunStats& run = report.run;
        os << "collected " << run.records << " transitions"
           << (run.corners > 1 ? " per corner" : "") << " in "
           << util::TextTable::fmt(run.collect_wall_ms, 1) << " ms, "
           << run.sim_transitions << " net toggles, " << run.shards << " shards on "
           << run.threads << (run.threads == 1 ? " thread" : " threads");
        if (run.sim_events > 0) {
            os << ", " << util::TextTable::fmt(run.events_per_sec / 1e6, 2)
               << " M events/s (peak queue " << run.max_queue_depth << ")";
        }
        if (run.warmup_vectors > 0) {
            os << "\nwarm-up: " << run.warmup_vectors << " vectors, "
               << run.warmup_batches << " word-parallel 64-lane batches";
        }
        os << "\nbackend: " << char_backend_name(run.backend);
        if (run.backend == CharBackend::PowerEmulation) {
            os << ", " << run.emulated_pairs << " emulated pairs in "
               << run.emulation_passes << " settle passes, calibrated on "
               << run.calibration_pairs << " event-kernel pairs (residual scale "
               << util::TextTable::fmt(run.calibration_scale, 4) << ")";
        }
        os << '\n';
        if (run.shards_resumed > 0) {
            os << "resumed " << run.shards_resumed << " shard(s) from the checkpoint journal\n";
        }
    }

    util::TextTable table;
    table.set_header({"Hd", "n", "p_i [fC]", "stddev", "stderr", "±CI95 [%]",
                      "eps_i [%]"});
    for (const ClassQuality& cls : report.classes) {
        table.add_row({std::to_string(cls.hd), std::to_string(cls.samples),
                       util::TextTable::fmt(cls.mean_fc, 1),
                       util::TextTable::fmt(cls.stddev_fc, 1),
                       util::TextTable::fmt(cls.standard_error_fc, 2),
                       util::TextTable::fmt(100.0 * cls.relative_ci95(), 2),
                       util::TextTable::fmt(100.0 * cls.deviation, 1)});
    }
    table.print(os);
    os << "worst class CI95 half-width: "
       << util::TextTable::fmt(100.0 * report.worst_relative_ci95(), 2)
       << "%  min class occupancy: " << report.min_class_samples() << '\n';
}

} // namespace hdpm::core

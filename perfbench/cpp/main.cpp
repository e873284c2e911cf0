/// perfbench_bin — one workload run of the hdpower layered benchmark.
///
///   perfbench_bin --workload NAME --seed N --seconds S --trace 0|1
///                 --work DIR [--reduced] [--sabotage digest|estimate]
///
/// Runs in (and writes only below) DIR, prints one JSON object on its last
/// stdout line, and exits 0 when every output check passed, 1 when one
/// failed, 2 on a usage error. perfbench/run.py is the user-facing wrapper.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* message)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench_bin --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work DIR [--reduced] [--sabotage digest|estimate]\n",
                 message);
    std::exit(2);
}

} // namespace

int main(int argc, char** argv)
{
    Config config;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + flag).c_str());
            }
            return argv[++i];
        };
        if (flag == "--workload") {
            config.workload = next();
        } else if (flag == "--seed") {
            config.seed = std::stoull(next());
        } else if (flag == "--seconds") {
            config.seconds = std::stod(next());
        } else if (flag == "--trace") {
            config.trace = next() != "0";
        } else if (flag == "--work") {
            config.work_dir = next();
        } else if (flag == "--reduced") {
            config.reduced = true;
        } else if (flag == "--sabotage") {
            config.sabotage = next();
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (config.work_dir.empty() || config.seconds <= 0.0) {
        usage("--work DIR and a positive --seconds are required");
    }
    config.nproc = std::max<unsigned>(1, static_cast<unsigned>(allowed_cpus().size()));

    void (*workload)(const Config&, Report&) = nullptr;
    if (config.workload == "char_event") {
        workload = run_char_event;
    } else if (config.workload == "char_corners_emul") {
        workload = run_char_corners_emul;
    } else if (config.workload == "fleet_emul") {
        workload = run_fleet_emul;
    } else if (config.workload == "serve_churn") {
        workload = run_serve_churn;
    } else {
        usage(("unknown workload '" + config.workload + "'").c_str());
    }

    Report report;
    try {
        std::filesystem::create_directories(config.work_dir);
        // Relative paths from here on: Unix socket paths must stay short
        // however deep the checkout lies.
        std::filesystem::current_path(config.work_dir);
        workload(config, report);
        report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    } catch (const std::exception& error) {
        report.op(false, std::string("workload aborted: ") + error.what());
    }
    print_report(config, report);
    return report.failed == 0 && report.failures.empty() ? 0 : 1;
}

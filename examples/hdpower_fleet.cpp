/// hdpower_fleet — crash-tolerant multi-process characterization driver.
///
///   hdpower_fleet coordinate <module> <width...> --fleet DIR [--models DIR]
///                 [--budget N] [--enhanced [K]]
///                 [--backend event|emulation] [--calibration N]
///                 [--shard-size N] [--lease-shards N] [--ttl MS] [--poll MS]
///                 [--idle-timeout MS]
///   hdpower_fleet work <module> <width...> --fleet DIR
///                 [--budget N] [--enhanced [K]]
///                 [--backend event|emulation] [--calibration N]
///                 [--shard-size N] [--worker-id NAME] [--poll MS]
///                 [--plan-wait MS]
///
/// One `coordinate` process publishes the stimulus plan into the shared
/// --fleet directory, supervises worker leases (expiring stragglers and
/// re-leasing their work), merges the completed ranges in plan order and
/// stores the fitted model into --models; it never simulates. Any number
/// of `work` processes — started before, after, or instead of each other;
/// killed and replaced at will — first share the plan's glitch calibration
/// (emulation backend) by leasing its pieces, then claim shard ranges and
/// publish results, each on one thread. The stored model file is
/// byte-identical to a single-process `hdpower_cli characterize` of the
/// same module and options.
///
/// A --worker-id is 1 to 64 characters of [A-Za-z0-9._-].
///
/// The characterization flags (--budget/--enhanced/--backend/--calibration)
/// must match between coordinator and workers: they are fingerprinted into
/// the plan, and a mismatched worker refuses to run.
///
/// Exit codes: 0 = success; 1 = runtime failure; 2 = usage error.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/lease.hpp"
#include "fleet/worker.hpp"
#include "util/fault.hpp"

using namespace hdpm;

namespace {

[[noreturn]] void usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0 << " <coordinate|work> <module> <width...> --fleet DIR\n"
        << "coordinate: [--models DIR] [--budget N] [--enhanced [K]]\n"
        << "            [--backend event|emulation] [--calibration N] [--shard-size N]\n"
        << "            [--lease-shards N] [--ttl MS] [--poll MS] [--idle-timeout MS]\n"
        << "work:       [--budget N] [--enhanced [K]]\n"
        << "            [--backend event|emulation] [--calibration N] [--shard-size N]\n"
        << "            [--worker-id NAME] [--poll MS] [--plan-wait MS]\n"
        << "characterization flags must match between coordinator and workers\n"
        << "(they are fingerprinted into the published plan); a worker id is\n"
        << "1 to 64 characters of [A-Za-z0-9._-].\n"
        << "exit codes: 0 ok, 1 runtime failure, 2 usage\n";
    std::exit(2);
}

struct Cli : cli::CharFlags {
    dp::ModuleType module_type{};
    std::vector<int> widths;
    std::string fleet_dir;
    std::string models_dir = "hdpm_models";
    std::size_t lease_shards = 4;
    double ttl_ms = 5000.0;
    double poll_ms = 50.0;
    double idle_timeout_ms = 60000.0;
    double plan_wait_ms = 30000.0;
    std::string worker_id;
};

Cli parse_args(int argc, char** argv, int start)
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
        if (flag == "--fleet") {
            cli.fleet_dir = args.value();
        } else if (flag == "--models") {
            cli.models_dir = args.value();
        } else if (flag == "--lease-shards") {
            args.number(cli.lease_shards);
        } else if (flag == "--ttl") {
            args.number(cli.ttl_ms);
        } else if (flag == "--poll") {
            args.number(cli.poll_ms);
        } else if (flag == "--idle-timeout") {
            args.number(cli.idle_timeout_ms);
        } else if (flag == "--plan-wait") {
            args.number(cli.plan_wait_ms);
        } else if (flag == "--worker-id") {
            cli.worker_id = args.value();
            if (!fleet::valid_worker_id(cli.worker_id)) {
                std::cerr << "invalid value '" << cli.worker_id
                          << "' for --worker-id (use 1 to 64 characters of "
                             "[A-Za-z0-9._-])\n";
                std::exit(2);
            }
        } else {
            std::cerr << "unknown flag '" << flag << "'\n";
            usage(argv[0]);
        }
    }
    if (cli.fleet_dir.empty()) {
        std::cerr << "--fleet DIR is required\n";
        usage(argv[0]);
    }
    return cli;
}

int cmd_coordinate(const Cli& cli)
{
    fleet::FleetOptions options;
    options.fleet_dir = cli.fleet_dir;
    options.models_dir = cli.models_dir;
    options.module_type = cli.module_type;
    options.widths = cli.widths;
    options.enhanced = cli.enhanced;
    options.zero_clusters = cli.zero_clusters;
    options.char_options = cli.options();
    options.lease_shards = cli.lease_shards;
    options.lease_ttl_ms = cli.ttl_ms;
    options.poll_ms = cli.poll_ms;
    options.idle_timeout_ms = cli.idle_timeout_ms;

    fleet::FleetCoordinator coordinator{std::move(options)};
    const fleet::FleetStats stats = coordinator.run();
    std::cout << "fleet complete: " << stats.ranges_done << '/' << stats.num_ranges
              << " ranges (" << stats.shards_merged << '/' << stats.num_shards
              << " shards merged, " << stats.records << " records"
              << (stats.converged_early ? ", converged early" : "") << ", "
              << stats.calibration_pieces << " calibration pieces)\n"
              << "  leases expired:    " << stats.leases_expired << '\n'
              << "  leases quarantined:" << stats.leases_corrupt << '\n'
              << "  done quarantined:  " << stats.done_corrupt << '\n'
              << "  skewed heartbeats: " << stats.skewed_heartbeats << '\n'
              << "  workers lost:      " << stats.workers_lost << '\n'
              << "  wall:              " << stats.wall_ms << " ms\n";
    return 0;
}

int cmd_work(const Cli& cli)
{
    fleet::WorkerOptions options;
    options.fleet_dir = cli.fleet_dir;
    options.module_type = cli.module_type;
    options.widths = cli.widths;
    options.char_options = cli.options();
    options.worker_id = cli.worker_id;
    options.poll_ms = cli.poll_ms;
    options.plan_wait_ms = cli.plan_wait_ms;

    fleet::FleetWorker worker{std::move(options)};
    const fleet::WorkerStats stats = worker.run();
    std::cout << "worker done: " << stats.calibration_pieces_run
              << " calibration pieces run, " << stats.ranges_completed
              << " ranges published, " << stats.shards_run << " shards run, "
              << stats.ranges_abandoned << " abandoned, " << stats.duplicate_publishes
              << " duplicate, " << stats.ranges_failed << " failed\n";
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
        if (command == "coordinate") {
            return cmd_coordinate(parse_args(argc, argv, 2));
        }
        if (command == "work") {
            return cmd_work(parse_args(argc, argv, 2));
        }
        usage(argv[0]);
    } catch (const util::FaultError& error) {
        std::cerr << "error [" << util::fault_kind_name(error.kind())
                  << "]: " << error.what() << '\n';
        return 1;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
}

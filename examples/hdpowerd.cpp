/// hdpowerd — the estimation-serving daemon: a long-running process that
/// keeps characterized models and trace classification histograms hot and
/// answers estimate queries over a Unix-domain or loopback-TCP socket.
///
///   hdpowerd --socket /tmp/hdpowerd.sock [--models DIR] [--workers N]
///            [--queue N] [--tcp [PORT]] [--threads N] [--budget N]
///            [--hist-entries N] [--hist-bytes N] [--model-entries N]
///
/// The daemon prints one "listening on ..." line per endpoint once it is
/// accepting (scripts wait for that), serves until SIGTERM/SIGINT, then
/// drains: stops accepting, answers every request already received, flushes,
/// and exits 0. While the bounded accept queue is full, new connections get
/// a structured Overloaded response and are closed — the daemon never queues
/// unboundedly and never drops silently.
///
/// Protocol and capacity-tuning notes: docs/serving.md.

#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "cli_args.hpp"
#include "serve/server.hpp"

using namespace hdpm;

namespace {

// Self-pipe the signal handler writes to; main blocks on the read end.
int g_signal_pipe[2] = {-1, -1};

extern "C" void handle_shutdown_signal(int)
{
    const char byte = 's';
    [[maybe_unused]] const ssize_t wrote = ::write(g_signal_pipe[1], &byte, 1);
}

[[noreturn]] void usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0 << " --socket PATH [options]\n"
        << "  --socket PATH        unix-domain socket to listen on\n"
        << "  --tcp [PORT]         also listen on 127.0.0.1 (PORT 0/omitted = "
           "ephemeral)\n"
        << "  --models DIR         model library directory (default "
           "hdpowerd_models)\n"
        << "  --workers N          serving threads (default: hardware threads)\n"
        << "  --queue N            bounded accept queue; 0 = never queue "
           "(default 64)\n"
        << "  --threads N          kernel threads per histogram build (default 1)\n"
        << "  --budget N           characterize-on-miss transition budget\n"
        << "  --hist-entries N     shared histogram cache entries (default 64)\n"
        << "  --hist-bytes N       shared histogram cache byte budget\n"
        << "  --model-entries N    model cache entries (default 512)\n"
        << "  --drain-timeout MS   drain grace before blocked writers are cut "
           "(default 5000)\n"
        << "  --idle-timeout MS    close connections idle (no complete request) "
           "this long; 0 = never (default)\n"
        << "SIGTERM/SIGINT drain cleanly: accepted requests are answered, then "
           "the daemon exits 0.\n";
    std::exit(2);
}

} // namespace

int main(int argc, char** argv)
{
    serve::ServerOptions options;
    cli::FlagReader args{argc, argv, 1};
    while (args.next()) {
        const std::string& flag = args.flag();
        if (flag == "--socket") {
            options.unix_path = args.value();
        } else if (flag == "--tcp") {
            options.tcp = true;
            args.optional_number(options.tcp_port);
        } else if (flag == "--models") {
            options.models_dir = args.value();
        } else if (flag == "--workers") {
            args.number(options.workers);
        } else if (flag == "--queue") {
            args.number(options.accept_queue);
        } else if (flag == "--threads") {
            args.number(options.kernel.threads);
        } else if (flag == "--budget") {
            cli::set_budget(options.char_options,
                            cli::parse_number<std::size_t>(flag, args.value()));
        } else if (flag == "--hist-entries") {
            args.number(options.histogram_cache_entries);
        } else if (flag == "--hist-bytes") {
            args.number(options.histogram_cache_bytes);
        } else if (flag == "--model-entries") {
            args.number(options.model_cache_entries);
        } else if (flag == "--drain-timeout") {
            args.number(options.drain_timeout_ms);
        } else if (flag == "--idle-timeout") {
            args.number(options.idle_timeout_ms);
        } else {
            std::cerr << "unknown flag '" << flag << "'\n";
            usage(argv[0]);
        }
    }
    if (options.unix_path.empty() && !options.tcp) {
        usage(argv[0]);
    }

    try {
        if (::pipe(g_signal_pipe) != 0) {
            std::cerr << "error: pipe: " << std::strerror(errno) << '\n';
            return 1;
        }
        struct sigaction action{};
        action.sa_handler = handle_shutdown_signal;
        ::sigaction(SIGTERM, &action, nullptr);
        ::sigaction(SIGINT, &action, nullptr);
        ::signal(SIGPIPE, SIG_IGN);

        serve::Server server{options};
        server.start();
        if (!options.unix_path.empty()) {
            std::cout << "listening on unix:" << options.unix_path << '\n';
        }
        if (options.tcp) {
            std::cout << "listening on tcp:127.0.0.1:" << server.tcp_port() << '\n';
        }
        std::cout.flush();

        // Block until a shutdown signal arrives.
        pollfd pfd{g_signal_pipe[0], POLLIN, 0};
        while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
        }

        std::cout << "draining..." << std::endl;
        server.drain();
        const serve::ServerStatsReply stats = server.stats_snapshot();
        std::cout << "served " << stats.estimates << " estimates over "
                  << stats.connections_accepted << " connections ("
                  << stats.histograms_built << " histograms built, "
                  << stats.histogram_cache_hits << " cache hits, "
                  << stats.connections_shed << " shed, "
                  << stats.connections_idle_closed << " idle-closed)\n";
        return 0;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
}

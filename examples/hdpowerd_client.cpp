/// hdpowerd_client — command-line client for the hdpowerd daemon.
///
///   hdpowerd_client --socket PATH ping
///   hdpowerd_client --socket PATH estimate <module> <width...> --data <I..V>
///                   [--patterns N] [--repeat N] [--enhanced [K]] [--seed S]
///   hdpowerd_client --socket PATH stats
///   hdpowerd_client --socket PATH hold [--seconds S]
///
/// `estimate` generates the operand streams locally (same generator as
/// hdpower_cli), registers the packed trace with the daemon once, then
/// queries it --repeat times over one pipelined connection; the estimate is
/// printed with 17 significant digits so restart bit-identity can be
/// asserted by string comparison. `hold` opens a connection and parks on it
/// (occupying a serving worker) — the overload smoke test uses it to fill
/// the worker pool. --tcp PORT connects to 127.0.0.1 instead of a socket
/// path.
///
/// --timeout-ms bounds the connect and every request round-trip;
/// --retries N retries a refused or timed-out connect up to N extra times
/// with jittered exponential backoff (the daemon may still be coming up, or
/// restarting). Exhausting the retries is a distinct exit code so restart
/// scripts can tell "daemon never came back" from an ordinary failure.
///
/// Exit codes: 0 ok; 1 runtime/connection failure; 2 usage;
/// 4 the daemon shed the request with a structured Overloaded response;
/// 5 connect retries exhausted.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "core/hdpower.hpp"
#include "serve/client.hpp"

using namespace hdpm;
using cli::parse_data_type;
using cli::parse_number;

namespace {

[[noreturn]] void usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " (--socket PATH | --tcp PORT) [--retries N] [--timeout-ms MS] "
                 "<ping|estimate|stats|hold> [args]\n"
              << "  estimate <module> <width...> --data <I..V> [--patterns N] "
                 "[--repeat N] [--enhanced [K]] [--seed S] "
                 "[--corner VDD:TEMP[:LOAD]]\n"
              << "  hold [--seconds S]\n"
              << "exit codes: 0 ok, 1 failure, 2 usage, 4 overloaded (shed), "
                 "5 connect retries exhausted\n";
    std::exit(2);
}

} // namespace

int main(int argc, char** argv)
{
    std::string socket_path;
    std::uint16_t tcp_port = 0;
    serve::RetryPolicy retry;
    double timeout_seconds = 30.0;
    int i = 1;
    while (i < argc && argv[i][0] == '-') {
        const std::string flag = argv[i];
        if (flag == "--socket" && i + 1 < argc) {
            socket_path = argv[++i];
        } else if (flag == "--tcp" && i + 1 < argc) {
            tcp_port = parse_number<std::uint16_t>(flag, argv[++i]);
        } else if (flag == "--retries" && i + 1 < argc) {
            retry.max_attempts = 1 + parse_number<unsigned>(flag, argv[++i]);
        } else if (flag == "--timeout-ms" && i + 1 < argc) {
            timeout_seconds = parse_number<double>(flag, argv[++i]) / 1000.0;
        } else {
            usage(argv[0]);
        }
        ++i;
    }
    if (i >= argc || (socket_path.empty() && tcp_port == 0)) {
        usage(argv[0]);
    }
    const std::string command = argv[i++];

    try {
        serve::ServeClient client =
            socket_path.empty()
                ? serve::ServeClient::connect_tcp_retry(tcp_port, retry,
                                                        timeout_seconds)
                : serve::ServeClient::connect_unix_retry(socket_path, retry,
                                                         timeout_seconds);

        if (command == "ping") {
            client.ping();
            std::cout << "pong\n";
            return 0;
        }

        if (command == "stats") {
            const serve::ServerStatsReply stats = client.stats();
            std::cout << "connections_accepted " << stats.connections_accepted << '\n'
                      << "connections_shed " << stats.connections_shed << '\n'
                      << "connections_idle_closed " << stats.connections_idle_closed
                      << '\n'
                      << "requests " << stats.requests << '\n'
                      << "estimates " << stats.estimates << '\n'
                      << "errors " << stats.errors << '\n'
                      << "histograms_built " << stats.histograms_built << '\n'
                      << "histogram_cache_hits " << stats.histogram_cache_hits << '\n'
                      << "histogram_coalesced " << stats.histogram_coalesced << '\n'
                      << "model_cache_hits " << stats.model_cache_hits << '\n'
                      << "model_cache_misses " << stats.model_cache_misses << '\n'
                      << "traces_registered " << stats.traces_registered << '\n'
                      << "trace_bytes " << stats.trace_bytes << '\n'
                      << "serve_seconds " << stats.serve_seconds << '\n';
            return 0;
        }

        if (command == "hold") {
            double seconds = 30.0;
            for (; i < argc; ++i) {
                if (std::string{argv[i]} == "--seconds" && i + 1 < argc) {
                    seconds = parse_number<double>("--seconds", argv[++i]);
                }
            }
            client.ping(); // prove the connection is being served
            std::cout << "holding\n" << std::flush;
            std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
            return 0;
        }

        if (command != "estimate" || i >= argc) {
            usage(argv[0]);
        }

        // estimate <module> <width...> [flags]
        const dp::ModuleType type = dp::module_type_from_id(argv[i++]);
        cli::FlagReader args{argc, argv, i};
        const std::vector<int> widths = args.widths();
        std::size_t patterns = 2000;
        std::size_t repeat = 1;
        bool enhanced = false;
        int zero_clusters = 0;
        std::uint64_t seed = 2026;
        bool has_data = false;
        streams::DataType data{};
        std::optional<gate::Corner> corner;
        while (args.next()) {
            const std::string& flag = args.flag();
            if (flag == "--data") {
                data = parse_data_type(args.value());
                has_data = true;
            } else if (flag == "--patterns") {
                args.number(patterns);
            } else if (flag == "--repeat") {
                args.number(repeat);
                repeat = std::max<std::size_t>(1, repeat);
            } else if (flag == "--seed") {
                args.number(seed);
            } else if (flag == "--enhanced") {
                enhanced = true;
                args.optional_number(zero_clusters);
            } else if (flag == "--corner") {
                corner = gate::parse_corner(args.value());
            } else {
                usage(argv[0]);
            }
        }
        if (widths.empty() || !has_data) {
            usage(argv[0]);
        }

        const dp::DatapathModule module = dp::make_module(type, widths);
        const auto operands =
            core::make_operand_streams(module, data, patterns, seed);
        const streams::PackedTrace trace =
            streams::PackedTrace::from_operands(operands, module.operand_widths());
        const std::uint64_t trace_id = client.register_trace(trace);

        serve::EstimateRequest request;
        request.trace_id = trace_id;
        request.module_type = static_cast<std::uint8_t>(type);
        request.widths = widths;
        request.kind = enhanced ? serve::ModelKind::Enhanced : serve::ModelKind::Basic;
        request.zero_clusters = zero_clusters;
        request.corner = corner;

        // Pipeline the repeats in bounded windows: batch a window of
        // requests into one write, then read that window's in-order
        // replies. Unbounded pipelining would deadlock both blocking
        // peers once the socket buffers fill in each direction.
        constexpr std::size_t kWindow = 512;
        serve::EstimateReply reply;
        std::size_t cached = 0;
        std::size_t remaining = repeat;
        while (remaining > 0) {
            const std::size_t burst = std::min(kWindow, remaining);
            for (std::size_t r = 0; r < burst; ++r) {
                client.enqueue_estimate(request);
            }
            client.flush();
            for (std::size_t r = 0; r < burst; ++r) {
                reply = client.read_estimate_reply();
                if (reply.source == serve::HistogramSource::Cached) {
                    ++cached;
                }
            }
            remaining -= burst;
        }
        std::printf("estimate %.17g fC/cycle (%llu cycles)\n", reply.estimate_fc,
                    static_cast<unsigned long long>(reply.cycles));
        if (repeat > 1) {
            std::printf("repeat %zu, served cached %zu/%zu\n", repeat, cached, repeat);
        }
        return 0;
    } catch (const serve::ServerError& error) {
        std::cerr << "server error: " << error.what() << '\n';
        return error.overloaded() ? 4 : 1;
    } catch (const util::FaultError& error) {
        std::cerr << "error: " << error.what() << '\n';
        return error.kind() == util::FaultKind::RetriesExhausted ? 5 : 1;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
}

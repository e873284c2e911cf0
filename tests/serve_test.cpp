/// Tests of the hdpowerd serving subsystem: the framed wire protocol over
/// a Unix socket, daemon estimates bit-identical to a direct
/// EstimationEngine, mmap'd trace-file serving, the structured error
/// taxonomy (UnknownTrace / UnknownModule / Overloaded / protocol
/// faults), single-flight histogram coalescing and model-cache
/// characterize-on-miss across concurrent connections, and the clean
/// SIGTERM-style drain.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include <gtest/gtest.h>

#include "core/estimation_engine.hpp"
#include "core/model_library.hpp"
#include "core/workloads.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "streams/trace_file.hpp"
#include "util/error.hpp"

using namespace hdpm;

namespace {

namespace fs = std::filesystem;

/// One models directory for the whole test binary: the first server
/// characterizes the 8+8-bit ripple adder once, every later server (and
/// the direct-library checks) loads it from disk.
const fs::path& test_dir()
{
    static const fs::path dir = [] {
        const fs::path d = fs::temp_directory_path() / "hdpm_serve_test";
        fs::remove_all(d);
        fs::create_directories(d);
        return d;
    }();
    return dir;
}

core::CharacterizationOptions quick_char()
{
    core::CharacterizationOptions options;
    options.max_transitions = 2000;
    options.min_transitions = 1000;
    return options;
}

serve::ServerOptions quick_options(const std::string& socket_name)
{
    serve::ServerOptions options;
    options.unix_path = (test_dir() / socket_name).string();
    options.models_dir = (test_dir() / "models").string();
    options.workers = 2;
    options.char_options = quick_char();
    return options;
}

streams::PackedTrace make_trace(std::uint64_t seed, std::size_t samples = 512)
{
    const dp::DatapathModule module = dp::make_module(dp::ModuleType::RippleAdder, 8);
    const auto operands =
        core::make_operand_streams(module, streams::DataType::Music, samples, seed);
    return streams::PackedTrace::from_operands(operands, module.operand_widths());
}

serve::EstimateRequest adder_request(std::uint64_t trace_id)
{
    serve::EstimateRequest request;
    request.trace_id = trace_id;
    request.module_type = static_cast<std::uint8_t>(dp::ModuleType::RippleAdder);
    request.widths = {8};
    return request;
}

} // namespace

TEST(Serve, PingStatsAndTcpListener)
{
    serve::ServerOptions options = quick_options("ping.sock");
    options.tcp = true; // ephemeral port, read back after start
    serve::Server server{options};
    server.start();
    ASSERT_NE(server.tcp_port(), 0);

    serve::ServeClient unix_client = serve::ServeClient::connect_unix(options.unix_path);
    unix_client.ping();
    serve::ServeClient tcp_client = serve::ServeClient::connect_tcp(server.tcp_port());
    tcp_client.ping();

    const serve::ServerStatsReply stats = unix_client.stats();
    EXPECT_GE(stats.connections_accepted, 2U);
    EXPECT_GE(stats.requests, 3U);
    EXPECT_EQ(stats.errors, 0U);
    server.drain();
}

TEST(Serve, EstimateBitIdenticalToDirectEngine)
{
    const serve::ServerOptions options = quick_options("ident.sock");
    serve::Server server{options};
    server.start();

    const streams::PackedTrace trace = make_trace(11);
    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    serve::EstimateRequest request = adder_request(client.register_trace(trace));

    const serve::EstimateReply basic = client.estimate(request);
    request.kind = serve::ModelKind::Enhanced;
    request.zero_clusters = 2;
    const serve::EstimateReply enhanced = client.estimate(request);
    server.drain();

    // The daemon evaluates models from cached integer histograms; those
    // are kernel-invariant, so the result must equal the direct
    // single-threaded engine exactly — not within a tolerance.
    const core::ModelLibrary library{options.models_dir};
    core::EstimationEngine engine;
    const core::HdModel hd =
        library.get_or_characterize(dp::ModuleType::RippleAdder, request.widths,
                                    quick_char());
    EXPECT_EQ(basic.estimate_fc, engine.estimate(hd, trace));
    EXPECT_EQ(basic.cycles, trace.cycles());
    const core::EnhancedHdModel enhanced_model = library.get_or_characterize_enhanced(
        dp::ModuleType::RippleAdder, request.widths, 2, quick_char());
    EXPECT_EQ(enhanced.estimate_fc, engine.estimate(enhanced_model, trace));
}

TEST(Serve, MmapTraceFileRoundTrip)
{
    const serve::ServerOptions options = quick_options("mmap.sock");
    serve::Server server{options};
    server.start();

    const streams::PackedTrace trace = make_trace(12);
    const fs::path path = test_dir() / "roundtrip.hdt";
    streams::write_trace_file(path, trace);

    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    const std::uint64_t inline_id = client.register_trace(trace);
    const std::uint64_t mapped_id = client.open_trace_file(path.string());

    // The zero-copy mapped view must serve the same estimate as the
    // inline-shipped copy of the same samples.
    const serve::EstimateReply from_inline = client.estimate(adder_request(inline_id));
    const serve::EstimateReply from_mapped = client.estimate(adder_request(mapped_id));
    EXPECT_EQ(from_mapped.estimate_fc, from_inline.estimate_fc);
    EXPECT_EQ(from_mapped.cycles, from_inline.cycles);

    // Closing drops the id; re-estimating reports UnknownTrace.
    EXPECT_TRUE(client.close_trace(mapped_id));
    EXPECT_FALSE(client.close_trace(mapped_id));
    try {
        (void)client.estimate(adder_request(mapped_id));
        FAIL() << "estimate on a closed trace id must fail";
    } catch (const serve::ServerError& error) {
        EXPECT_EQ(error.status(),
                  static_cast<std::uint8_t>(serve::StatusCode::UnknownTrace));
    }
    server.drain();
}

TEST(Serve, StructuredErrorsKeepTheConnectionUsable)
{
    const serve::ServerOptions options = quick_options("errors.sock");
    serve::Server server{options};
    server.start();

    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    try {
        (void)client.estimate(adder_request(0xDEADBEEF));
        FAIL() << "unknown trace id must fail";
    } catch (const serve::ServerError& error) {
        EXPECT_EQ(error.status(),
                  static_cast<std::uint8_t>(serve::StatusCode::UnknownTrace));
        EXPECT_FALSE(error.overloaded());
    }

    serve::EstimateRequest bad_module = adder_request(client.register_trace(make_trace(13)));
    bad_module.module_type = 250;
    try {
        (void)client.estimate(bad_module);
        FAIL() << "unknown module id must fail";
    } catch (const serve::ServerError& error) {
        EXPECT_EQ(error.status(),
                  static_cast<std::uint8_t>(serve::StatusCode::UnknownModule));
    }

    // Rejections are answers, not connection teardowns.
    client.ping();
    EXPECT_EQ(client.stats().errors, 2U);
    server.drain();
}

TEST(Serve, MalformedFrameGetsProtocolFaultThenClose)
{
    const serve::ServerOptions options = quick_options("garbage.sock");
    serve::Server server{options};
    server.start();

    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    client.ping();

    // A one-byte frame with an unknown message type: the server answers
    // with a structured protocol fault and closes the connection rather
    // than hanging or dying.
    const std::uint8_t raw[5] = {1, 0, 0, 0, 0xEE};
    ASSERT_EQ(::send(client.fd(), raw, sizeof raw, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof raw));
    EXPECT_THROW(client.ping(), serve::ServerError);
    server.drain();
}

TEST(Serve, EstimateReplyWithUnknownSourceIsAProtocolFault)
{
    // The histogram source byte arrives from the peer: a value outside the
    // enum is a structured protocol fault, never a silently cast enum.
    serve::WireWriter writer;
    serve::encode_estimate_reply(writer, serve::EstimateReply{.estimate_fc = 1.5,
                                                              .cycles = 7});
    std::vector<std::uint8_t> bytes = writer.bytes();
    constexpr std::size_t kSourceOffset = 8 + 8; // after estimate_fc, cycles
    serve::WireReader valid{bytes};
    EXPECT_EQ(serve::decode_estimate_reply(valid).source, serve::HistogramSource::Cached);
    for (const std::uint8_t source : {std::uint8_t{3}, std::uint8_t{255}}) {
        bytes[kSourceOffset] = source;
        serve::WireReader reader{bytes};
        try {
            (void)serve::decode_estimate_reply(reader);
            FAIL() << "source byte " << int{source} << " was accepted";
        } catch (const util::FaultError& error) {
            EXPECT_EQ(error.kind(), util::FaultKind::ProtocolError);
        }
    }
}

TEST(Serve, HostileRegisterTraceIsRejectedStructurally)
{
    const serve::ServerOptions options = quick_options("hostile.sock");
    serve::Server server{options};
    server.start();

    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);

    // A sample count chosen so samples * words_per_sample wraps around
    // SIZE_MAX to the word count actually shipped (4): the server must
    // answer BadRequest, not scribble past the 4-word buffer.
    serve::WireWriter wrap;
    wrap.u8(static_cast<std::uint8_t>(serve::MessageType::RegisterTrace));
    wrap.u32(2);
    wrap.i32(64);
    wrap.i32(64);
    wrap.u64((std::uint64_t{1} << 63) + 2); // * stride 2 == 4 mod 2^64
    const std::vector<std::uint64_t> four_words(4, 0);
    wrap.words(four_words);
    serve::write_frame(client.fd(), wrap.bytes());
    auto reply = serve::read_frame(client.fd());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ((*reply)[0], static_cast<std::uint8_t>(serve::StatusCode::BadRequest));

    // An operand count far beyond the payload (a 5-byte frame claiming
    // 2^32-1 widths) is rejected before any allocation is attempted.
    serve::WireWriter flood;
    flood.u8(static_cast<std::uint8_t>(serve::MessageType::RegisterTrace));
    flood.u32(0xFFFFFFFF);
    serve::write_frame(client.fd(), flood.bytes());
    reply = serve::read_frame(client.fd());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ((*reply)[0], static_cast<std::uint8_t>(serve::StatusCode::BadRequest));

    // Both rejections were answers; the connection is still usable.
    client.ping();

    // Client side: a request whose width count does not fit the one-byte
    // wire field fails loudly at encode time instead of truncating.
    serve::EstimateRequest oversized = adder_request(1);
    oversized.widths.assign(300, 8);
    serve::WireWriter writer;
    EXPECT_THROW(serve::encode_estimate_request(writer, oversized),
                 util::FaultError);
    server.drain();
}

TEST(Serve, DrainDeadlineCutsWorkersBlockedInSend)
{
    serve::ServerOptions options = quick_options("draincut.sock");
    options.workers = 1;
    options.drain_timeout_ms = 200;
    serve::Server server{options};
    server.start();

    const streams::PackedTrace trace = make_trace(17);
    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    serve::WireWriter writer;
    writer.u8(static_cast<std::uint8_t>(serve::MessageType::Estimate));
    serve::encode_estimate_request(writer, adder_request(client.register_trace(trace)));
    std::vector<std::uint8_t> frame;
    serve::append_frame(frame, writer.bytes());

    // Blast pipelined estimate requests and never read a response: both
    // socket buffers fill and the worker blocks in send(), which a
    // read-side-only shutdown cannot unblock. The drain deadline must cut
    // the write side and complete instead of hanging on this one client.
    std::thread blaster{[&client, frame] {
        for (int i = 0; i < 50000; ++i) {
            if (::send(client.fd(), frame.data(), frame.size(), MSG_NOSIGNAL) < 0) {
                return; // the drain cut us off — expected
            }
        }
    }};
    std::this_thread::sleep_for(std::chrono::milliseconds{100}); // let it wedge

    const auto start = std::chrono::steady_clock::now();
    server.drain();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds{30});
    blaster.join();
}

TEST(Serve, OverloadShedsWithStructuredError)
{
    serve::ServerOptions options = quick_options("overload.sock");
    options.workers = 1;
    options.accept_queue = 0; // never queue: all-busy means shed
    serve::Server server{options};
    server.start();

    // Occupy the only worker with a live connection...
    serve::ServeClient holder = serve::ServeClient::connect_unix(options.unix_path);
    holder.ping();

    // ...so the next connection is refused with a structured Overloaded
    // response — a detectable shed, not a hang and not a silent drop.
    {
        serve::ServeClient shed =
            serve::ServeClient::connect_unix(options.unix_path, /*timeout=*/10.0);
        try {
            shed.ping();
            FAIL() << "expected the connection to be shed";
        } catch (const serve::ServerError& error) {
            EXPECT_TRUE(error.overloaded());
        }
    }
    EXPECT_GE(server.counters().connections_shed.load(), 1U);

    // Releasing the worker restores service (the acceptor hands the next
    // connection to the freed worker; poll briefly for the handoff).
    { serve::ServeClient done = std::move(holder); }
    bool recovered = false;
    for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
        try {
            serve::ServeClient retry =
                serve::ServeClient::connect_unix(options.unix_path, /*timeout=*/10.0);
            retry.ping();
            recovered = true;
        } catch (const serve::ServerError&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
    EXPECT_TRUE(recovered);
    server.drain();
}

TEST(Serve, ColdTraceBuildsOneHistogramAcrossConnections)
{
    const serve::ServerOptions options = quick_options("coalesce.sock");
    serve::Server server{options};
    server.start();

    // Warm the model cache so the racers contend on the histogram alone.
    serve::ServeClient warm = serve::ServeClient::connect_unix(options.unix_path);
    (void)warm.estimate(adder_request(warm.register_trace(make_trace(20))));
    const serve::ServerStatsReply before = server.stats_snapshot();

    const std::uint64_t cold_id = warm.register_trace(make_trace(21));
    constexpr int kConnections = 4;
    constexpr int kPerConnection = 16;
    std::vector<std::thread> racers;
    for (int c = 0; c < kConnections; ++c) {
        racers.emplace_back([&] {
            serve::ServeClient client =
                serve::ServeClient::connect_unix(options.unix_path);
            for (int r = 0; r < kPerConnection; ++r) {
                client.enqueue_estimate(adder_request(cold_id));
            }
            client.flush();
            for (int r = 0; r < kPerConnection; ++r) {
                (void)client.read_estimate_reply();
            }
        });
    }
    for (std::thread& thread : racers) {
        thread.join();
    }

    // Single-flight: however the 64 concurrent queries interleave, the
    // cold histogram is classified exactly once; everyone else coalesces
    // onto that build or hits the shared cache.
    const serve::ServerStatsReply after = server.stats_snapshot();
    EXPECT_EQ(after.histograms_built - before.histograms_built, 1U);
    EXPECT_EQ(after.estimates - before.estimates,
              static_cast<std::uint64_t>(kConnections * kPerConnection));
    EXPECT_EQ((after.histogram_cache_hits + after.histogram_coalesced) -
                  (before.histogram_cache_hits + before.histogram_coalesced),
              static_cast<std::uint64_t>(kConnections * kPerConnection - 1));
    server.drain();
}

TEST(Serve, ModelCacheCharacterizesOnMissOnce)
{
    // A fresh models directory: the parity tree has never been
    // characterized, and four connections ask for it at once. The sharded
    // model cache's single-flight must run characterization exactly once.
    serve::ServerOptions options = quick_options("modelmiss.sock");
    options.models_dir = (test_dir() / "models_fresh").string();
    serve::Server server{options};
    server.start();

    const dp::DatapathModule module = dp::make_module(dp::ModuleType::ParityTree, 6);
    const auto operands =
        core::make_operand_streams(module, streams::DataType::Music, 256, 30);
    const streams::PackedTrace trace =
        streams::PackedTrace::from_operands(operands, module.operand_widths());

    serve::ServeClient registrar = serve::ServeClient::connect_unix(options.unix_path);
    const std::uint64_t trace_id = registrar.register_trace(trace);
    serve::EstimateRequest request;
    request.trace_id = trace_id;
    request.module_type = static_cast<std::uint8_t>(dp::ModuleType::ParityTree);
    request.widths = {6};

    std::vector<std::thread> racers;
    std::vector<double> estimates(4, 0.0);
    for (std::size_t c = 0; c < estimates.size(); ++c) {
        racers.emplace_back([&, c] {
            serve::ServeClient client =
                serve::ServeClient::connect_unix(options.unix_path);
            estimates[c] = client.estimate(request).estimate_fc;
        });
    }
    for (std::thread& thread : racers) {
        thread.join();
    }
    const serve::ServerStatsReply stats = server.stats_snapshot();
    EXPECT_EQ(stats.model_cache_misses, 1U);
    EXPECT_EQ(stats.model_cache_hits, 3U);
    for (const double estimate : estimates) {
        EXPECT_EQ(estimate, estimates[0]);
    }
    server.drain();
}

TEST(Serve, CornerRequestsDoNotAliasInTheModelCache)
{
    // Regression: before corners entered the cache key, a request at
    // 2.5 V / 85 °C and one at the native corner both resolved to the same
    // cached model — the first requester's corner silently won for
    // everyone. Distinct corners must characterize (and serve) distinct
    // models, and the corner-scaled estimate must differ measurably from
    // the native one for the same trace.
    serve::ServerOptions options = quick_options("corner.sock");
    options.models_dir = (test_dir() / "models_corner").string();
    serve::Server server{options};
    server.start();

    const streams::PackedTrace trace = make_trace(77);
    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    serve::EstimateRequest request = adder_request(client.register_trace(trace));

    const serve::EstimateReply native = client.estimate(request);
    request.corner = gate::Corner{2.5, 85.0, gate::LoadClass::Nominal};
    const serve::EstimateReply scaled = client.estimate(request);
    // Same corner again: a cache hit, not a third characterization.
    const serve::EstimateReply scaled_again = client.estimate(request);

    const serve::ServerStatsReply stats = server.stats_snapshot();
    EXPECT_EQ(stats.model_cache_misses, 2U);
    EXPECT_GE(stats.model_cache_hits, 1U);
    EXPECT_EQ(scaled_again.estimate_fc, scaled.estimate_fc);
    // Charge ~scales linearly in supply (energy is quadratic, but the
    // estimate is fC/cycle): the 2.5 V model must land clearly below the
    // native 3.3 V one — aliasing would make them equal.
    EXPECT_LT(scaled.estimate_fc, 0.9 * native.estimate_fc);
    EXPECT_GT(scaled.estimate_fc, 0.4 * native.estimate_fc);

    // A wire-format corner outside the validated envelope is a structured
    // BadRequest, not a crash or a silent clamp.
    request.corner = gate::Corner{25.0, 25.0, gate::LoadClass::Nominal};
    try {
        (void)client.estimate(request);
        FAIL() << "out-of-range corner was accepted";
    } catch (const serve::ServerError&) {
        // expected — and the connection stays usable:
        request.corner.reset();
        EXPECT_EQ(client.estimate(request).estimate_fc, native.estimate_fc);
    }
    server.drain();
}

TEST(Serve, CornerCheckRefusesTwentyVoltsAndSubThresholdSupplies)
{
    // The wire corner passes the library's one corner check: 20 V is out of
    // range and 0.5 V sits below generic350's 0.66 V threshold, so both are
    // BadRequest answers that name the bound, before anything characterizes.
    serve::ServerOptions options = quick_options("corner_check.sock");
    options.models_dir = (test_dir() / "models_corner_check").string();
    serve::Server server{options};
    server.start();

    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    serve::EstimateRequest request = adder_request(client.register_trace(make_trace(78)));
    const std::array<std::pair<double, const char*>, 2> refused = {
        std::pair{20.0, "out of range"}, std::pair{0.5, "threshold"}};
    for (const auto& [vdd, reason] : refused) {
        request.corner = gate::Corner{vdd, 25.0, gate::LoadClass::Nominal};
        try {
            (void)client.estimate(request);
            FAIL() << vdd << " V was accepted";
        } catch (const serve::ServerError& error) {
            EXPECT_EQ(error.status(),
                      static_cast<std::uint8_t>(serve::StatusCode::BadRequest));
            EXPECT_NE(std::string{error.what()}.find(reason), std::string::npos)
                << error.what();
        }
    }
    EXPECT_EQ(server.stats_snapshot().model_cache_misses, 0U);
    server.drain();
}

TEST(Serve, DrainAnswersAcceptedWorkThenCloses)
{
    const serve::ServerOptions options = quick_options("drain.sock");
    serve::Server server{options};
    server.start();

    serve::ServeClient client = serve::ServeClient::connect_unix(options.unix_path);
    serve::EstimateRequest request = adder_request(client.register_trace(make_trace(40)));
    constexpr int kBurst = 64;
    for (int r = 0; r < kBurst; ++r) {
        client.enqueue_estimate(request);
    }
    client.flush();
    for (int r = 0; r < kBurst; ++r) {
        (void)client.read_estimate_reply();
    }

    // Drain with the connection idle-open: it must complete promptly (the
    // worker's blocked recv is woken, flushed, closed) and the client sees
    // an orderly connection close — an IoError, never a hang.
    server.drain();
    try {
        client.ping();
        FAIL() << "drained server must close the connection";
    } catch (const util::FaultError& error) {
        EXPECT_EQ(error.kind(), util::FaultKind::IoError);
    } catch (const util::RuntimeError&) {
        // A late send can also surface as a protocol-level failure;
        // anything non-hanging and typed is acceptable.
    }

    // Idempotent and restartable: a second drain is a no-op, and a new
    // server can bind the same socket path immediately.
    server.drain();
    serve::Server second{options};
    second.start();
    serve::ServeClient again = serve::ServeClient::connect_unix(options.unix_path);
    again.ping();
    second.drain();
}

TEST(Serve, RetryPolicyBackoffIsBoundedAndDeterministic)
{
    serve::RetryPolicy policy;
    policy.base_delay_ms = 50.0;
    policy.max_delay_ms = 400.0;
    policy.jitter_seed = 11;

    serve::RetryPolicy same = policy;
    double previous_cap = 0.0;
    for (unsigned attempt = 1; attempt <= 8; ++attempt) {
        const double cap =
            std::min(policy.max_delay_ms, 50.0 * static_cast<double>(1U << (attempt - 1)));
        const double delay = policy.delay_ms(attempt);
        EXPECT_GE(delay, 0.5 * cap) << "attempt " << attempt;
        EXPECT_LE(delay, cap) << "attempt " << attempt;
        EXPECT_GE(cap, previous_cap); // schedule never shrinks
        previous_cap = cap;
        // Same (seed, attempt) -> the exact same jittered wait.
        EXPECT_EQ(delay, same.delay_ms(attempt)) << "attempt " << attempt;
    }
    // A different seed spreads its retries differently (no stampede).
    serve::RetryPolicy other = policy;
    other.jitter_seed = 12;
    EXPECT_NE(policy.delay_ms(1), other.delay_ms(1));
}

TEST(Serve, ConnectRetryExhaustsWithAStructuredFault)
{
    // Nothing listens on this path: every attempt is refused, the backoff
    // runs its bounded course, and the caller gets a typed
    // RetriesExhausted with the attempt count — not a hang, not a bare
    // errno string.
    serve::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_delay_ms = 5.0;
    policy.max_delay_ms = 10.0;
    policy.jitter_seed = 7;
    const std::string path = (test_dir() / "nobody_home.sock").string();
    try {
        (void)serve::ServeClient::connect_unix_retry(path, policy, 1.0);
        FAIL() << "connect to a dead path must exhaust its retries";
    } catch (const util::FaultError& error) {
        EXPECT_EQ(error.kind(), util::FaultKind::RetriesExhausted);
        EXPECT_NE(error.context().detail.find("3 attempt(s)"), std::string::npos)
            << error.context().detail;
    }
}

TEST(Serve, ConnectRetryRidesOutADaemonStillComingUp)
{
    serve::ServerOptions options = quick_options("late_start.sock");
    serve::Server server{options};
    std::thread starter{[&server] {
        std::this_thread::sleep_for(std::chrono::milliseconds{150});
        server.start();
    }};

    // The client arrives before the listener exists; the retry loop must
    // absorb the refused connects until the daemon is up.
    serve::RetryPolicy policy;
    policy.max_attempts = 100;
    policy.base_delay_ms = 20.0;
    policy.max_delay_ms = 40.0;
    policy.jitter_seed = 3;
    serve::ServeClient client =
        serve::ServeClient::connect_unix_retry(options.unix_path, policy, 5.0);
    client.ping();
    starter.join();
    server.drain();
}

TEST(Serve, IdleConnectionIsClosedByTheDeadline)
{
    serve::ServerOptions options = quick_options("idle.sock");
    options.idle_timeout_ms = 150;
    serve::Server server{options};
    server.start();

    serve::ServeClient idle = serve::ServeClient::connect_unix(options.unix_path);
    idle.ping(); // a completed request arms the idle clock afresh

    // The server must cut the connection on its own once no further
    // complete request arrives within the deadline.
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{5};
    while (server.counters().connections_idle_closed.load() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    EXPECT_EQ(server.counters().connections_idle_closed.load(), 1U);
    EXPECT_THROW(idle.ping(), util::FaultError);

    // The deadline sheds only idle connections: a fresh client is served,
    // and the stats reply carries the idle-close count on the wire.
    serve::ServeClient fresh = serve::ServeClient::connect_unix(options.unix_path);
    const serve::ServerStatsReply stats = fresh.stats();
    EXPECT_GE(stats.connections_idle_closed, 1U);
    server.drain();
}

TEST(Serve, SlowLorisPartialFrameIsCutByIdleDeadline)
{
    serve::ServerOptions options = quick_options("loris.sock");
    options.idle_timeout_ms = 150;
    serve::Server server{options};
    server.start();

    // Drip bytes of a never-completed frame, faster than the deadline: the
    // clock runs from the last complete request, so steady traffic that
    // never finishes a frame must not hold the worker.
    serve::ServeClient loris = serve::ServeClient::connect_unix(options.unix_path);
    const std::uint8_t prefix[4] = {0x40, 0, 0, 0}; // honest 64-byte frame claim
    ASSERT_EQ(::send(loris.fd(), prefix, sizeof prefix, MSG_NOSIGNAL), 4);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds{5};
    const std::uint8_t drip = 0; // payload arrives one byte per 20 ms
    while (server.counters().connections_idle_closed.load() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
        (void)::send(loris.fd(), &drip, 1, MSG_NOSIGNAL);
        std::this_thread::sleep_for(std::chrono::milliseconds{20});
    }
    EXPECT_EQ(server.counters().connections_idle_closed.load(), 1U);

    // The server stays healthy for well-behaved clients.
    serve::ServeClient fresh = serve::ServeClient::connect_unix(options.unix_path);
    fresh.ping();
    server.drain();
}

/// The serving workload, serve_churn: an in-process serve::Server on a Unix
/// socket, driven in a closed loop by client threads of this process.
///
/// Placement: the server's workers and the client connections together use
/// at most nproc threads. The server threads are started pinned to the
/// first half of the CPUs and client c is pinned to the c-th of those same
/// CPUs, so a request and its reply can be handed over on one CPU instead
/// of waking an idle vCPU each way. On a shared VM host such wake-ups can
/// wait for milliseconds in a slow phase; with the clients on the other
/// half of the CPUs, interleaved runs in one such phase lost 40% of
/// estimate_qps and tripled estimate_p99_us, against a third and 1.6x here.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <deque>
#include <exception>
#include <optional>
#include <thread>
#include <variant>

#include "core/estimation_engine.hpp"
#include "core/model_library.hpp"
#include "core/workloads.hpp"
#include "dpgen/module.hpp"
#include "gatelib/techlib.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "streams/kernels.hpp"
#include "streams/stream.hpp"
#include "streams/trace_file.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace hdpm;

constexpr std::size_t kLiveTraces = 6; ///< traces each churn connection keeps open
/// Solo sessions per churn epoch; each epoch ends with one fan-out session.
/// Every fan-out costs two barrier round trips across all connections, so
/// fan-outs stay occasional: on an oversubscribed VM host each cross-vCPU
/// wake-up can wait milliseconds.
constexpr int kSoloSessions = 7;

struct Instance {
    dp::ModuleType type;
    std::vector<int> widths;
};

/// One pre-characterized model the server serves.
struct Served {
    std::size_t instance = 0;
    bool enhanced = false;
    std::optional<gate::Corner> corner;
    std::variant<core::HdModel, core::EnhancedHdModel> model;
};

/// A trace the clients send, with the direct-engine estimate of every
/// served model of its instance (index-aligned with Setup::by_instance).
struct TraceInput {
    std::size_t instance = 0;
    streams::PackedTrace trace;
    std::vector<double> expected;
    std::string file; ///< .hdt path when ingested by OpenTraceFile
};

struct Setup {
    std::vector<Instance> instances;
    std::vector<Served> models;
    std::vector<std::vector<std::size_t>> by_instance; ///< model indices per instance
    std::vector<TraceInput> traces;
    double model_err_pct = 0.0;
};

/// Characterization options of the served models (and of cache misses).
core::CharacterizationOptions serve_char_options()
{
    core::CharacterizationOptions options;
    options.max_transitions = 2000;
    options.min_transitions = 2000;
    options.backend = core::CharBackend::PowerEmulation;
    options.calibration_pairs = 256;
    return options;
}

serve::ServerOptions server_options(const std::string& socket, unsigned workers)
{
    serve::ServerOptions options;
    options.unix_path = socket;
    options.workers = workers;
    options.models_dir = "models";
    options.char_options = serve_char_options();
    return options;
}

const gate::Corner kOtherCorner{2.7, 85.0, gate::LoadClass::Nominal};

double estimate_with(core::EstimationEngine& engine, const Served& served,
                     const streams::PackedTrace& trace)
{
    return std::visit([&](const auto& m) { return engine.estimate(m, trace); },
                      served.model);
}

/// Characterize (basic, enhanced) x (native, other corner) for every
/// instance into ./models, compute model_err_pct against the event kernel
/// on a fixed held-out music stream, and generate the seeded traces (1024
/// to 8192 samples, every data type) with their expected estimates; every
/// second trace is also written as an .hdt file.
Setup make_setup(const Config& config, std::vector<Instance> instances,
                 std::size_t traces)
{
    fs::remove_all("models");
    fs::remove_all("traces");
    fs::create_directories("traces");
    Setup setup;
    setup.instances = std::move(instances);
    const core::ModelLibrary library{"models"};
    double err_sum = 0.0;
    for (std::size_t i = 0; i < setup.instances.size(); ++i) {
        const Instance& inst = setup.instances[i];
        const dp::DatapathModule module = dp::make_module(inst.type, inst.widths);
        const auto held_out_ops = core::make_operand_streams(
            module, streams::DataType::Music, config.reduced ? 64 : 300, kHeldOutSeed);
        const auto held_out =
            streams::PackedTrace::from_operands(held_out_ops, module.operand_widths());
        const auto patterns = core::encode_module_stream(module, held_out_ops);
        setup.by_instance.emplace_back();
        for (const std::optional<gate::Corner>& corner :
             {std::optional<gate::Corner>{}, std::optional<gate::Corner>{kOtherCorner}}) {
            const double reference = reference_charge_fc(module, corner, patterns);
            core::CharacterizationOptions options = serve_char_options();
            options.corner = corner;
            for (const bool enhanced : {false, true}) {
                Served served{i, enhanced, corner, core::HdModel{}};
                if (enhanced) {
                    served.model = library.get_or_characterize_enhanced(inst.type,
                                                                        inst.widths, 0,
                                                                        options);
                } else {
                    served.model = library.get_or_characterize(inst.type, inst.widths,
                                                               options);
                }
                core::EstimationEngine engine;
                err_sum += std::abs(estimate_with(engine, served, held_out) - reference) /
                           reference;
                setup.by_instance[i].push_back(setup.models.size());
                setup.models.push_back(std::move(served));
            }
        }
    }
    setup.model_err_pct = 100.0 * err_sum / static_cast<double>(setup.models.size());

    const auto types = streams::all_data_types();
    for (std::size_t t = 0; t < traces; ++t) {
        TraceInput input;
        input.instance = t % setup.instances.size();
        const Instance& inst = setup.instances[input.instance];
        const dp::DatapathModule module = dp::make_module(inst.type, inst.widths);
        const std::size_t samples = std::size_t{1024} << (t / setup.instances.size() % 4);
        const auto operands = core::make_operand_streams(
            module, types[t % types.size()], config.reduced ? samples / 8 : samples,
            config.seed * 1000003ULL + t);
        input.trace = streams::PackedTrace::from_operands(operands, module.operand_widths());
        core::EstimationEngine engine;
        for (const std::size_t m : setup.by_instance[input.instance]) {
            input.expected.push_back(estimate_with(engine, setup.models[m], input.trace));
        }
        if (t % 2 == 1) {
            input.file = "traces/t" + std::to_string(t) + ".hdt";
            streams::write_trace_file(input.file, input.trace);
        }
        setup.traces.push_back(std::move(input));
    }
    if (config.sabotage == "estimate") {
        setup.traces[0].expected[0] = std::nextafter(setup.traces[0].expected[0], 0.0);
    }
    return setup;
}

Setup setup_once(const Config& config, Report& report,
                 const std::vector<Instance>& instances, std::size_t traces)
{
    Setup setup =
        timed_setup(report, [&] { return make_setup(config, instances, traces); });
    report.set("model_err_pct", setup.model_err_pct, "%");
    report.set_exact("model_err_pct", std::to_string(setup.model_err_pct));
    return setup;
}

serve::EstimateRequest request_for(const Setup& setup, std::size_t model,
                                   std::uint64_t trace_id)
{
    const Served& served = setup.models[model];
    const Instance& inst = setup.instances[served.instance];
    serve::EstimateRequest request;
    request.trace_id = trace_id;
    request.module_type = static_cast<std::uint8_t>(inst.type);
    request.widths = inst.widths;
    request.kind = served.enhanced ? serve::ModelKind::Enhanced : serve::ModelKind::Basic;
    request.corner = served.corner;
    return request;
}

/// Thread placement of one serving run.
struct Placement {
    unsigned workers = 1;
    std::vector<unsigned> server_cpus;
    std::vector<std::vector<unsigned>> client_cpus; ///< one entry per connection
};

Placement place(const Config& config)
{
    Placement p;
    const std::vector<unsigned> cpus = allowed_cpus();
    const unsigned n = std::max<unsigned>(2, config.nproc);
    p.workers = n / 2;
    if (cpus.size() >= n) {
        p.server_cpus.assign(cpus.begin(), cpus.begin() + p.workers);
        for (unsigned c = p.workers; c < n; ++c) {
            p.client_cpus.push_back({cpus[c - p.workers]});
        }
    } else {
        p.client_cpus.assign(n - p.workers, {});
    }
    return p;
}

/// A running server whose threads were spawned on the server CPUs.
struct RunningServer {
    serve::Server server;
    RunningServer(serve::ServerOptions options, const Placement& placement)
        : server(std::move(options))
    {
        if (!placement.server_cpus.empty()) {
            pin_current_thread(placement.server_cpus);
        }
        server.start();
        pin_current_thread(allowed_cpus());
    }
    ~RunningServer() { server.drain(); }
    RunningServer(const RunningServer&) = delete;
    RunningServer& operator=(const RunningServer&) = delete;
};

/// Characterize-on-miss (model_wall_s on the serving workloads): a fresh
/// server over an empty library gets, on one connection per served
/// instance at once, an Estimate for that instance's basic native-corner
/// model; its model cache characterizes the misses concurrently through
/// ModelLibrary and replies once each model is stored. Timed from the
/// requests to the last reply (concurrent misses keep a CPU slowed by
/// co-tenant load from deciding the figure). Returns seconds.
double miss_wall_s(const Setup& setup, Report& report)
{
    fs::remove_all("miss_models");
    const std::size_t instances = setup.instances.size();
    serve::ServerOptions options =
        server_options("miss.sock", static_cast<unsigned>(instances));
    options.models_dir = "miss_models";
    serve::Server server{options};
    server.start();
    double seconds = 0.0;
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::string> errors(instances);
    try {
        std::vector<serve::ServeClient> clients;
        std::vector<std::uint64_t> ids;
        for (std::size_t i = 0; i < instances; ++i) {
            clients.push_back(serve::ServeClient::connect_unix("miss.sock"));
            ids.push_back(clients.back().register_trace(setup.traces[i].trace));
        }
        const auto start = Clock::now();
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < instances; ++i) {
            threads.emplace_back([&, i] {
                try {
                    const serve::EstimateReply reply = clients[i].estimate(
                        request_for(setup, setup.by_instance[i][0], ids[i]));
                    bad += reply.estimate_fc == setup.traces[i].expected[0] ? 0 : 1;
                } catch (const std::exception& error) {
                    errors[i] = error.what();
                }
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
        seconds = ms_since(start) / 1e3;
    } catch (const std::exception& error) {
        report.op(false, std::string("characterize-on-miss: ") + error.what());
    }
    server.drain();
    for (const std::string& error : errors) {
        if (!error.empty()) {
            report.op(false, "characterize-on-miss: " + error);
        }
    }
    report.ops(instances, bad.load(), "characterized-on-miss estimate differs from direct engine");
    return seconds;
}

/// Counter deltas and busy time of the server over a timed phase.
void report_server_counters(const serve::ServerStatsReply& before,
                            const serve::ServerStatsReply& after, double wall_s,
                            unsigned workers, Report& report)
{
    auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
    report.set("serve.requests", delta(before.requests, after.requests), "count");
    report.set("serve.estimates", delta(before.estimates, after.estimates), "count");
    report.set("serve.errors", delta(before.errors, after.errors), "count");
    report.set("serve.shed", delta(before.connections_shed, after.connections_shed), "count");
    const double built = delta(before.histograms_built, after.histograms_built);
    const double hits = delta(before.histogram_cache_hits, after.histogram_cache_hits);
    const double coalesced = delta(before.histogram_coalesced, after.histogram_coalesced);
    report.set("serve.histograms_built", built, "count");
    report.set("serve.histogram_hits", hits, "count");
    report.set("serve.histogram_coalesced", coalesced, "count");
    report.set("serve.histogram_hit_frac",
               hits + built + coalesced > 0 ? hits / (hits + built + coalesced) : 0.0,
               "ratio");
    report.set("serve.model_cache_hits", delta(before.model_cache_hits, after.model_cache_hits),
               "count");
    report.set("serve.model_cache_misses",
               delta(before.model_cache_misses, after.model_cache_misses), "count");
    report.set("serve.traces_registered",
               delta(before.traces_registered, after.traces_registered), "count");
    report.set("serve.trace_bytes", static_cast<double>(after.trace_bytes), "B");
    const double busy = after.serve_seconds - before.serve_seconds;
    report.set("serve.server_busy_s", busy, "s");
    report.set("serve.server_busy_frac", busy / (wall_s * workers), "ratio");
}

/// Per-call cost [us] of @p body, the median of several timed batches.
template <typename Body>
double per_call_us(std::size_t calls, Body&& body)
{
    std::vector<double> batches;
    for (int b = 0; b < 7; ++b) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < calls; ++i) {
            body(i);
        }
        batches.push_back(ms_since(start) * 1e3 / static_cast<double>(calls));
    }
    return median(batches);
}

/// In-process per-layer costs of one Estimate on the same inputs the load
/// uses: wire codec, model-cache hit, broker hit and warm evaluation.
void report_serve_layers(serve::Server& server, const Setup& setup,
                         const std::vector<serve::EstimateRequest>& requests,
                         const std::vector<std::uint64_t>& trace_ids, double rtt_p50_us,
                         Report& report)
{
    volatile double sink = 0.0;
    const std::size_t n = requests.size();
    const double codec = per_call_us(20000, [&](std::size_t i) {
        serve::WireWriter w;
        serve::encode_estimate_request(w, requests[i % n]);
        serve::WireReader r{w.bytes()};
        const serve::EstimateRequest decoded = serve::decode_estimate_request(r);
        serve::WireWriter reply_writer;
        serve::encode_estimate_reply(reply_writer, serve::EstimateReply{
                                                       .estimate_fc = 1.0,
                                                       .cycles = decoded.widths.size()});
        serve::WireReader reply_reader{reply_writer.bytes()};
        sink = sink + serve::decode_estimate_reply(reply_reader).estimate_fc;
    });
    const double lookup = per_call_us(20000, [&](std::size_t i) {
        const Served& served = setup.models[i % setup.models.size()];
        const Instance& inst = setup.instances[served.instance];
        sink = sink + static_cast<double>(
                          server.models()
                              .get(inst.type, inst.widths, served.enhanced, 0, served.corner)
                              .use_count());
    });
    std::vector<std::shared_ptr<const streams::PackedTrace>> traces;
    for (const std::uint64_t id : trace_ids) {
        traces.push_back(server.traces().get(id));
    }
    const streams::KernelOptions kernel = server.options().kernel;
    const double broker = per_call_us(20000, [&](std::size_t i) {
        const streams::PackedTrace& trace = *traces[i % traces.size()];
        if (i % 2 == 0) {
            sink = sink + static_cast<double>(server.broker().hd(trace, kernel)->pairs);
        } else {
            sink = sink + static_cast<double>(server.broker().hd_class(trace, kernel)->pairs);
        }
    });
    core::EstimationEngine engine{kernel, 64};
    const double eval = per_call_us(20000, [&](std::size_t i) {
        const TraceInput& input = setup.traces[i % setup.traces.size()];
        const std::size_t m = setup.by_instance[input.instance][i % 4];
        sink = sink + estimate_with(engine, setup.models[m], input.trace);
    });
    report.set("serve.codec_us", codec, "us");
    report.set("serve.model_lookup_us", lookup, "us");
    report.set("serve.broker_hit_us", broker, "us");
    report.set("core.eval_us", eval, "us");
    report.set("serve.unattributed_us", rtt_p50_us - codec - lookup - broker - eval, "us");
}

/// The samples of one client connection during one load segment.
struct Load {
    RoundSamples samples; ///< estimates, latencies and turnarounds
    Histogram register_us;
    Histogram open_us;
    Histogram close_us;
    std::uint64_t ops = 0;
    std::uint64_t bad = 0;
    std::vector<std::string> errors;
};

/// The rounds of one kind of segment (untraced or traced) over the run.
struct Phase {
    LoadFigures figures;
    Histogram register_us;
    Histogram open_us;
    Histogram close_us;
    std::uint64_t ops = 0;
    std::uint64_t bad = 0;
    std::vector<std::string> errors;

    [[nodiscard]] double qps() const { return figures.estimates / figures.wall_s; }

    void report_checks(Report& report, const std::string& what) const
    {
        report.ops(ops, bad, what);
        for (const std::string& error : errors) {
            report.op(false, error);
        }
    }
};

/// Run one load segment: @p body(connection, load) on one pinned thread
/// per connection; the segment is one round of @p phase.
template <typename Body>
void run_clients(const Placement& placement, Phase& phase, Body&& body)
{
    const std::size_t connections = placement.client_cpus.size();
    std::vector<Load> loads(connections);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            if (!placement.client_cpus[c].empty()) {
                pin_current_thread(placement.client_cpus[c]);
            }
            // Tallied thread-locally (neighbouring Loads share cache lines)
            // and stored once the connection is done.
            Load load;
            body(c, load);
            loads[c] = std::move(load);
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const double wall_s = ms_since(start) / 1e3;
    RoundSamples round;
    for (const Load& load : loads) {
        round.merge(load.samples);
        phase.register_us.merge(load.register_us);
        phase.open_us.merge(load.open_us);
        phase.close_us.merge(load.close_us);
        phase.ops += load.ops;
        phase.bad += load.bad;
        phase.errors.insert(phase.errors.end(), load.errors.begin(), load.errors.end());
    }
    phase.figures.add_round(round, wall_s);
}

/// The measured rounds of a serving workload: a load segment (traced runs
/// alternate untraced and traced segments), then one characterize-on-miss,
/// so every figure samples the whole run.
struct Rounds {
    Phase untraced;
    Phase traced;
    std::vector<double> miss_s;
    serve::ServerStatsReply before;
    serve::ServerStatsReply after;
};

template <typename Segment>
Rounds serve_rounds(const Config& config, const Setup& setup, serve::Server& server,
                    Tracer& tracer, Report& report, Segment&& segment)
{
    Tracer off{false, ""};
    Rounds rounds;
    rounds.before = server.stats_snapshot();
    const double segment_s = config.reduced ? 0.2 : 0.5;
    repeat_for(config.seconds * 0.9, config.trace ? 4 : 2, [&](std::size_t rep) {
        const bool traced = config.trace && rep % 2 == 1;
        segment(segment_s, traced ? tracer : off, traced ? rounds.traced : rounds.untraced);
        rounds.miss_s.push_back(miss_wall_s(setup, report));
    });
    rounds.after = server.stats_snapshot();
    return rounds;
}

/// End-to-end figures of the rounds, plus (traced runs) the server's
/// counter deltas and the tracing overhead on estimate_qps.
void report_rounds(const Config& config, const Rounds& rounds, unsigned workers,
                   Report& report)
{
    rounds.untraced.report_checks(report, "serving reply differs from direct engine");
    rounds.traced.report_checks(report, "traced serving reply differs from direct engine");
    rounds.untraced.figures.report(report);
    report.set("model_wall_s", median(rounds.miss_s), "s");
    if (config.trace) {
        report_server_counters(rounds.before, rounds.after,
                               rounds.untraced.figures.wall_s + rounds.traced.figures.wall_s,
                               workers, report);
        report.set("trace.overhead_pct",
                   100.0 * (rounds.untraced.qps() / rounds.traced.qps() - 1.0), "%");
    }
}

// ---------------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------------

/// Shared state of the churn connections.
struct Churn {
    const Setup* setup = nullptr;
    std::atomic<bool> stop{false};
    Clock::time_point deadline;
    std::uint64_t fan_trace = 0; ///< written by connection 0 between barriers
    std::unique_ptr<std::barrier<std::function<void()>>> sync;
};

std::uint64_t ingest(serve::ServeClient& client, const TraceInput& input, Load& load)
{
    const auto start = Clock::now();
    if (input.file.empty()) {
        const std::uint64_t id = client.register_trace(input.trace);
        load.register_us.add(ms_since(start) * 1e3);
        return id;
    }
    const std::uint64_t id = client.open_trace_file(input.file);
    load.open_us.add(ms_since(start) * 1e3);
    return id;
}

/// Estimate every model of the trace's instance, pipelined in one flush.
void estimate_all(serve::ServeClient& client, const Setup& setup, const TraceInput& input,
                  std::uint64_t id, Load& load)
{
    const auto& models = setup.by_instance[input.instance];
    for (const std::size_t m : models) {
        client.enqueue_estimate(request_for(setup, m, id));
    }
    client.flush();
    const auto flushed = Clock::now();
    for (std::size_t k = 0; k < models.size(); ++k) {
        const serve::EstimateReply reply = client.read_estimate_reply();
        load.samples.estimate_us.add(ms_since(flushed) * 1e3);
        load.bad += reply.estimate_fc == input.expected[k] ? 0 : 1;
    }
    load.ops += models.size();
    load.samples.estimates += static_cast<double>(models.size());
}

void close_trace(serve::ServeClient& client, std::uint64_t id, Load& load)
{
    const auto start = Clock::now();
    const bool found = client.close_trace(id);
    load.close_us.add(ms_since(start) * 1e3);
    ++load.ops;
    load.bad += found ? 0 : 1;
}

/// One churn connection: epochs of kSoloSessions solo sessions (fresh trace in,
/// all its models estimated, the trace from kLiveTraces sessions ago
/// closed) and one session fanned out across every connection.
void churn_connection(Churn& churn, std::size_t c, std::uint64_t seed, Tracer& tracer,
                      Load& load)
{
    const Setup& setup = *churn.setup;
    bool dropped = false;
    try {
        serve::ServeClient client = serve::ServeClient::connect_unix("churn.sock");
        util::Rng rng{seed};
        std::deque<std::uint64_t> live;
        for (std::size_t epoch = 0;; ++epoch) {
            for (int s = 0; s < kSoloSessions; ++s) {
                const Tracer::Scope session{tracer, "serve.session"};
                const TraceInput& input =
                    setup.traces[rng.next_u64() % setup.traces.size()];
                const auto start = Clock::now();
                std::uint64_t id = 0;
                {
                    const Tracer::Scope span{tracer, "serve.ingest", session.id()};
                    id = ingest(client, input, load);
                    ++load.ops;
                }
                {
                    const Tracer::Scope span{tracer, "serve.estimates", session.id()};
                    estimate_all(client, setup, input, id, load);
                }
                load.samples.turnaround_ms.add(ms_since(start));
                live.push_back(id);
                if (live.size() > kLiveTraces) {
                    const Tracer::Scope span{tracer, "serve.close", session.id()};
                    close_trace(client, live.front(), load);
                    live.pop_front();
                }
            }
            // Fan-out: connection 0 brings the trace in, every connection
            // estimates it at once, so the first queries coalesce. Its
            // turnaround (connection 0's ingest plus its estimates) leaves
            // out the barrier wait, which only measures how far the other
            // connections lag behind in their solo sessions.
            const TraceInput& shared =
                setup.traces[(epoch * 7 + 3) % setup.traces.size()];
            double ingest_ms = 0.0;
            if (c == 0) {
                const auto start = Clock::now();
                churn.fan_trace = ingest(client, shared, load);
                ingest_ms = ms_since(start);
                ++load.ops;
            }
            churn.sync->arrive_and_wait();
            {
                const Tracer::Scope span{tracer, "serve.fanout"};
                const auto start = Clock::now();
                estimate_all(client, setup, shared, churn.fan_trace, load);
                if (c == 0) {
                    load.samples.turnaround_ms.add(ingest_ms + ms_since(start));
                }
            }
            // Every connection is done with the shared trace; the barrier's
            // completion also decides, for all connections at once, whether
            // this was the last epoch.
            churn.sync->arrive_and_wait();
            if (c == 0) {
                close_trace(client, churn.fan_trace, load);
            }
            if (churn.stop.load()) {
                break;
            }
        }
        for (const std::uint64_t id : live) {
            close_trace(client, id, load);
        }
    } catch (const std::exception& error) {
        load.errors.push_back(std::string("churn connection: ") + error.what());
        dropped = true;
    }
    if (dropped) {
        churn.sync->arrive_and_drop();
    }
}

} // namespace

void run_serve_churn(const Config& config, Report& report)
{
    const std::vector<Instance> instances = {
        {dp::ModuleType::RippleAdder, {8}},    // 16-bit samples
        {dp::ModuleType::CsaMultiplier, {16}}, // 32-bit samples
        {dp::ModuleType::ClaAdder, {32}},      // 64-bit samples
    };
    const Setup setup = setup_once(config, report, instances, 24);
    const Placement placement = place(config);

    serve::ServerOptions options = server_options("churn.sock", placement.workers);
    options.histogram_cache_entries = 8; // fewer than the live traces: evictions
    std::optional<RunningServer> running;
    running.emplace(options, placement);
    serve::Server& server = running->server;
    {
        // Warm the model cache only; every trace arrives fresh while timed.
        serve::ServeClient client = serve::ServeClient::connect_unix("churn.sock");
        const TraceInput& input = setup.traces[0];
        const std::uint64_t id = client.register_trace(input.trace);
        for (std::size_t i = 0; i < setup.instances.size(); ++i) {
            const std::uint64_t trace_id =
                i == 0 ? id : client.register_trace(setup.traces[i].trace);
            for (std::size_t k = 0; k < setup.by_instance[i].size(); ++k) {
                const serve::EstimateReply reply =
                    client.estimate(request_for(setup, setup.by_instance[i][k], trace_id));
                report.op(reply.estimate_fc == setup.traces[i].expected[k],
                          "warm-up reply differs from direct engine");
            }
            (void)client.close_trace(trace_id);
        }
    }

    const std::size_t connections = placement.client_cpus.size();
    auto segment = [&](double seconds, Tracer& tracer, Phase& phase) {
        Churn churn;
        churn.setup = &setup;
        churn.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(seconds));
        churn.sync = std::make_unique<std::barrier<std::function<void()>>>(
            static_cast<std::ptrdiff_t>(connections),
            std::function<void()>{[&churn] {
                churn.stop.store(Clock::now() >= churn.deadline);
            }});
        run_clients(placement, phase, [&](std::size_t c, Load& load) {
            churn_connection(churn, c, config.seed * 31 + c, tracer, load);
        });
    };
    Tracer tracer{config.trace, "serve_churn-" + std::to_string(config.seed)};
    const Rounds rounds = serve_rounds(config, setup, server, tracer, report, segment);
    report_rounds(config, rounds, placement.workers, report);

    if (config.trace) {
        report.set("serve.register_rtt_p50_us",
                   rounds.untraced.register_us.percentile(0.5), "us");
        report.set("serve.open_file_rtt_p50_us", rounds.untraced.open_us.percentile(0.5),
                   "us");
        report.set("serve.close_rtt_p50_us", rounds.untraced.close_us.percentile(0.5),
                   "us");

        // streams: the server's kernels on every churn trace, and mapping cost.
        const streams::KernelOptions kernel = server.options().kernel;
        std::vector<double> hd_ms, class_ms, open_ms;
        double bytes = 0.0;
        double hd_total_ms = 0.0;
        for (const TraceInput& input : setup.traces) {
            auto start = Clock::now();
            const auto hd = streams::hd_histogram(input.trace, kernel);
            hd_ms.push_back(ms_since(start));
            hd_total_ms += hd_ms.back();
            bytes += static_cast<double>(input.trace.words().size_bytes());
            start = Clock::now();
            const auto classes = streams::hd_class_histogram(input.trace, kernel);
            class_ms.push_back(ms_since(start));
            if (!input.file.empty()) {
                start = Clock::now();
                const streams::MappedTrace mapped{input.file};
                open_ms.push_back(ms_since(start));
            }
            report.op(hd.pairs == input.trace.cycles() && classes.pairs == hd.pairs,
                      "histogram pair count differs from the trace");
        }
        report.set("streams.hd_histogram_ms_p50", percentile(hd_ms, 0.5), "ms");
        report.set("streams.class_histogram_ms_p50", percentile(class_ms, 0.5), "ms");
        report.set("streams.kernel_gbps", bytes / (hd_total_ms * 1e6), "GB/s");
        report.set("streams.trace_file_open_ms", percentile(open_ms, 0.5), "ms");

        std::vector<serve::EstimateRequest> requests;
        std::vector<std::uint64_t> trace_ids;
        serve::ServeClient client = serve::ServeClient::connect_unix("churn.sock");
        for (std::size_t i = 0; i < setup.instances.size(); ++i) {
            trace_ids.push_back(client.register_trace(setup.traces[i].trace));
            for (const std::size_t m : setup.by_instance[i]) {
                requests.push_back(request_for(setup, m, trace_ids.back()));
                (void)client.estimate(requests.back());
            }
        }
        report_serve_layers(server, setup, requests, trace_ids,
                            median(rounds.untraced.figures.estimate_p50_us), report);
        tracer.write("spans.json");
    }
}

} // namespace perfbench

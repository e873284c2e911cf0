/// Characterization workloads: char_event, char_corners_emul, fleet_emul.
///
/// Every characterization plan is pinned (independent of --seed), so the
/// model digests, plan counts and model_err_pct repeat exactly across seeds
/// and commits. The seed drives the traces of the estimation sessions that
/// follow each characterization.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <variant>

#include "core/characterize.hpp"
#include "core/checkpoint.hpp"
#include "core/estimation_engine.hpp"
#include "core/model_library.hpp"
#include "core/workloads.hpp"
#include "dpgen/module.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/lease.hpp"
#include "fleet/worker.hpp"
#include "gatelib/techlib.hpp"
#include "sim/power.hpp"
#include "sim/sim_context.hpp"
#include "streams/packed_trace.hpp"
#include "streams/stream.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace hdpm;


/// Coordinator and worker poll period [ms] of fleet_emul. hdpower_fleet's
/// default is 50 ms; a fleet run of this plan takes a few such polls, so
/// at 50 ms model_wall_s would mostly measure sleeping.
constexpr double kFleetPollMs = 5.0;

/// What one workload characterizes.
struct Plan {
    dp::ModuleType type = dp::ModuleType::CsaMultiplier;
    std::vector<int> widths{16};
    bool enhanced = false;
    int zero_clusters = 0;
    core::CharacterizationOptions options;
};

/// Fixed work: min = max transitions, so no run stops early on convergence.
core::CharacterizationOptions fixed_work(std::size_t transitions)
{
    core::CharacterizationOptions options;
    options.max_transitions = transitions;
    options.min_transitions = transitions;
    return options;
}

/// hdpower_cli characterize csa_multiplier 16 --enhanced --checkpoint, all cores.
Plan event_plan(const Config& config)
{
    Plan plan;
    plan.enhanced = true;
    plan.options = fixed_work(config.reduced ? 1000 : 8000);
    plan.options.shard_size = 500; // --shard-size 500: shards balance across cores
    return plan;
}

/// A basic-model emulation sweep over Vdd {3.3, 3.0, 2.7, 2.5} x {25, 85} C.
Plan corners_plan(const Config& config)
{
    Plan plan;
    plan.options = fixed_work(config.reduced ? 1000 : 6000);
    plan.options.backend = core::CharBackend::PowerEmulation;
    // Shards of 128 split each corner's 512 calibration pairs four ways, so
    // calibration runs on all cores instead of as one serial single-thread
    // chain per corner, whose wall time follows a single vCPU's speed.
    // Journals still publish about as often as with the default shards.
    plan.options.shard_size = 128;
    plan.options.checkpoint_every = 16;
    for (const double vdd : {3.3, 3.0, 2.7, 2.5}) {
        for (const double temp : {25.0, 85.0}) {
            plan.options.corners.push_back({vdd, temp, gate::LoadClass::Nominal});
        }
    }
    return plan;
}

/// A basic-model emulation plan of many small shards with the default
/// calibration, which every worker repeats.
Plan fleet_plan(const Config& config)
{
    Plan plan;
    // With kFleetPollMs polls, the workers' share spans many of them:
    // model_wall_s follows the cost of calibration, shards and lease
    // traffic, and the poll quantum stays a small share of it.
    plan.options = fixed_work(config.reduced ? 2000 : 96000);
    plan.options.backend = core::CharBackend::PowerEmulation;
    plan.options.shard_size = 500;
    plan.options.threads = 1; // parallelism comes from the workers
    return plan;
}

/// Corners a plan scores: its sweep list, or its single corner.
std::vector<std::optional<gate::Corner>> plan_corners(const Plan& plan)
{
    if (plan.options.corners.empty()) {
        return {plan.options.corner};
    }
    return {plan.options.corners.begin(), plan.options.corners.end()};
}

/// Set-up products of a characterization workload.
struct CharInputs {
    std::vector<int> operand_widths;
    streams::PackedTrace held_out;   ///< fixed type-II (music) stream
    std::vector<double> reference_fc; ///< event-kernel mean charge per corner
    /// Seeded estimation-session operand streams, type I (random).
    std::vector<std::vector<std::vector<std::int64_t>>> pool;
};

CharInputs make_inputs(const Plan& plan, const Config& config)
{
    const dp::DatapathModule module = dp::make_module(plan.type, plan.widths);
    CharInputs in;
    in.operand_widths = module.operand_widths();
    const std::size_t held_out_len = config.reduced ? 64 : 300;
    const auto operands = core::make_operand_streams(module, streams::DataType::Music,
                                                     held_out_len, kHeldOutSeed);
    in.held_out = streams::PackedTrace::from_operands(operands, in.operand_widths);
    const auto patterns = core::encode_module_stream(module, operands);
    for (const auto& corner : plan_corners(plan)) {
        in.reference_fc.push_back(reference_charge_fc(module, corner, patterns));
    }
    const std::size_t pool_size = 16;
    for (std::size_t i = 0; i < pool_size; ++i) {
        in.pool.push_back(core::make_operand_streams(module, streams::DataType::Random,
                                                     config.reduced ? 256 : 4096,
                                                     config.seed * 1000003ULL + i));
    }
    return in;
}

/// FNV-1a over the names and bytes of every file in @p dir.
std::string dir_digest(const fs::path& dir)
{
    const std::vector<fs::path> files = list_files(dir);
    if (files.empty()) {
        return "missing";
    }
    std::string all;
    for (const fs::path& file : files) {
        all += file.filename().string() + '=' + file_digest(file) + ';';
    }
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : all) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
    return buffer;
}

std::string sabotaged(const Config& config, std::string digest)
{
    return config.sabotage == "digest" ? "0000000000000000" : digest;
}

double estimate_with(core::EstimationEngine& engine, const core::AnyModel& model,
                     const streams::PackedTrace& trace)
{
    return std::visit([&](const auto* m) { return engine.estimate(*m, trace); }, model);
}

/// model_err_pct: mean |estimate - reference| / reference over the corners.
double model_error_pct(std::span<const core::AnyModel> models, const CharInputs& in)
{
    core::EstimationEngine engine;
    double sum = 0.0;
    for (std::size_t k = 0; k < models.size(); ++k) {
        const double estimate = estimate_with(engine, models[k], in.held_out);
        sum += std::abs(estimate - in.reference_fc[k]) / in.reference_fc[k];
    }
    return 100.0 * sum / static_cast<double>(models.size());
}

/// Estimation with the freshly published models: every pool stream is
/// packed and classified up front into one engine per CPU; a session then
/// evaluates every model against one pool trace from that engine's warm
/// histogram cache, as a caller re-estimating recorded streams does.
/// (Histogram builds are measured on serve_churn; what is timed here is the
/// model evaluation the macro-model promises to make cheap.) A latency
/// sample is the per-estimate average of a batch of kBatch estimates, which
/// keeps it well above the clock's resolution. Every estimate must equal a
/// direct estimate on a separately packed copy of its trace.
class SessionBench {
public:
    static constexpr std::size_t kBatch = 32;

    SessionBench(const Config& config, const CharInputs& in,
                 std::vector<core::AnyModel> models)
        : models_(std::move(models))
    {
        core::EstimationEngine check_engine;
        for (const auto& operands : in.pool) {
            const auto copy = streams::PackedTrace::from_operands(operands, in.operand_widths);
            traces_.push_back(streams::PackedTrace::from_operands(operands, in.operand_widths));
            auto& row = expected_.emplace_back();
            for (const core::AnyModel& model : models_) {
                row.push_back(estimate_with(check_engine, model, copy));
            }
        }
        // Each engine is built and warmed on the thread that uses it, so it
        // and its cache live in that thread's malloc arena: no cache line
        // is written by two threads, wherever the allocator places things
        // in a given run.
        engines_.resize(cpus_.size());
        on_each_cpu([&](std::size_t t) {
            auto engine = std::make_unique<core::EstimationEngine>(streams::KernelOptions{},
                                                                   traces_.size() + 1);
            for (const auto& trace : traces_) {
                for (const core::AnyModel& model : models_) {
                    (void)estimate_with(*engine, model, trace);
                }
            }
            engines_[t] = std::move(engine);
        });
        if (config.sabotage == "estimate") {
            expected_[0][0] = std::nextafter(expected_[0][0], 0.0);
        }
    }

    /// One slice of sessions spread over one pinned thread per CPU: one
    /// round of the run's figures.
    void run(std::size_t sessions)
    {
        const std::size_t threads = cpus_.size();
        std::vector<RoundSamples> slices(threads);
        std::vector<std::uint64_t> mismatches(threads, 0);
        const auto slice = Clock::now();
        on_each_cpu([&](std::size_t t) {
            // Thread-local tallies, stored once at the end: neighbouring
            // elements of slices and mismatches share cache lines.
            RoundSamples local;
            std::uint64_t bad = 0;
            core::EstimationEngine& engine = *engines_[t];
            for (std::size_t s = t; s < sessions; s += threads) {
                const std::size_t i = (next_ + s) % traces_.size();
                const auto start = Clock::now();
                for (std::size_t k = 0; k < models_.size(); ++k) {
                    const auto t0 = Clock::now();
                    for (std::size_t b = 0; b < kBatch; ++b) {
                        bad += estimate_with(engine, models_[k], traces_[i]) == expected_[i][k]
                                   ? 0
                                   : 1;
                    }
                    local.estimate_us.add(ms_since(t0) * 1e3 / kBatch);
                    local.estimates += kBatch;
                }
                local.turnaround_ms.add(ms_since(start));
            }
            slices[t] = std::move(local);
            mismatches[t] = bad;
        });
        const double wall_s = ms_since(slice) / 1e3;
        next_ += sessions;
        RoundSamples round;
        for (std::size_t t = 0; t < threads; ++t) {
            round.merge(slices[t]);
            mismatches_ += mismatches[t];
        }
        figures_.add_round(round, wall_s);
    }

    void report(Report& report) const
    {
        report.ops(static_cast<std::uint64_t>(figures_.estimates), mismatches_,
                   "estimate differs from direct engine");
        figures_.report(report);
    }

private:
    /// Run @p body(t) on one thread pinned to each CPU t and join them.
    template <typename Body>
    void on_each_cpu(Body&& body)
    {
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < cpus_.size(); ++t) {
            pool.emplace_back([&, t] {
                pin_current_thread({cpus_[t]});
                body(t);
            });
        }
        for (std::thread& thread : pool) {
            thread.join();
        }
    }

    std::vector<unsigned> cpus_ = allowed_cpus();
    std::vector<core::AnyModel> models_;
    std::vector<streams::PackedTrace> traces_;
    std::vector<std::vector<double>> expected_;
    /// One per CPU, warm.
    std::vector<std::unique_ptr<core::EstimationEngine>> engines_;
    LoadFigures figures_;
    std::uint64_t mismatches_ = 0;
    std::size_t next_ = 0;
};

/// Sessions per slice, run after every characterization repetition.
std::size_t session_slice(const Config& config)
{
    return config.reduced ? 64 : 2000; // >= 1000 estimates: ten beyond each p99
}

/// Measured rounds take this share of --seconds; set-up is extra.
double rounds_budget(const Config& config)
{
    return config.seconds * 0.9;
}

void report_model_error(std::span<const core::AnyModel> models, const CharInputs& in,
                        Report& report)
{
    const double err = model_error_pct(models, in);
    report.set("model_err_pct", err, "%");
    report.set_exact("model_err_pct", std::to_string(err));
}

/// Per-layer counters of a characterization's CharRunStats.
void report_sim_stats(const core::CharRunStats& stats, Report& report)
{
    report.set("sim.events", static_cast<double>(stats.sim_events), "count");
    report.set("sim.transitions", static_cast<double>(stats.sim_transitions), "count");
    report.set("sim.events_per_s", stats.events_per_sec, "1/s");
    report.set("sim.warmup_batches", static_cast<double>(stats.warmup_batches), "count");
    report.set("sim.emulation_passes", static_cast<double>(stats.emulation_passes),
               "count");
    report.set("core.calibration_pairs", static_cast<double>(stats.calibration_pairs),
               "count");
    const double measured = static_cast<double>(stats.records);
    report.set("core.measured_pairs_frac",
               measured / (measured + static_cast<double>(stats.calibration_pairs)),
               "ratio");
    report.set("core.records", static_cast<double>(stats.records), "count");
    report.set("core.shards", static_cast<double>(stats.shards), "count");
}

/// Exact-repeat values of a characterization: its model digest and plan
/// counts, identical across seeds, runs and (for an unchanged plan) commits.
void report_exact(const std::string& digest, const core::CharRunStats& stats, Report& report)
{
    report.set_exact("model_digest", digest);
    report.set_exact("core.records", std::to_string(stats.records));
    report.set_exact("core.shards", std::to_string(stats.shards));
    report.set_exact("sim.events", std::to_string(stats.sim_events));
}

/// trace.overhead_pct: medians of the same code path run with an enabled
/// and with a disabled Tracer, alternately.
void report_overhead(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms, Report& report)
{
    report.set("trace.overhead_pct",
               100.0 * (median(traced_ms) / median(untraced_ms) - 1.0), "%");
}

// ---------------------------------------------------------------------------
// Single-corner characterization through ModelLibrary (char_event)
// ---------------------------------------------------------------------------

struct CharRep {
    double wall_ms = 0.0;
    std::string digest;
    core::CharRunStats stats;
};

/// One characterization into a fresh library directory, checkpoint journal
/// on unless @p journal is false. The fitted model is returned through
/// @p model_out when non-null.
template <typename Model>
CharRep characterize_once(const Plan& plan, const fs::path& dir, Model* model_out,
                          bool journal = true)
{
    fs::create_directories(dir);
    CharRep rep;
    core::CharacterizationOptions options = plan.options;
    if (journal) {
        options.checkpoint = dir / "journal.ckpt";
    }
    options.stats = &rep.stats;
    const auto start = Clock::now();
    const core::ModelLibrary library{dir / "models"};
    Model model;
    if constexpr (std::is_same_v<Model, core::EnhancedHdModel>) {
        model = library.get_or_characterize_enhanced(plan.type, plan.widths,
                                                     plan.zero_clusters, options);
    } else {
        model = library.get_or_characterize(plan.type, plan.widths, options);
    }
    rep.wall_ms = ms_since(start);
    rep.digest = dir_digest(dir / "models");
    if (model_out != nullptr) {
        *model_out = std::move(model);
    }
    fs::remove_all(dir);
    return rep;
}

/// Span timings of one traced replay of a single-corner plan.
struct Replay {
    double wall_ms = 0.0; ///< measured with or without tracing
    double self_ms = 0.0;
    double make_ms = 0.0;
    double compile_ms = 0.0;
    double runner_ms = 0.0;
    double shards_busy_ms = 0.0;
    double shard_p50_ms = 0.0;
    double shard_max_ms = 0.0;
    double merge_ms = 0.0;
    double journal_ms = 0.0;
    double journal_bytes = 0.0;
    double journal_publishes = 0.0;
    double fit_ms = 0.0;
    double store_ms = 0.0;
    std::string digest;
};

/// Publish the growing journal after each shard, as a checkpointed run does.
void replay_journal(Tracer& tracer, int parent, core::CharCheckpoint journal,
                    const std::vector<std::vector<core::CharacterizationRecord>>& blocks,
                    const fs::path& path, Replay& out)
{
    journal.shards.clear();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        journal.shards.push_back({i, blocks[i]});
        const Tracer::Scope span{tracer, "core.journal", parent};
        core::save_checkpoint(path, journal);
        tracer.end(span.id());
        out.journal_ms += tracer.duration_ms(span.id());
        out.journal_bytes += static_cast<double>(fs::file_size(path));
        out.journal_publishes += 1.0;
    }
    fs::remove(path);
}

/// The traced decomposition of a single-corner plan through the public
/// pieces: ShardRunner per shard on at most nproc threads, ShardMerger,
/// save_checkpoint (unless @p journal is false), fit_*_model and
/// ModelLibrary::store_*. With a disabled tracer only wall_ms and the
/// digest are filled in.
Replay replay_single(Tracer& tracer, const Plan& plan, const fs::path& dir, unsigned nproc,
                     bool journal = true)
{
    fs::create_directories(dir);
    Replay out;
    const auto start = Clock::now();
    const int root = tracer.begin("char.replay");
    auto timed = [&](const char* name, auto&& body) {
        const int id = tracer.begin(name, root);
        body();
        tracer.end(id);
        return tracer.duration_ms(id);
    };

    std::optional<dp::DatapathModule> module;
    out.make_ms = timed("dpgen.make_module",
                        [&] { module.emplace(dp::make_module(plan.type, plan.widths)); });
    out.compile_ms = timed("sim.compile", [&] {
        const sim::SimContext context{module->netlist(), gate::TechLibrary::generic350()};
    });
    const core::CharacterizationOptions effective =
        fleet::resolve_plan_options(plan.options, plan.enhanced);
    std::optional<core::ShardRunner> runner;
    out.runner_ms = timed("core.shard_runner", [&] { runner.emplace(*module, effective); });

    const std::size_t shards = runner->num_shards();
    std::vector<std::vector<core::CharacterizationRecord>> blocks(shards);
    std::vector<double> shard_ms(shards, 0.0);
    const int shards_span = tracer.begin("sim.shards", root);
    {
        std::atomic<std::size_t> next{0};
        const unsigned threads = std::max(1u, std::min<unsigned>(nproc, shards));
        std::vector<std::exception_ptr> errors(threads);
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                try {
                    for (std::size_t i; (i = next.fetch_add(1)) < shards;) {
                        const Tracer::Scope span{tracer, "sim.shard", shards_span};
                        blocks[i] = runner->run(i);
                        tracer.end(span.id());
                        shard_ms[i] = tracer.duration_ms(span.id());
                    }
                } catch (...) {
                    errors[t] = std::current_exception();
                }
            });
        }
        for (std::thread& thread : pool) {
            thread.join();
        }
        for (const auto& error : errors) {
            if (error) {
                std::rethrow_exception(error);
            }
        }
    }
    tracer.end(shards_span);
    for (const double ms : shard_ms) {
        out.shards_busy_ms += ms;
    }
    out.shard_max_ms = *std::max_element(shard_ms.begin(), shard_ms.end());
    out.shard_p50_ms = percentile(shard_ms, 0.5);

    core::ShardMerger merger{runner->input_bits(), effective};
    for (const auto& block : blocks) {
        out.merge_ms += timed("core.merge", [&] { (void)merger.merge(block); });
    }
    if (journal) {
        replay_journal(tracer, root,
                       core::CharCheckpoint{runner->fingerprint(), runner->module_key(),
                                            runner->input_bits(), {}},
                       blocks, dir / "journal.ckpt", out);
    }
    const auto records = merger.take_records();

    const core::ModelLibrary library{dir / "models"};
    if (plan.enhanced) {
        std::optional<core::EnhancedHdModel> model;
        out.fit_ms = timed("core.fit", [&] {
            model.emplace(core::fit_enhanced_model(runner->input_bits(),
                                                   plan.zero_clusters, records));
        });
        out.store_ms = timed("core.store", [&] {
            library.store_enhanced(plan.type, plan.widths, plan.zero_clusters,
                                   plan.options, *model);
        });
    } else {
        std::optional<core::HdModel> model;
        out.fit_ms = timed("core.fit", [&] {
            model.emplace(core::fit_basic_model(runner->input_bits(), records));
        });
        out.store_ms = timed("core.store", [&] {
            library.store_basic(plan.type, plan.widths, plan.options, *model);
        });
    }
    tracer.end(root);
    out.wall_ms = ms_since(start);
    out.self_ms = tracer.self_ms(root);
    out.digest = dir_digest(dir / "models");
    fs::remove_all(dir);
    return out;
}

/// Per-layer metrics of a set of replays (medians across repetitions).
void report_replays(const std::vector<Replay>& replays, Report& report)
{
    auto med = [&](double Replay::*field) {
        std::vector<double> values;
        for (const Replay& r : replays) {
            values.push_back(r.*field);
        }
        return median(values);
    };
    report.set("dpgen.build_ms", med(&Replay::make_ms), "ms");
    report.set("sim.compile_ms", med(&Replay::compile_ms), "ms");
    report.set("sim.shard_busy_ms", med(&Replay::shards_busy_ms), "ms");
    report.set("sim.shard_ms_p50", med(&Replay::shard_p50_ms), "ms");
    report.set("sim.shard_ms_max", med(&Replay::shard_max_ms), "ms");
    std::vector<double> calibrate;
    for (const Replay& r : replays) {
        calibrate.push_back(std::max(0.0, r.runner_ms - r.compile_ms));
    }
    report.set("core.calibrate_ms", median(calibrate), "ms");
    report.set("core.merge_ms", med(&Replay::merge_ms), "ms");
    report.set("core.fit_ms", med(&Replay::fit_ms), "ms");
    report.set("core.journal_ms", med(&Replay::journal_ms), "ms");
    report.set("core.journal_bytes", replays.front().journal_bytes, "B");
    report.set("core.journal_publishes", replays.front().journal_publishes, "count");
    report.set("core.store_ms", med(&Replay::store_ms), "ms");
    report.set("core.char_unattributed_ms", med(&Replay::self_ms), "ms");
}

} // namespace

// ---------------------------------------------------------------------------
// char_event
// ---------------------------------------------------------------------------

void run_char_event(const Config& config, Report& report)
{
    const Plan plan = event_plan(config);
    // Set-up ends with one untimed characterization: it warms the event
    // kernel and yields the reference model file and run counters.
    core::EnhancedHdModel model;
    CharRep warm;
    const CharInputs in = timed_setup(report, [&] {
        CharInputs inputs = make_inputs(plan, config);
        warm = characterize_once(plan, "warm", &model);
        return inputs;
    });
    const std::string expected = sabotaged(config, warm.digest);
    report_exact(warm.digest, warm.stats, report);
    const std::vector<core::AnyModel> models = {&model};
    report_model_error(models, in, report);
    SessionBench sessions{config, in, models};

    // Rounds: a characterization, then a slice of estimation sessions. The
    // traced run instead alternates the decomposition traced and untraced.
    Tracer off{false, ""};
    Tracer tracer{config.trace, "char_event-" + std::to_string(config.seed)};
    std::vector<double> walls;
    std::vector<double> untraced_replays;
    std::vector<Replay> replays;
    repeat_for(rounds_budget(config), config.trace ? 4 : 3, [&](std::size_t rep) {
        if (config.trace) {
            const bool traced = rep % 2 == 1;
            const Replay r = replay_single(traced ? tracer : off, plan, "trace", config.nproc);
            report.op(r.digest == expected,
                      "traced decomposition model differs from the untraced run");
            if (traced) {
                replays.push_back(r);
            } else {
                untraced_replays.push_back(r.wall_ms);
            }
        } else {
            const CharRep r = characterize_once<core::EnhancedHdModel>(plan, "rep", nullptr);
            walls.push_back(r.wall_ms);
            report.op(r.digest == expected, "model file digest changed between repetitions");
        }
        sessions.run(session_slice(config));
    });
    sessions.report(report);
    if (!config.trace) {
        report.set("model_wall_s", median(walls) / 1e3, "s");
        return;
    }
    report_replays(replays, report);
    report_sim_stats(warm.stats, report);
    std::vector<double> traced_walls;
    for (const Replay& r : replays) {
        traced_walls.push_back(r.wall_ms);
    }
    report_overhead(traced_walls, untraced_replays, report);
    tracer.write("spans.json");
}

// ---------------------------------------------------------------------------
// char_corners_emul
// ---------------------------------------------------------------------------

namespace {

struct CornersRep {
    double wall_ms = 0.0;
    std::string digest;
    core::CharRunStats stats;
    std::vector<core::HdModel> models;
    // traced split
    double sweep_ms = 0.0;
    double make_ms = 0.0;
    double fit_ms = 0.0;
    double store_ms = 0.0;
    Replay journal; ///< journal figures (traced runs only)
};

/// One multi-corner sweep plus per-corner publishes into a fresh library:
/// characterize_corners, or (@p decompose) collect_records_corners and a
/// fit per corner. The sweep, each fit and each store are spans; with an
/// enabled tracer the journal cost is then replayed per corner.
CornersRep corners_once(Tracer& tracer, const Plan& plan, const fs::path& dir, bool decompose)
{
    fs::create_directories(dir);
    CornersRep rep;
    core::CharacterizationOptions options = plan.options;
    options.checkpoint = dir / "journal.ckpt";
    options.stats = &rep.stats;
    const int root = tracer.begin("char.corners");
    const auto start = Clock::now();
    const core::ModelLibrary library{dir / "models"};
    int id = tracer.begin("dpgen.make_module", root);
    const dp::DatapathModule module = dp::make_module(plan.type, plan.widths);
    tracer.end(id);
    rep.make_ms = tracer.duration_ms(id);
    const core::Characterizer characterizer;
    std::vector<std::vector<core::CharacterizationRecord>> records;
    id = tracer.begin("core.sweep", root);
    if (decompose) {
        records = characterizer.collect_records_corners(module, options);
    } else {
        rep.models = characterizer.characterize_corners(module, options);
    }
    tracer.end(id);
    rep.sweep_ms = tracer.duration_ms(id);
    for (std::size_t k = 0; k < plan.options.corners.size(); ++k) {
        if (decompose) {
            id = tracer.begin("core.fit", root);
            rep.models.push_back(
                core::fit_basic_model(module.total_input_bits(), records[k]));
            tracer.end(id);
            rep.fit_ms += tracer.duration_ms(id);
        }
        core::CharacterizationOptions store_options = plan.options;
        store_options.corners.clear();
        store_options.corner = plan.options.corners[k];
        id = tracer.begin("core.store", root);
        library.store_basic(plan.type, plan.widths, store_options, rep.models[k]);
        tracer.end(id);
        rep.store_ms += tracer.duration_ms(id);
    }
    rep.wall_ms = ms_since(start);
    tracer.end(root);
    rep.digest = dir_digest(dir / "models");
    if (tracer.enabled()) {
        // Journal cost, replayed per corner from the sweep's own records.
        const std::size_t shard = options.shard_size != 0 ? options.shard_size
                                                           : options.batch;
        for (std::size_t k = 0; k < records.size(); ++k) {
            std::vector<std::vector<core::CharacterizationRecord>> blocks;
            for (std::size_t i = 0; i < records[k].size(); i += shard) {
                blocks.emplace_back(
                    records[k].begin() + static_cast<std::ptrdiff_t>(i),
                    records[k].begin() +
                        static_cast<std::ptrdiff_t>(std::min(i + shard, records[k].size())));
            }
            replay_journal(tracer, -1,
                           core::CharCheckpoint{k, core::module_journal_key(module),
                                                module.total_input_bits(), {}},
                           blocks, dir / "replay.ckpt", rep.journal);
        }
    }
    fs::remove_all(dir);
    return rep;
}

} // namespace

namespace {

/// Calibration split of a sweep: a single-corner ShardRunner per corner
/// calibrates exactly as the sweep does for that corner (docs/corners.md).
/// Returns the summed calibration time (construction minus compile) and
/// the summed compile time [ms].
std::pair<double, double> calibration_split(Tracer& tracer, const Plan& plan,
                                            const dp::DatapathModule& module)
{
    double calibrate = 0.0;
    double compile = 0.0;
    const int split = tracer.begin("core.calibrate_split");
    for (const gate::Corner& corner : plan.options.corners) {
        core::CharacterizationOptions single = plan.options;
        single.corners.clear();
        single.corner = corner;
        int id = tracer.begin("sim.compile", split);
        {
            const gate::TechLibrary library = gate::TechLibrary::generic350().at(corner);
            const sim::SimContext context{module.netlist(), library};
        }
        tracer.end(id);
        const double compile_ms = tracer.duration_ms(id);
        id = tracer.begin("core.shard_runner", split);
        { const core::ShardRunner runner{module, single}; }
        tracer.end(id);
        compile += compile_ms;
        calibrate += std::max(0.0, tracer.duration_ms(id) - compile_ms);
    }
    tracer.end(split);
    return {calibrate, compile};
}

} // namespace

void run_char_corners_emul(const Config& config, Report& report)
{
    const Plan plan = corners_plan(config);
    Tracer off{false, ""};
    CornersRep warm;
    const CharInputs in = timed_setup(report, [&] {
        CharInputs inputs = make_inputs(plan, config);
        warm = corners_once(off, plan, "warm", false);
        return inputs;
    });
    const std::string expected = sabotaged(config, warm.digest);
    report_exact(warm.digest, warm.stats, report);
    std::vector<core::AnyModel> models;
    for (const core::HdModel& model : warm.models) {
        models.emplace_back(&model);
    }
    report_model_error(models, in, report);
    SessionBench sessions{config, in, models};

    Tracer tracer{config.trace, "char_corners_emul-" + std::to_string(config.seed)};
    const dp::DatapathModule module = dp::make_module(plan.type, plan.widths);
    std::vector<double> walls, untraced_walls, traced_walls, sweeps, makes, fits, stores,
        journals, calibrates, compiles, unattributed;
    Replay journal;
    // Rounds: a sweep, then a slice of estimation sessions. The traced run
    // instead alternates the decomposed sweep untraced and traced.
    repeat_for(rounds_budget(config), config.trace ? 4 : 3, [&](std::size_t rep) {
        if (config.trace && rep % 2 == 0) {
            const CornersRep r = corners_once(off, plan, "trace", true);
            report.op(r.digest == expected, "decomposed sweep models differ from the untraced run");
            untraced_walls.push_back(r.wall_ms);
        } else if (config.trace) {
            const CornersRep r = corners_once(tracer, plan, "trace", true);
            report.op(r.digest == expected, "traced sweep models differ from the untraced run");
            traced_walls.push_back(r.wall_ms);
            sweeps.push_back(r.sweep_ms);
            makes.push_back(r.make_ms);
            fits.push_back(r.fit_ms);
            stores.push_back(r.store_ms);
            journals.push_back(r.journal.journal_ms);
            journal = r.journal;
            const auto [calibrate, compile] = calibration_split(tracer, plan, module);
            calibrates.push_back(calibrate);
            compiles.push_back(compile);
            unattributed.push_back(r.sweep_ms - calibrate - r.journal.journal_ms);
        } else {
            const CornersRep r = corners_once(off, plan, "rep", false);
            walls.push_back(r.wall_ms);
            report.op(r.digest == expected, "model file digests changed between repetitions");
        }
        sessions.run(session_slice(config));
    });
    sessions.report(report);
    if (!config.trace) {
        report.set("model_wall_s", median(walls) / 1e3, "s");
    } else {
        report.set("dpgen.build_ms", median(makes), "ms");
        report.set("sim.compile_ms", median(compiles), "ms");
        report.set("core.calibrate_ms", median(calibrates), "ms");
        report.set("core.fit_ms", median(fits), "ms");
        report.set("core.store_ms", median(stores), "ms");
        report.set("core.journal_ms", median(journals), "ms");
        report.set("core.journal_bytes", journal.journal_bytes, "B");
        report.set("core.journal_publishes", journal.journal_publishes, "count");
        report.set("core.sweep_ms", median(sweeps), "ms");
        report.set("core.char_unattributed_ms", median(unattributed), "ms");
        report_sim_stats(warm.stats, report);
        report_overhead(traced_walls, untraced_walls, report);
        tracer.write("spans.json");
    }
}

// ---------------------------------------------------------------------------
// fleet_emul
// ---------------------------------------------------------------------------

namespace {

struct FleetRep {
    double wall_ms = 0.0;
    double last_worker_ms = 0.0;
    std::string digest;
    fleet::FleetStats coordinator;
    std::vector<fleet::WorkerStats> workers;
    std::vector<double> worker_ms;
    std::vector<std::string> errors;
};

/// One fleet run: a FleetCoordinator thread plus @p workers FleetWorker
/// threads, sharing a fresh directory, with hdpower_fleet's default lease
/// settings. Spans wrap the coordinator and each worker.
FleetRep fleet_once(Tracer& tracer, const Plan& plan, const fs::path& dir, unsigned workers)
{
    fleet::FleetOptions options;
    options.fleet_dir = dir / "fleet";
    options.models_dir = dir / "models";
    options.module_type = plan.type;
    options.widths = plan.widths;
    options.enhanced = plan.enhanced;
    options.zero_clusters = plan.zero_clusters;
    options.char_options = plan.options;
    options.poll_ms = kFleetPollMs;

    FleetRep rep;
    rep.workers.resize(workers);
    rep.worker_ms.resize(workers, 0.0);
    std::vector<std::string> errors(workers);
    const auto start = Clock::now();
    const int root = tracer.begin("fleet.coordinator");
    std::atomic<bool> coordinator_done{false};
    std::thread coordinator{[&] {
        try {
            rep.coordinator = fleet::FleetCoordinator{options}.run();
        } catch (const std::exception& error) {
            rep.errors.push_back(std::string("coordinator: ") + error.what());
        }
        rep.wall_ms = ms_since(start);
        coordinator_done = true;
    }};
    // Workers join the published plan, so no run waits out a plan poll
    // depending on which thread the scheduler started first.
    while (!coordinator_done && !fs::exists(options.fleet_dir / fleet::kPlanFileName)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            const Tracer::Scope span{tracer, "fleet.worker", root};
            try {
                fleet::WorkerOptions worker;
                worker.fleet_dir = options.fleet_dir;
                worker.module_type = plan.type;
                worker.widths = plan.widths;
                worker.char_options = plan.options;
                worker.poll_ms = kFleetPollMs;
                worker.worker_id = "bench-worker-" + std::to_string(w);
                rep.workers[w] = fleet::FleetWorker{std::move(worker)}.run();
            } catch (const std::exception& error) {
                errors[w] = error.what();
            }
            rep.worker_ms[w] = ms_since(start);
        });
    }
    coordinator.join();
    for (std::thread& thread : threads) {
        thread.join();
    }
    tracer.end(root);
    for (const std::string& error : errors) {
        if (!error.empty()) {
            rep.errors.push_back("worker: " + error);
        }
    }
    rep.last_worker_ms = *std::max_element(rep.worker_ms.begin(), rep.worker_ms.end());
    rep.digest = dir_digest(options.models_dir);
    fs::remove_all(dir);
    return rep;
}

} // namespace

void run_fleet_emul(const Config& config, Report& report)
{
    const Plan plan = fleet_plan(config);
    const unsigned workers = std::max(1u, config.nproc - 1);
    // The single-process ModelLibrary run the fleet must reproduce byte for
    // byte; its model also serves model_err_pct and the sessions.
    // It runs on all cores and without a journal: neither changes the
    // records.
    core::HdModel model;
    CharRep reference;
    const CharInputs in = timed_setup(report, [&] {
        CharInputs inputs = make_inputs(plan, config);
        Plan all_cores = plan;
        all_cores.options.threads = 0;
        reference = characterize_once(all_cores, "reference", &model, false);
        return inputs;
    });
    const std::string expected = sabotaged(config, reference.digest);
    report_exact(reference.digest, reference.stats, report);
    const std::vector<core::AnyModel> models = {&model};
    report_model_error(models, in, report);
    SessionBench sessions{config, in, models};

    auto check = [&](const FleetRep& r) {
        const bool ok = r.errors.empty() && r.digest == expected &&
                        r.coordinator.ranges_done == r.coordinator.num_ranges;
        report.op(ok, r.errors.empty() ? "fleet model differs from the single-process model"
                                       : r.errors.front());
    };
    Tracer off{false, ""};
    Tracer tracer{config.trace, "fleet_emul-" + std::to_string(config.seed)};
    // Rounds: a fleet run, then a slice of estimation sessions. The traced
    // run alternates untraced fleet runs with traced ones, each followed by
    // the traced single-process decomposition (without the per-shard
    // journal: a fleet publishes one done journal per range instead).
    std::vector<double> walls;
    std::vector<FleetRep> fleets;
    std::vector<Replay> replays;
    repeat_for(rounds_budget(config), config.trace ? 4 : 3, [&](std::size_t rep) {
        if (config.trace && rep % 2 == 1) {
            fleets.push_back(fleet_once(tracer, plan, "trace", workers));
            check(fleets.back());
            replays.push_back(replay_single(tracer, plan, "replay", config.nproc, false));
            report.op(replays.back().digest == expected,
                      "traced decomposition model differs from the fleet model");
        } else {
            const FleetRep r = fleet_once(off, plan, "rep", workers);
            check(r);
            walls.push_back(r.wall_ms);
        }
        sessions.run(session_slice(config));
    });
    sessions.report(report);
    if (!config.trace) {
        report.set("model_wall_s", median(walls) / 1e3, "s");
        return;
    }
    report_replays(replays, report);
    report_sim_stats(reference.stats, report);

    // Worker-side costs are not observable from outside the worker; they
    // are estimated from the replay's ShardRunner construction (calibration)
    // and median shard time, times each worker's shard count.
    std::vector<double> calibrations, shard_p50s;
    for (const Replay& r : replays) {
        calibrations.push_back(std::max(0.0, r.runner_ms - r.compile_ms));
        shard_p50s.push_back(r.shard_p50_ms);
    }
    const double calibrate = median(calibrations);
    const double shard_ms = median(shard_p50s);
    std::vector<double> coordinator, worker_max, busy, tail, useful;
    for (const FleetRep& f : fleets) {
        coordinator.push_back(f.wall_ms);
        worker_max.push_back(f.last_worker_ms);
        tail.push_back(f.wall_ms - f.last_worker_ms);
        double run = 0.0;
        double worked = 0.0;
        double wall = 0.0;
        for (std::size_t w = 0; w < f.workers.size(); ++w) {
            run += static_cast<double>(f.workers[w].shards_run);
            worked += calibrate + static_cast<double>(f.workers[w].shards_run) * shard_ms;
            wall += f.worker_ms[w];
        }
        busy.push_back(wall > 0.0 ? worked / wall : 0.0);
        useful.push_back(run > 0.0 ? static_cast<double>(f.coordinator.shards_merged) / run
                                   : 0.0);
    }
    const FleetRep& last = fleets.back();
    double heartbeats = 0.0;
    double duplicates = 0.0;
    for (const fleet::WorkerStats& w : last.workers) {
        heartbeats += static_cast<double>(w.heartbeats + w.mid_shard_heartbeats);
        duplicates += static_cast<double>(w.duplicate_publishes);
    }
    report.set("fleet.coordinator_ms", median(coordinator), "ms");
    report.set("fleet.worker_ms_max", median(worker_max), "ms");
    report.set("fleet.worker_busy_frac", median(busy), "ratio");
    report.set("fleet.calibrate_ms_total", calibrate * workers, "ms");
    report.set("fleet.tail_ms", median(tail), "ms");
    report.set("fleet.useful_shards_frac", median(useful), "ratio");
    report.set("fleet.ranges", static_cast<double>(last.coordinator.num_ranges), "count");
    report.set("fleet.heartbeats", heartbeats, "count");
    report.set("fleet.leases_expired", static_cast<double>(last.coordinator.leases_expired),
               "count");
    report.set("fleet.duplicate_publishes", duplicates, "count");
    report_overhead(coordinator, walls, report);
    tracer.write("spans.json");
}

double reference_charge_fc(const dp::DatapathModule& module,
                           const std::optional<gate::Corner>& corner,
                           std::span<const util::BitVec> patterns)
{
    std::optional<gate::TechLibrary> derived;
    const gate::TechLibrary& library = corner
                                           ? derived.emplace(
                                                 gate::TechLibrary::generic350().at(*corner))
                                           : gate::TechLibrary::generic350();
    sim::PowerSimulator simulator{module.netlist(), library};
    return simulator.run(patterns).mean_charge_fc();
}

} // namespace perfbench

#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point a)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
}

/// One workload run's settings (the driver-facing command line).
struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< measured time budget of the run
    bool trace = false;    ///< traced run: per-layer metrics instead of end-to-end
    bool reduced = false;  ///< small inputs for the benchmark's own tests
    /// Output-check self test: "digest" or "estimate" corrupts one expected
    /// value so the corresponding check must fail.
    std::string sabotage;
    std::filesystem::path work_dir; ///< scratch directory inside the checkout
    unsigned nproc = 1;
};

/// Median of @p values (0 for an empty set).
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, @p p in [0, 1] (0 for an empty set).
[[nodiscard]] double percentile(std::vector<double>& values, double p);

/// Log-bucketed sample histogram: fixed memory however many samples a run
/// takes (so peak_rss_mib does not follow throughput), percentiles within
/// 0.5% of the exact nearest-rank value.
class Histogram {
public:
    void add(double value);
    void merge(const Histogram& other);
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    /// Nearest-rank percentile, @p p in [0, 1], interpolated by rank inside
    /// its bucket (0 when empty).
    [[nodiscard]] double percentile(double p) const;

private:
    static constexpr double kMin = 1e-3;   ///< upper edge of bucket 0
    static constexpr double kGrowth = 1.005;
    static constexpr std::size_t kBuckets = 5000; ///< up to ~6.7e7 x kMin
    std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
    std::uint64_t count_ = 0;
};

/// In-memory span recorder. Spans are recorded only around calls the
/// benchmark itself makes into the library's public functions; nothing
/// inside the program is instrumented. Each span has a name, start, end,
/// parent and the recording thread, and the whole set carries the
/// workload-run id. A disabled tracer records nothing and costs a branch.
class Tracer {
public:
    Tracer(bool enabled, std::string run_id);

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Open a span; returns its id (-1 when disabled). Thread-safe.
    int begin(std::string_view name, int parent = -1);
    void end(int id);

    /// RAII span.
    class Scope {
    public:
        Scope(Tracer& tracer, std::string_view name, int parent = -1)
            : tracer_(tracer), id_(tracer.begin(name, parent))
        {
        }
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        [[nodiscard]] int id() const noexcept { return id_; }

    private:
        Tracer& tracer_;
        int id_;
    };

    /// Duration [ms] of span @p id (0 when disabled or still open).
    [[nodiscard]] double duration_ms(int id) const;
    /// Self time [ms] of span @p id: its duration minus the union of the
    /// intervals its direct children cover.
    [[nodiscard]] double self_ms(int id) const;

    /// Write every span as Chrome trace-event JSON.
    void write(const std::filesystem::path& path) const;

private:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
        int parent = -1;
        std::uint32_t thread = 0;
    };

    bool enabled_;
    std::string run_id_;
    Clock::time_point origin_;
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

/// Everything one run reports: metrics, operation accounting, output-check
/// failures, exact-repeat values (digests, plan counts) and the fingerprint.
struct Report {
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure descriptions
    std::vector<std::pair<std::string, std::string>> exact;

    void set(std::string name, double value, std::string unit);
    /// Count one operation; a failed one is recorded with @p what.
    void op(bool ok, const std::string& what);
    /// Count @p count operations of which @p bad failed.
    void ops(std::uint64_t count, std::uint64_t bad, const std::string& what);
    void set_exact(std::string name, std::string value);
};

/// The samples of one round of closed-loop load (one load segment, or one
/// slice of estimation sessions), or of one thread's share of it.
struct RoundSamples {
    Histogram estimate_us;
    Histogram turnaround_ms;
    double estimates = 0.0;

    void merge(const RoundSamples& other);
};

/// Closed-loop figures of a run. Each round gives one value of every
/// figure (its rate, and percentiles over all of its samples); the run
/// reports the median over its rounds. A change that shows in most rounds
/// moves the figure; one that shows in fewer than half of them (a stall
/// that hits a few rounds) does not.
struct LoadFigures {
    std::vector<double> qps;
    std::vector<double> estimate_p50_us;
    std::vector<double> estimate_p99_us;
    std::vector<double> turnaround_p50_ms;
    std::vector<double> turnaround_p99_ms;
    double estimates = 0.0; ///< over all rounds
    double wall_s = 0.0;    ///< over all rounds

    void add_round(const RoundSamples& round, double wall_s);
    /// estimate_qps, estimate_p50/p99_us and turnaround_p50/p99_ms.
    void report(Report& report) const;
};

/// 64-bit FNV-1a of a file's bytes, as 16 hex digits ("missing" if absent).
[[nodiscard]] std::string file_digest(const std::filesystem::path& path);
/// Regular files of @p dir, sorted by name.
[[nodiscard]] std::vector<std::filesystem::path> list_files(
    const std::filesystem::path& dir);

/// Peak resident set of this process image [MiB] (VmHWM: unlike
/// ru_maxrss it does not inherit the parent's peak across exec).
[[nodiscard]] double peak_rss_mib();

/// CPUs this process may run on.
[[nodiscard]] std::vector<unsigned> allowed_cpus();

/// Pin the calling thread to the given CPUs (ignored when unavailable).
void pin_current_thread(const std::vector<unsigned>& cpus);

/// Repeat @p body until @p budget_s seconds have passed and at least
/// @p min_reps repetitions ran; returns the repetition count.
std::size_t repeat_for(double budget_s, std::size_t min_reps,
                       const std::function<void(std::size_t)>& body);

/// Run @p make five times, report the median as setup_s, keep the last
/// result (set-up is repeated so that work moved into it shows steadily).
template <typename Make>
auto timed_setup(Report& report, Make&& make)
{
    std::vector<double> seconds;
    std::optional<decltype(make())> result;
    for (int i = 0; i < 5; ++i) {
        result.reset();
        const auto start = Clock::now();
        result.emplace(make());
        seconds.push_back(ms_since(start) / 1e3);
    }
    report.set("setup_s", median(seconds), "s");
    return std::move(*result);
}

/// Print the run's result as one JSON line on stdout.
void print_report(const Config& config, const Report& report);

} // namespace perfbench

#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "util/cpu.hpp"

namespace perfbench {

double median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double>& values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    const std::size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

void Histogram::add(double value)
{
    std::size_t bucket = 0;
    if (value > kMin) {
        bucket = std::min(kBuckets - 1, 1 + static_cast<std::size_t>(std::log(value / kMin) /
                                                                      std::log(kGrowth)));
    }
    ++buckets_[bucket];
    ++count_;
}

void Histogram::merge(const Histogram& other)
{
    for (std::size_t i = 0; i < kBuckets; ++i) {
        buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
}

double Histogram::percentile(double p) const
{
    if (count_ == 0) {
        return 0.0;
    }
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_))));
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (below + buckets_[i] >= rank) {
            const double lo = i == 0 ? 0.0 : kMin * std::pow(kGrowth, static_cast<double>(i - 1));
            const double hi = kMin * std::pow(kGrowth, static_cast<double>(i));
            const double within = (static_cast<double>(rank - below) - 0.5) /
                                  static_cast<double>(buckets_[i]);
            return lo + (hi - lo) * within;
        }
        below += buckets_[i];
    }
    return kMin * std::pow(kGrowth, static_cast<double>(kBuckets - 1));
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now())
{
}

int Tracer::begin(std::string_view name, int parent)
{
    if (!enabled_) {
        return -1;
    }
    Span span;
    span.name = std::string(name);
    span.parent = parent;
    span.thread = static_cast<std::uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
    std::lock_guard lock{mutex_};
    span.start_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id)
{
    if (id < 0) {
        return;
    }
    const auto now = Clock::now();
    std::lock_guard lock{mutex_};
    spans_[static_cast<std::size_t>(id)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin_).count();
}

double Tracer::duration_ms(int id) const
{
    if (id < 0) {
        return 0.0;
    }
    std::lock_guard lock{mutex_};
    const Span& span = spans_[static_cast<std::size_t>(id)];
    return span.end_ns < 0 ? 0.0 : static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

double Tracer::self_ms(int id) const
{
    if (id < 0) {
        return 0.0;
    }
    std::lock_guard lock{mutex_};
    const Span& span = spans_[static_cast<std::size_t>(id)];
    if (span.end_ns < 0) {
        return 0.0;
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const Span& child : spans_) {
        if (child.parent == id && child.end_ns >= 0) {
            children.emplace_back(std::max(child.start_ns, span.start_ns),
                                  std::min(child.end_ns, span.end_ns));
        }
    }
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [start, end] : children) {
        const std::int64_t from = std::max(start, reach);
        if (end > from) {
            covered += end - from;
            reach = end;
        }
    }
    return static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
}

void Tracer::write(const std::filesystem::path& path) const
{
    std::lock_guard lock{mutex_};
    std::ofstream out{path};
    out << "{\"traceEvents\": [";
    const char* separator = "\n";
    for (std::size_t id = 0; id < spans_.size(); ++id) {
        const Span& span = spans_[id];
        if (span.end_ns < 0) {
            continue;
        }
        out << std::exchange(separator, ",\n") << "{\"name\": \"" << span.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
            << ", \"ts\": " << static_cast<double>(span.start_ns) / 1e3
            << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) / 1e3
            << ", \"args\": {\"id\": " << id << ", \"parent\": " << span.parent
            << ", \"run\": \"" << run_id_ << "\"}}";
    }
    out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::set(std::string name, double value, std::string unit)
{
    for (Metric& metric : metrics) {
        if (metric.name == name) {
            metric.value = value;
            metric.unit = std::move(unit);
            return;
        }
    }
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::op(bool ok, const std::string& what)
{
    ops(1, ok ? 0 : 1, what);
}

void Report::ops(std::uint64_t count, std::uint64_t bad, const std::string& what)
{
    attempted += count;
    failed += bad;
    if (bad > 0 && failures.size() < 8) {
        failures.push_back(what + (bad > 1 ? " (x" + std::to_string(bad) + ")" : ""));
    }
}

void Report::set_exact(std::string name, std::string value)
{
    exact.emplace_back(std::move(name), std::move(value));
}

void RoundSamples::merge(const RoundSamples& other)
{
    estimate_us.merge(other.estimate_us);
    turnaround_ms.merge(other.turnaround_ms);
    estimates += other.estimates;
}

void LoadFigures::add_round(const RoundSamples& round, double round_wall_s)
{
    if (round.estimate_us.count() == 0) {
        return;
    }
    qps.push_back(round.estimates / round_wall_s);
    estimate_p50_us.push_back(round.estimate_us.percentile(0.50));
    estimate_p99_us.push_back(round.estimate_us.percentile(0.99));
    turnaround_p50_ms.push_back(round.turnaround_ms.percentile(0.50));
    turnaround_p99_ms.push_back(round.turnaround_ms.percentile(0.99));
    estimates += round.estimates;
    wall_s += round_wall_s;
}

void LoadFigures::report(Report& report) const
{
    report.set("estimate_qps", median(qps), "1/s");
    report.set("estimate_p50_us", median(estimate_p50_us), "us");
    report.set("estimate_p99_us", median(estimate_p99_us), "us");
    report.set("turnaround_p50_ms", median(turnaround_p50_ms), "ms");
    report.set("turnaround_p99_ms", median(turnaround_p99_ms), "ms");
}

// ---------------------------------------------------------------------------
// Files, process, threads
// ---------------------------------------------------------------------------

std::string file_digest(const std::filesystem::path& path)
{
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
        return "missing";
    }
    std::ifstream in{path, std::ios::binary};
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
    return buffer;
}

std::vector<std::filesystem::path> list_files(const std::filesystem::path& dir)
{
    std::vector<std::filesystem::path> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file()) {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

double peak_rss_mib()
{
    std::ifstream in{"/proc/self/status"};
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB
        }
    }
    return 0.0;
}

std::vector<unsigned> allowed_cpus()
{
    cpu_set_t set;
    std::vector<unsigned> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) {
                cpus.push_back(cpu);
            }
        }
    }
    return cpus;
}

void pin_current_thread(const std::vector<unsigned>& cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const unsigned cpu : cpus) {
        CPU_SET(cpu, &set);
    }
    (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::size_t repeat_for(double budget_s, std::size_t min_reps,
                       const std::function<void(std::size_t)>& body)
{
    const auto start = Clock::now();
    std::size_t reps = 0;
    while (reps < min_reps || ms_since(start) < budget_s * 1e3) {
        body(reps);
        ++reps;
    }
    return reps;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

namespace {

std::string json_string(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string cpu_model()
{
    std::ifstream in{"/proc/cpuinfo"};
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

std::string number(double value)
{
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

void print_report(const Config& config, const Report& report)
{
    std::ostringstream out;
    out << "{\"workload\": " << json_string(config.workload)
        << ", \"seed\": " << config.seed << ", \"trace\": " << (config.trace ? 1 : 0)
        << ", \"reduced\": " << (config.reduced ? "true" : "false")
        << ", \"correct\": "
        << (report.failed == 0 && report.failures.empty() ? "true" : "false")
        << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
        << ", \"failures\": [";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_string(report.failures[i]);
    }
    out << "], \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Report::Metric& m = report.metrics[i];
        out << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": "
            << number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    }
    out << "}, \"exact\": {";
    for (std::size_t i = 0; i < report.exact.size(); ++i) {
        out << (i == 0 ? "" : ", ") << json_string(report.exact[i].first) << ": "
            << json_string(report.exact[i].second);
    }
    out << "}, \"fingerprint\": {\"cpu\": " << json_string(cpu_model())
        << ", \"nproc\": " << config.nproc << ", \"simd_tier\": "
        << json_string(hdpm::util::cpu::level_name(hdpm::util::cpu::active()))
        << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
        << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}}";
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench

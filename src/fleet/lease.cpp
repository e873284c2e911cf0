#include "fleet/lease.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fault.hpp"
#include "util/file_io.hpp"

namespace hdpm::fleet {

using util::FaultContext;
using util::FaultError;
using util::FaultKind;
using util::FaultPoint;
using util::hex64;
using util::parse_hex64;

namespace {

constexpr std::string_view kPlanMagic = "hdpm_fleet";
constexpr std::string_view kLeaseMagic = "hdpm_lease";
constexpr int kVersion = 1;

[[noreturn]] void io_fail(const std::filesystem::path& path, std::string detail)
{
    FaultContext context;
    context.component = path.string();
    context.detail = std::move(detail);
    throw FaultError{FaultKind::IoError, std::move(context)};
}

} // namespace

core::CharacterizationOptions resolve_plan_options(core::CharacterizationOptions options,
                                                   const bool enhanced)
{
    // Mirror Characterizer::characterize_enhanced: only the enhanced path
    // pins an unset mode (to StratifiedPairs); the basic path fingerprints
    // the mode as "unset" and generates StratifiedChain.
    if (enhanced && !options.mode.has_value()) {
        options.mode = core::StimulusMode::StratifiedPairs;
    }
    // The whole-run checkpoint knob is meaningless inside a fleet (each
    // range journals into its own done file) and must not leak into worker
    // shard runs.
    options.checkpoint.clear();
    return options;
}

std::string lease_name(std::size_t range_start)
{
    return "range_" + std::to_string(range_start) + ".lease";
}

std::string done_name(std::size_t range_start)
{
    return "range_" + std::to_string(range_start) + ".done";
}

std::size_t num_ranges(const FleetPlan& plan) noexcept
{
    if (plan.lease_shards == 0) {
        return 0;
    }
    return (plan.num_shards + plan.lease_shards - 1) / plan.lease_shards;
}

std::size_t range_count(const FleetPlan& plan, std::size_t start) noexcept
{
    if (start >= plan.num_shards) {
        return 0;
    }
    return std::min(plan.lease_shards, plan.num_shards - start);
}

void write_plan(const std::filesystem::path& dir, const FleetPlan& plan)
{
    std::ostringstream os;
    os << kPlanMagic << ' ' << kVersion << '\n';
    os << "fingerprint " << hex64(plan.fingerprint) << '\n';
    os << "module " << plan.module_key << " m " << plan.input_bits << '\n';
    os << "shards " << plan.num_shards << ' ' << plan.shard_size << '\n';
    os << "lease " << plan.lease_shards << '\n';
    os << "model " << (plan.enhanced ? "enhanced" : "basic") << ' '
       << plan.zero_clusters << '\n';
    os << "end\n";
    util::publish_file(dir / kPlanFileName, os.str());
}

std::optional<FleetPlan> read_plan(const std::filesystem::path& dir)
{
    const std::filesystem::path path = dir / kPlanFileName;
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        return std::nullopt;
    }
    const auto malformed = [&](const char* what) -> void {
        FaultContext context;
        context.component = path.string();
        context.detail = std::string{"malformed fleet plan: "} + what;
        throw FaultError{FaultKind::ProtocolError, std::move(context)};
    };

    std::string tag;
    int version = 0;
    in >> tag >> version;
    if (!in || tag != kPlanMagic || version != kVersion) {
        malformed("bad magic/version header");
    }

    FleetPlan plan;
    std::string hex;
    in >> tag >> hex;
    if (!in || tag != "fingerprint" || !parse_hex64(hex, plan.fingerprint)) {
        malformed("fingerprint line");
    }
    std::string mtag;
    in >> tag >> plan.module_key >> mtag >> plan.input_bits;
    if (!in || tag != "module" || mtag != "m" || plan.input_bits < 1) {
        malformed("module line");
    }
    in >> tag >> plan.num_shards >> plan.shard_size;
    if (!in || tag != "shards" || plan.num_shards == 0 || plan.shard_size == 0) {
        malformed("shards line");
    }
    in >> tag >> plan.lease_shards;
    if (!in || tag != "lease" || plan.lease_shards == 0) {
        malformed("lease line");
    }
    std::string model_kind;
    in >> tag >> model_kind >> plan.zero_clusters;
    if (!in || tag != "model" ||
        (model_kind != "basic" && model_kind != "enhanced") ||
        plan.zero_clusters < 0) {
        malformed("model line");
    }
    plan.enhanced = model_kind == "enhanced";
    in >> tag;
    if (!in || tag != "end") {
        malformed("missing end marker");
    }
    return plan;
}

bool claim_lease(const std::filesystem::path& path, const LeaseInfo& info)
{
    // O_CREAT|O_EXCL is the claim itself: exactly one contender can create
    // the name. The payload write follows immediately; a reader racing the
    // few microseconds in between sees a fresh-but-unparseable lease, which
    // the coordinator tolerates until the TTL says otherwise.
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0) {
        if (errno == EEXIST) {
            return false;
        }
        io_fail(path, "cannot create lease file");
    }

    std::ostringstream os;
    os << kLeaseMagic << ' ' << kVersion << '\n';
    os << "worker " << info.worker << '\n';
    os << "token " << hex64(info.token) << '\n';
    os << "range " << info.start << ' ' << info.count << '\n';
    os << "end\n";
    std::string payload = os.str();
    HDPM_FAULT_MUTATE(FaultPoint::LeaseCorrupt, payload);

    std::size_t written = 0;
    while (written < payload.size()) {
        const ssize_t n =
            ::write(fd, payload.data() + written, payload.size() - written);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            ::close(fd);
            io_fail(path, "cannot write lease payload");
        }
        written += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return true;
}

LeaseRead read_lease(const std::filesystem::path& path, LeaseInfo& out)
{
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        return LeaseRead::Missing;
    }
    std::string tag;
    int version = 0;
    in >> tag >> version;
    if (!in || tag != kLeaseMagic || version != kVersion) {
        return LeaseRead::Corrupt;
    }
    std::string hex;
    in >> tag >> out.worker;
    if (!in || tag != "worker") {
        return LeaseRead::Corrupt;
    }
    in >> tag >> hex;
    if (!in || tag != "token" || !parse_hex64(hex, out.token)) {
        return LeaseRead::Corrupt;
    }
    in >> tag >> out.start >> out.count;
    if (!in || tag != "range" || out.count == 0) {
        return LeaseRead::Corrupt;
    }
    in >> tag;
    if (!in || tag != "end") {
        return LeaseRead::Corrupt;
    }
    return LeaseRead::Ok;
}

bool heartbeat_lease(const std::filesystem::path& path)
{
    if (HDPM_FAULT_FIRE(FaultPoint::HeartbeatSkew)) {
        // A clock-skewed worker: stamp the heartbeat an hour into the
        // future. The coordinator must clamp the resulting negative age
        // instead of wedging its expiry arithmetic.
        std::error_code ec;
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now() + std::chrono::hours{1},
            ec);
        return !ec;
    }
    // utimensat(UTIME_NOW) never creates the file, so a heartbeat can only
    // refresh a lease that still exists — ENOENT is the expiry signal.
    if (::utimensat(AT_FDCWD, path.c_str(), nullptr, 0) != 0) {
        return false;
    }
    return true;
}

std::optional<double> file_age_ms(const std::filesystem::path& path)
{
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(path, ec);
    if (ec) {
        return std::nullopt;
    }
    const auto now = std::filesystem::file_time_type::clock::now();
    return std::chrono::duration<double, std::milli>(now - mtime).count();
}

bool publish_first_wins(const std::filesystem::path& tmp,
                        const std::filesystem::path& final_path)
{
    bool won = false;
    if (::link(tmp.c_str(), final_path.c_str()) == 0) {
        won = true;
    } else if (errno != EEXIST) {
        const int saved = errno;
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        io_fail(final_path,
                std::string{"cannot publish result: "} + std::strerror(saved));
    }
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return won;
}

} // namespace hdpm::fleet

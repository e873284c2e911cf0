#include "fleet/lease.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/error.hpp"
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
constexpr std::string_view kPieceMagic = "hdpm_calib";
/// Version 2 plans record the calibration piece count; a version 1 plan
/// predates leased calibration and is refused.
constexpr int kPlanVersion = 2;
constexpr int kLeaseVersion = 1;
constexpr int kPieceVersion = 1;

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

std::string calib_lease_name(std::size_t piece)
{
    return "calib_" + std::to_string(piece) + ".lease";
}

std::string calib_done_name(std::size_t piece)
{
    return "calib_" + std::to_string(piece) + ".done";
}

bool valid_worker_id(std::string_view id) noexcept
{
    if (id.empty() || id.size() > 64) {
        return false;
    }
    return std::all_of(id.begin(), id.end(), [](const char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
               c == '.' || c == '_' || c == '-';
    });
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
    os << kPlanMagic << ' ' << kPlanVersion << '\n';
    os << "fingerprint " << hex64(plan.fingerprint) << '\n';
    os << "module " << plan.module_key << " m " << plan.input_bits << '\n';
    os << "shards " << plan.num_shards << ' ' << plan.shard_size << '\n';
    os << "lease " << plan.lease_shards << '\n';
    os << "model " << (plan.enhanced ? "enhanced" : "basic") << ' '
       << plan.zero_clusters << '\n';
    os << "calibration " << plan.calibration_pieces << '\n';
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
    if (!in || tag != kPlanMagic || version != kPlanVersion) {
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
    in >> tag >> plan.calibration_pieces;
    if (!in || tag != "calibration") {
        malformed("calibration line");
    }
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
    os << kLeaseMagic << ' ' << kLeaseVersion << '\n';
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
    if (!in || tag != kLeaseMagic || version != kLeaseVersion) {
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

namespace {

// Calibration piece file, version 1 (numbers decimal unless noted):
//
//   hdpm_calib 1
//   fingerprint <16 hex>
//   module <key> piece <index>
//   geometry <class> <shard> <first> <count> nets <n> zero <0|1>
//   block <body bytes, 16 hex> <FNV-1a of the body, 16 hex>
//   <body> = charges <charge bits, 16 hex> x count
//            events <toggles> x n
//            zeros <toggles> x n        (zero 1 only)
constexpr std::string_view kFrameTag = "block ";
constexpr std::size_t kFrameBytes = kFrameTag.size() + 16 + 1 + 16 + 1;

std::string piece_header(const PieceStamp& stamp)
{
    const core::CalibrationPiece& piece = stamp.piece;
    std::ostringstream os;
    os << kPieceMagic << ' ' << kPieceVersion << '\n';
    os << "fingerprint " << hex64(stamp.fingerprint) << '\n';
    os << "module " << stamp.module_key << " piece " << stamp.index << '\n';
    os << "geometry " << piece.timing_class << ' ' << piece.shard << ' ' << piece.first << ' '
       << piece.count << " nets " << stamp.nets << " zero " << (stamp.zero_delay ? 1 : 0)
       << '\n';
    return os.str();
}

void append_counts(std::string& out, std::string_view tag,
                   const std::vector<std::uint64_t>& counts)
{
    out += tag;
    char digits[24];
    for (const std::uint64_t count : counts) {
        out += ' ';
        out.append(digits, std::to_chars(digits, digits + sizeof digits, count).ptr);
    }
    out += '\n';
}

/// Take the line "<tag> w_0 ... w_{n-1}" off @p body, handing each word to
/// @p parse(i, word); false when the line has another tag or word count,
/// or @p parse refuses a word.
template <typename Parse>
bool take_line(std::string_view& body, std::string_view tag, std::size_t n,
               const Parse& parse)
{
    const std::size_t end = body.find('\n');
    if (end == std::string_view::npos) {
        return false;
    }
    std::string_view line = body.substr(0, end);
    body.remove_prefix(end + 1);
    if (line.substr(0, tag.size()) != tag) {
        return false;
    }
    line.remove_prefix(tag.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (line.empty() || line[0] != ' ') {
            return false;
        }
        line.remove_prefix(1);
        const std::string_view word = line.substr(0, line.find(' '));
        line.remove_prefix(word.size());
        if (!parse(i, word)) {
            return false;
        }
    }
    return line.empty();
}

bool take_counts(std::string_view& body, std::string_view tag, std::size_t n,
                 std::vector<std::uint64_t>& out)
{
    out.resize(n);
    return take_line(body, tag, n, [&](std::size_t i, std::string_view word) {
        const char* const end = word.data() + word.size();
        const auto [stop, ec] = std::from_chars(word.data(), end, out[i]);
        return !word.empty() && ec == std::errc{} && stop == end;
    });
}

} // namespace

void write_calibration_piece(const std::filesystem::path& path, const PieceStamp& stamp,
                             const core::CalibrationPieceResult& result)
{
    HDPM_REQUIRE(result.charges.size() == stamp.piece.count &&
                     result.event_toggles.size() == stamp.nets &&
                     result.zero_toggles.size() == (stamp.zero_delay ? stamp.nets : 0),
                 "calibration piece result does not match its stamp");
    std::string body = "charges";
    for (const double charge : result.charges) {
        body += ' ';
        util::append_hex64(body, std::bit_cast<std::uint64_t>(charge));
    }
    body += '\n';
    append_counts(body, "events", result.event_toggles);
    if (stamp.zero_delay) {
        append_counts(body, "zeros", result.zero_toggles);
    }

    std::string payload = piece_header(stamp);
    payload += kFrameTag;
    util::append_hex64(payload, body.size());
    payload += ' ';
    util::append_hex64(payload, util::fnv1a64(body));
    payload += '\n';
    payload += body;
    HDPM_FAULT_MUTATE(FaultPoint::CheckpointShortWrite, payload);
    util::publish_file(path, payload);
}

PieceRead read_calibration_piece(const std::filesystem::path& path,
                                 const PieceStamp& expected,
                                 core::CalibrationPieceResult& out)
{
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        return PieceRead::Missing;
    }
    // The largest file a piece of the expected shape can be: 17 bytes per
    // charge, at most 21 per toggle count, plus the line tags.
    const std::string header = piece_header(expected);
    const std::size_t limit = header.size() + kFrameBytes + 3 * 16 +
                              17 * expected.piece.count + 2 * 21 * expected.nets;
    std::string data(limit + 1, '\0');
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    data.resize(static_cast<std::size_t>(in.gcount()));
    std::string_view text = data;
    if (data.size() > limit || text.substr(0, header.size()) != header) {
        return PieceRead::Rejected;
    }
    text.remove_prefix(header.size());
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
    if (text.size() < kFrameBytes || text.substr(0, kFrameTag.size()) != kFrameTag ||
        !parse_hex64(text.substr(kFrameTag.size(), 16), bytes) ||
        text[kFrameTag.size() + 16] != ' ' ||
        !parse_hex64(text.substr(kFrameTag.size() + 17, 16), checksum) ||
        text[kFrameBytes - 1] != '\n') {
        return PieceRead::Rejected;
    }
    text.remove_prefix(kFrameBytes);
    if (text.size() != bytes || util::fnv1a64(text) != checksum) {
        return PieceRead::Rejected;
    }

    core::CalibrationPieceResult result;
    result.charges.assign(expected.piece.count, 0.0);
    const bool charges_ok = take_line(text, "charges", result.charges.size(),
                                      [&](std::size_t i, std::string_view word) {
                                          std::uint64_t charge_bits = 0;
                                          if (!parse_hex64(word, charge_bits)) {
                                              return false;
                                          }
                                          result.charges[i] = std::bit_cast<double>(charge_bits);
                                          return true;
                                      });
    if (!charges_ok || !take_counts(text, "events", expected.nets, result.event_toggles) ||
        (expected.zero_delay &&
         !take_counts(text, "zeros", expected.nets, result.zero_toggles)) ||
        !text.empty()) {
        return PieceRead::Rejected;
    }
    out = std::move(result);
    return PieceRead::Ok;
}

} // namespace hdpm::fleet

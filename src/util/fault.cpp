#include "util/fault.hpp"

#include <sstream>

#include "util/parallel.hpp"

namespace hdpm::util {

const char* fault_kind_name(FaultKind kind) noexcept
{
    switch (kind) {
    case FaultKind::SimBudgetExceeded:
        return "SimBudgetExceeded";
    case FaultKind::ModelFileCorrupt:
        return "ModelFileCorrupt";
    case FaultKind::RegressionIllConditioned:
        return "RegressionIllConditioned";
    case FaultKind::ShardFailed:
        return "ShardFailed";
    case FaultKind::CheckpointCorrupt:
        return "CheckpointCorrupt";
    case FaultKind::IoError:
        return "IoError";
    case FaultKind::Overloaded:
        return "Overloaded";
    case FaultKind::ProtocolError:
        return "ProtocolError";
    case FaultKind::LeaseExpired:
        return "LeaseExpired";
    case FaultKind::WorkerLost:
        return "WorkerLost";
    case FaultKind::RetriesExhausted:
        return "RetriesExhausted";
    }
    return "UnknownFault";
}

std::string FaultContext::describe() const
{
    std::ostringstream os;
    if (!component.empty()) {
        os << component;
    }
    if (bitwidth >= 0) {
        os << " (m=" << bitwidth << ')';
    }
    if (shard >= 0) {
        os << " shard " << shard;
    }
    if (record >= 0) {
        os << " record " << record;
    }
    if (has_vectors) {
        os << std::hex << " u=0x" << vector_u << " v=0x" << vector_v << std::dec;
    }
    if (!detail.empty()) {
        os << (os.tellp() > 0 ? ": " : "") << detail;
    }
    return os.str();
}

namespace {

std::string fault_message(FaultKind kind, const FaultContext& context)
{
    std::string msg = fault_kind_name(kind);
    const std::string body = context.describe();
    if (!body.empty()) {
        msg += ": ";
        msg += body;
    }
    return msg;
}

FaultInjector* g_injector = nullptr;

} // namespace

FaultError::FaultError(FaultKind kind, FaultContext context)
    : RuntimeError(fault_message(kind, context)), kind_(kind), context_(std::move(context))
{
}

void FaultInjector::arm(FaultPoint point, std::uint64_t countdown)
{
    const std::lock_guard<std::mutex> lock{mutex_};
    Point& p = points_[static_cast<std::size_t>(point)];
    p.armed = true;
    p.countdown = countdown == 0 ? 1 : countdown;
}

bool FaultInjector::fire(FaultPoint point) noexcept
{
    const std::lock_guard<std::mutex> lock{mutex_};
    Point& p = points_[static_cast<std::size_t>(point)];
    if (!p.armed) {
        return false;
    }
    if (--p.countdown > 0) {
        return false;
    }
    p.armed = false;
    ++p.fired;
    return true;
}

std::uint64_t FaultInjector::fired_count(FaultPoint point) const noexcept
{
    const std::lock_guard<std::mutex> lock{mutex_};
    return points_[static_cast<std::size_t>(point)].fired;
}

void FaultInjector::mutate_payload(FaultPoint point, std::string& payload)
{
    if (!fire(point)) {
        return;
    }
    // Never touch the first line: the corruption models a payload damaged
    // behind an intact fingerprint header.
    const std::size_t body_start = payload.find('\n');
    const std::size_t start = body_start == std::string::npos ? 0 : body_start + 1;
    if (start >= payload.size()) {
        return;
    }
    const std::uint64_t h =
        splitmix64(seed_ ^ static_cast<std::uint64_t>(payload.size()) ^
                   static_cast<std::uint64_t>(point));
    const std::size_t body = payload.size() - start;
    if (point == FaultPoint::ModelBitFlip) {
        // Flip the high bit of a seed-chosen body byte. Bit 7 turns any
        // ASCII token byte into a non-parsable one, so the damage is
        // always detectable; the final "end\n" marker is excluded so the
        // corruption cannot land in trailing bytes a parser never reads.
        const std::size_t span = body > 5 ? body - 5 : body;
        const std::size_t pos = start + static_cast<std::size_t>(h % span);
        payload[pos] = static_cast<char>(payload[pos] ^ 0x80);
    } else {
        // Short write: keep a strict, seed-chosen prefix of the body —
        // exactly what a killed process leaves behind mid-write.
        const std::size_t keep = body <= 1 ? 0 : static_cast<std::size_t>(h % (body - 1));
        payload.resize(start + keep);
    }
}

FaultInjector* FaultInjector::install(FaultInjector* injector) noexcept
{
    FaultInjector* previous = g_injector;
    g_injector = injector;
    return previous;
}

FaultInjector* FaultInjector::instance() noexcept
{
    return g_injector;
}

} // namespace hdpm::util

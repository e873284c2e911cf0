#include "serve/protocol.hpp"

#include <bit>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace hdpm::serve {

namespace {

[[noreturn]] void protocol_fault(std::string detail)
{
    util::FaultContext context;
    context.component = "serve::protocol";
    context.detail = std::move(detail);
    throw util::FaultError{util::FaultKind::ProtocolError, std::move(context)};
}

[[noreturn]] void io_fault(std::string detail)
{
    util::FaultContext context;
    context.component = "serve::socket";
    context.detail = std::move(detail);
    throw util::FaultError{util::FaultKind::IoError, std::move(context)};
}

/// recv() the exact byte count; true on success, false on EOF before the
/// first byte. EOF mid-buffer or a socket error throws.
bool recv_exact(int fd, std::uint8_t* data, std::size_t size, bool eof_ok)
{
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::recv(fd, data + got, size - got, 0);
        if (n == 0) {
            if (got == 0 && eof_ok) {
                return false;
            }
            protocol_fault("connection closed inside a frame");
        }
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            io_fault(std::string{"recv failed: "} + std::strerror(errno));
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

std::string status_name(std::uint8_t status)
{
    switch (static_cast<StatusCode>(status)) {
    case StatusCode::Ok:
        return "Ok";
    case StatusCode::Overloaded:
        return "Overloaded";
    case StatusCode::BadRequest:
        return "BadRequest";
    case StatusCode::UnknownTrace:
        return "UnknownTrace";
    case StatusCode::UnknownModule:
        return "UnknownModule";
    case StatusCode::InternalError:
        return "InternalError";
    default:
        break;
    }
    if (status >= kFaultBase) {
        return util::fault_kind_name(
            static_cast<util::FaultKind>(status - kFaultBase));
    }
    return "Unknown(" + std::to_string(status) + ")";
}

void WireWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        bytes_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
}

void WireWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        bytes_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
}

void WireWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void WireWriter::str(std::string_view s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void WireWriter::words(std::span<const std::uint64_t> w)
{
    const std::size_t old = bytes_.size();
    bytes_.resize(old + w.size() * sizeof(std::uint64_t));
    // Little-endian targets only (matched by the trace-file format).
    std::memcpy(bytes_.data() + old, w.data(), w.size() * sizeof(std::uint64_t));
}

void WireReader::need(std::size_t n) const
{
    if (bytes_.size() - offset_ < n) {
        protocol_fault("truncated payload: need " + std::to_string(n) +
                       " byte(s), have " + std::to_string(bytes_.size() - offset_));
    }
}

std::uint8_t WireReader::u8()
{
    need(1);
    return bytes_[offset_++];
}

std::uint32_t WireReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        v = (v << 8) | bytes_[offset_ + static_cast<std::size_t>(i)];
    }
    offset_ += 4;
    return v;
}

std::uint64_t WireReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) | bytes_[offset_ + static_cast<std::size_t>(i)];
    }
    offset_ += 8;
    return v;
}

double WireReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string WireReader::str()
{
    const std::uint32_t size = u32();
    need(size);
    std::string s{reinterpret_cast<const char*>(bytes_.data() + offset_), size};
    offset_ += size;
    return s;
}

std::vector<std::uint64_t> WireReader::words(std::size_t count)
{
    need(count * sizeof(std::uint64_t));
    std::vector<std::uint64_t> w(count);
    std::memcpy(w.data(), bytes_.data() + offset_, count * sizeof(std::uint64_t));
    offset_ += count * sizeof(std::uint64_t);
    return w;
}

void WireReader::expect_end() const
{
    if (offset_ != bytes_.size()) {
        protocol_fault(std::to_string(bytes_.size() - offset_) +
                       " trailing byte(s) after the message body");
    }
}

std::optional<std::vector<std::uint8_t>> read_frame(int fd, std::uint32_t max_frame)
{
    std::uint8_t prefix[4];
    if (!recv_exact(fd, prefix, sizeof prefix, /*eof_ok=*/true)) {
        return std::nullopt;
    }
    std::uint32_t length = 0;
    for (int i = 3; i >= 0; --i) {
        length = (length << 8) | prefix[i];
    }
    if (length == 0 || length > max_frame) {
        protocol_fault("frame length " + std::to_string(length) +
                       " outside (0, " + std::to_string(max_frame) + "]");
    }
    std::vector<std::uint8_t> payload(length);
    recv_exact(fd, payload.data(), payload.size(), /*eof_ok=*/false);
    return payload;
}

void write_frame(int fd, std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> buffer;
    append_frame(buffer, payload);
    send_all(fd, buffer);
}

void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload)
{
    const auto length = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>((length >> (8 * i)) & 0xff));
    }
    out.insert(out.end(), payload.begin(), payload.end());
}

void send_all(int fd, std::vector<std::uint8_t>& buffer)
{
    std::size_t sent = 0;
    while (sent < buffer.size()) {
        const ssize_t n =
            ::send(fd, buffer.data() + sent, buffer.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            io_fault(std::string{"send failed: "} + std::strerror(errno));
        }
        sent += static_cast<std::size_t>(n);
    }
    buffer.clear();
}

void encode_estimate_request(WireWriter& w, const EstimateRequest& request)
{
    // The caller writes the leading type byte (symmetric with decode).
    w.u64(request.trace_id);
    w.u8(request.module_type);
    w.u8(static_cast<std::uint8_t>(request.kind));
    w.i32(request.zero_clusters);
    // The count travels as one byte; reject out-of-range requests here
    // instead of silently truncating (256 would even wrap to 0, which the
    // decoder rejects on the far side with a confusing error).
    if (request.widths.empty() || request.widths.size() > 255) {
        protocol_fault("estimate request has " +
                       std::to_string(request.widths.size()) +
                       " operand widths; the wire format allows 1..255");
    }
    w.u8(static_cast<std::uint8_t>(request.widths.size()));
    for (const int width : request.widths) {
        w.i32(width);
    }
    // Trailing-optional corner block: pre-corner decoders never see it
    // (they stop at the widths), and pre-corner encoders simply end the
    // frame here — the decoder treats an exhausted payload as "no corner".
    if (request.corner.has_value()) {
        w.u8(1);
        w.f64(request.corner->vdd_v);
        w.f64(request.corner->temp_c);
        w.u8(static_cast<std::uint8_t>(request.corner->load_class));
    }
}

EstimateRequest decode_estimate_request(WireReader& r)
{
    // The leading type byte was consumed by the dispatcher.
    EstimateRequest request;
    request.trace_id = r.u64();
    request.module_type = r.u8();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(ModelKind::Enhanced)) {
        protocol_fault("unknown model kind " + std::to_string(kind));
    }
    request.kind = static_cast<ModelKind>(kind);
    request.zero_clusters = r.i32();
    const std::uint8_t n = r.u8();
    if (n == 0) {
        protocol_fault("estimate request without operand widths");
    }
    request.widths.resize(n);
    for (std::uint8_t i = 0; i < n; ++i) {
        request.widths[i] = r.i32();
    }
    if (r.remaining() > 0) {
        const std::uint8_t has_corner = r.u8();
        if (has_corner > 1) {
            protocol_fault("bad corner flag " + std::to_string(has_corner));
        }
        if (has_corner == 1) {
            gate::Corner corner;
            corner.vdd_v = r.f64();
            corner.temp_c = r.f64();
            const std::uint8_t load = r.u8();
            if (load > static_cast<std::uint8_t>(gate::LoadClass::Heavy)) {
                protocol_fault("unknown load class " + std::to_string(load));
            }
            corner.load_class = static_cast<gate::LoadClass>(load);
            request.corner = corner;
        }
    }
    return request;
}

void encode_estimate_reply(WireWriter& w, const EstimateReply& reply)
{
    // The caller writes the leading status byte (symmetric with decode).
    w.f64(reply.estimate_fc);
    w.u64(reply.cycles);
    w.u8(static_cast<std::uint8_t>(reply.source));
    w.u64(reply.server_models);
    w.u64(reply.server_histograms_built);
    w.u64(reply.server_cache_hits);
}

EstimateReply decode_estimate_reply(WireReader& r)
{
    // The leading status byte was consumed by the caller.
    EstimateReply reply;
    reply.estimate_fc = r.f64();
    reply.cycles = r.u64();
    const std::uint8_t source = r.u8();
    if (source > static_cast<std::uint8_t>(HistogramSource::Coalesced)) {
        protocol_fault("unknown histogram source " + std::to_string(source));
    }
    reply.source = static_cast<HistogramSource>(source);
    reply.server_models = r.u64();
    reply.server_histograms_built = r.u64();
    reply.server_cache_hits = r.u64();
    return reply;
}

void encode_server_stats(WireWriter& w, const ServerStatsReply& stats)
{
    // The caller writes the leading status byte (symmetric with decode).
    w.u64(stats.connections_accepted);
    w.u64(stats.connections_shed);
    w.u64(stats.connections_idle_closed);
    w.u64(stats.requests);
    w.u64(stats.estimates);
    w.u64(stats.errors);
    w.u64(stats.models_served);
    w.u64(stats.histograms_built);
    w.u64(stats.histogram_cache_hits);
    w.u64(stats.histogram_coalesced);
    w.u64(stats.model_cache_hits);
    w.u64(stats.model_cache_misses);
    w.u64(stats.traces_registered);
    w.u64(stats.trace_bytes);
    w.f64(stats.serve_seconds);
}

ServerStatsReply decode_server_stats(WireReader& r)
{
    ServerStatsReply stats;
    stats.connections_accepted = r.u64();
    stats.connections_shed = r.u64();
    stats.connections_idle_closed = r.u64();
    stats.requests = r.u64();
    stats.estimates = r.u64();
    stats.errors = r.u64();
    stats.models_served = r.u64();
    stats.histograms_built = r.u64();
    stats.histogram_cache_hits = r.u64();
    stats.histogram_coalesced = r.u64();
    stats.model_cache_hits = r.u64();
    stats.model_cache_misses = r.u64();
    stats.traces_registered = r.u64();
    stats.trace_bytes = r.u64();
    stats.serve_seconds = r.f64();
    return stats;
}

std::vector<std::uint8_t> encode_error(std::uint8_t status, std::string_view message)
{
    WireWriter w;
    w.u8(status);
    w.str(message);
    return w.take();
}

} // namespace hdpm::serve

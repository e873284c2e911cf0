#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gatelib/techlib.hpp"
#include "util/fault.hpp"

namespace hdpm::serve {

/// hdpowerd wire protocol: length-prefixed binary frames over a stream
/// socket (TCP or Unix domain). Every frame is
///
///   uint32 length (little-endian, payload bytes) | payload
///
/// and every payload starts with a one-byte message type (requests) or
/// status code (responses). Integers are little-endian; doubles are IEEE
/// 754 bit patterns transported as uint64. Requests on one connection are
/// answered in order, so clients may pipeline arbitrarily many frames
/// before reading responses — the serving engine and the load harness both
/// rely on that to amortize syscalls.
///
/// The maximum frame length is a server option (kDefaultMaxFrame unless
/// overridden); an oversized prefix is a protocol error, which bounds the
/// memory a malicious or corrupted client can make the daemon allocate.

inline constexpr std::uint32_t kDefaultMaxFrame = 256U << 20;

/// Request message types.
enum class MessageType : std::uint8_t {
    Ping = 1,          ///< no body; response: empty Ok
    RegisterTrace = 2, ///< inline packed samples -> trace id
    OpenTraceFile = 3, ///< server-side path -> mmap'd trace id
    Estimate = 4,      ///< (module, widths, kind) x trace id -> estimate
    Stats = 5,         ///< server-wide counters snapshot
    CloseTrace = 6,    ///< drop a registered trace id
};

/// Response status codes. Ok is 0; serving-layer rejections have small
/// codes; structured runtime faults are transported as
/// kFaultBase + FaultKind so the client can rethrow the taxonomy kind.
enum class StatusCode : std::uint8_t {
    Ok = 0,
    Overloaded = 1,   ///< bounded queue full — shed, retry later
    BadRequest = 2,   ///< malformed frame or unknown message type
    UnknownTrace = 3, ///< trace id not registered (or already closed)
    UnknownModule = 4,///< module id/width outside the served families
    InternalError = 5,///< unexpected non-taxonomy exception
};

inline constexpr std::uint8_t kFaultBase = 32;

/// Wire code for a structured fault kind.
[[nodiscard]] constexpr std::uint8_t fault_status(util::FaultKind kind) noexcept
{
    return static_cast<std::uint8_t>(kFaultBase + static_cast<std::uint8_t>(kind));
}

/// Human-readable name of a wire status byte (including fault codes).
[[nodiscard]] std::string status_name(std::uint8_t status);

/// Which model family an Estimate request evaluates.
enum class ModelKind : std::uint8_t {
    Basic = 0,    ///< HdModel (characterize-on-miss via the model library)
    Enhanced = 1, ///< EnhancedHdModel with `zero_clusters` clusters
};

/// Body of an Estimate request. The corner block is trailing-optional on
/// the wire: a frame may simply end after the widths (the encoding every
/// pre-corner client emits), in which case the server evaluates at its
/// configured default corner. When present it is has_corner(u8=1) +
/// vdd(f64) + temp(f64) + load_class(u8).
struct EstimateRequest {
    std::uint64_t trace_id = 0;
    std::uint8_t module_type = 0; ///< dp::ModuleType underlying value
    std::vector<int> widths;
    ModelKind kind = ModelKind::Basic;
    int zero_clusters = 0;
    std::optional<gate::Corner> corner; ///< operating corner (absent = default)
};

/// Body of an Ok Estimate response: the estimate plus a slice of the
/// serving-side EstimateRunStats, so every reply documents whether its
/// histogram was freshly built, coalesced onto a concurrent build of the
/// same trace, or served from the shared cache.
enum class HistogramSource : std::uint8_t {
    Cached = 0,    ///< shared-cache hit
    Built = 1,     ///< this request built the histogram
    Coalesced = 2, ///< waited on a concurrent request's build
};

struct EstimateReply {
    double estimate_fc = 0.0;      ///< average charge per cycle [fC]
    std::uint64_t cycles = 0;      ///< transitions evaluated
    HistogramSource source = HistogramSource::Cached;
    /// Cumulative server counters at reply time (monotonic, steady-clock
    /// timed on the server): (model, trace) evaluations served, histogram
    /// classification passes actually run, and shared-cache hits. Under
    /// batched same-trace load histograms_built stays far below models.
    std::uint64_t server_models = 0;
    std::uint64_t server_histograms_built = 0;
    std::uint64_t server_cache_hits = 0;
};

/// Body of a Stats response (all counters cumulative since server start).
struct ServerStatsReply {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_shed = 0;
    std::uint64_t connections_idle_closed = 0;
    std::uint64_t requests = 0;
    std::uint64_t estimates = 0;
    std::uint64_t errors = 0;
    std::uint64_t models_served = 0;
    std::uint64_t histograms_built = 0;
    std::uint64_t histogram_cache_hits = 0;
    std::uint64_t histogram_coalesced = 0;
    std::uint64_t model_cache_hits = 0;
    std::uint64_t model_cache_misses = 0;
    std::uint64_t traces_registered = 0;
    std::uint64_t trace_bytes = 0;
    double serve_seconds = 0.0; ///< steady-clock time inside estimate calls
};

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/// Append-only little-endian payload builder.
class WireWriter {
public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v);
    void str(std::string_view s); ///< u32 length + raw bytes
    void words(std::span<const std::uint64_t> w); ///< raw, no length prefix

    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept
    {
        return bytes_;
    }
    [[nodiscard]] std::vector<std::uint8_t> take() noexcept
    {
        return std::move(bytes_);
    }

private:
    std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian payload reader. Any out-of-bounds read
/// throws util::FaultError{ProtocolError} — a truncated or garbled frame
/// can never read past its buffer or be silently misparsed.
class WireReader {
public:
    explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    [[nodiscard]] double f64();
    [[nodiscard]] std::string str();
    /// The next @p count uint64 words, copied out of the payload.
    [[nodiscard]] std::vector<std::uint64_t> words(std::size_t count);

    [[nodiscard]] std::size_t remaining() const noexcept
    {
        return bytes_.size() - offset_;
    }
    /// Throws ProtocolError unless the whole payload was consumed.
    void expect_end() const;

private:
    void need(std::size_t n) const;

    std::span<const std::uint8_t> bytes_;
    std::size_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// Frame I/O on blocking sockets
// ---------------------------------------------------------------------------

/// Read one length-prefixed frame from @p fd. Returns nullopt on clean EOF
/// at a frame boundary; throws FaultError{ProtocolError} for a torn frame
/// or an oversized length, FaultError{IoError} for socket errors.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_frame(
    int fd, std::uint32_t max_frame = kDefaultMaxFrame);

/// Write one frame (length prefix + payload) to @p fd, handling partial
/// writes. Throws FaultError{IoError} on failure.
void write_frame(int fd, std::span<const std::uint8_t> payload);

/// Append a length-prefixed frame to a user-space output buffer (the
/// batched-write path: many responses, one send).
void append_frame(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> payload);

/// Send the whole buffer (MSG_NOSIGNAL, partial-write safe) and clear it.
void send_all(int fd, std::vector<std::uint8_t>& buffer);

// ---------------------------------------------------------------------------
// Message encoding helpers shared by server and client
// ---------------------------------------------------------------------------

void encode_estimate_request(WireWriter& w, const EstimateRequest& request);
[[nodiscard]] EstimateRequest decode_estimate_request(WireReader& r);

void encode_estimate_reply(WireWriter& w, const EstimateReply& reply);
[[nodiscard]] EstimateReply decode_estimate_reply(WireReader& r);

void encode_server_stats(WireWriter& w, const ServerStatsReply& stats);
[[nodiscard]] ServerStatsReply decode_server_stats(WireReader& r);

/// An error response: status byte + diagnostic string.
[[nodiscard]] std::vector<std::uint8_t> encode_error(std::uint8_t status,
                                                     std::string_view message);

} // namespace hdpm::serve

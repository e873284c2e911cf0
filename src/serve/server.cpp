#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "dpgen/module.hpp"
#include "util/error.hpp"

namespace hdpm::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void io_fail(const std::string& what)
{
    util::FaultContext context;
    context.component = "serve::Server";
    context.detail = what + ": " + std::strerror(errno);
    throw util::FaultError{util::FaultKind::IoError, std::move(context)};
}

void close_quietly(int fd) noexcept
{
    if (fd >= 0) {
        ::close(fd);
    }
}

/// Flush threshold for the batched response buffer: large enough to
/// amortize send syscalls under deep pipelining, small enough to bound the
/// per-connection memory a slow reader can pin.
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

/// How a reply reports the histogram cache's outcome on the wire.
HistogramSource wire_source(util::CacheOutcome outcome) noexcept
{
    switch (outcome) {
    case util::CacheOutcome::Built:
        return HistogramSource::Built;
    case util::CacheOutcome::Coalesced:
        return HistogramSource::Coalesced;
    case util::CacheOutcome::Hit:
        break;
    }
    return HistogramSource::Cached;
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), library_(options_.models_dir),
      models_(library_, options_.char_options, options_.model_cache_entries),
      histograms_(options_.histogram_cache_entries, options_.histogram_cache_bytes)
{
}

Server::~Server()
{
    if (running_.load()) {
        stop();
    }
}

void Server::start()
{
    HDPM_REQUIRE(!running_.load(), "server already started");
    HDPM_REQUIRE(!options_.unix_path.empty() || options_.tcp,
                 "no listen endpoint configured (unix_path or tcp)");

    if (!options_.unix_path.empty()) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            io_fail("socket(AF_UNIX)");
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        HDPM_REQUIRE(options_.unix_path.size() < sizeof(addr.sun_path),
                     "unix socket path too long: ", options_.unix_path);
        std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(options_.unix_path.c_str()); // stale socket from a killed run
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
            ::listen(fd, SOMAXCONN) != 0) {
            close_quietly(fd);
            io_fail("bind/listen " + options_.unix_path);
        }
        listeners_.push_back({fd, "unix:" + options_.unix_path});
    }

    if (options_.tcp) {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            io_fail("socket(AF_INET)");
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(options_.tcp_port);
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
            ::listen(fd, SOMAXCONN) != 0) {
            close_quietly(fd);
            io_fail("bind/listen 127.0.0.1:" + std::to_string(options_.tcp_port));
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
            close_quietly(fd);
            io_fail("getsockname");
        }
        bound_tcp_port_ = ntohs(bound.sin_port);
        listeners_.push_back({fd, "tcp:127.0.0.1:" + std::to_string(bound_tcp_port_)});
    }

    if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) {
        close_listeners();
        io_fail("pipe2");
    }

    const unsigned workers = options_.workers != 0
                                 ? options_.workers
                                 : std::max(1U, std::thread::hardware_concurrency());
    running_.store(true);
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    {
        // Accept only once every worker waits for a connection: an acceptor
        // that ran first would find no idle worker and shed the first
        // connections of a server with no accept queue.
        std::unique_lock<std::mutex> lock{queue_mutex_};
        idle_cv_.wait(lock, [&] { return idle_workers_ == workers; });
    }
    acceptor_ = std::thread([this] { acceptor_loop(); });
}

void Server::close_listeners()
{
    for (Listener& listener : listeners_) {
        close_quietly(listener.fd);
        listener.fd = -1;
        // Remove the filesystem entry so a restart can re-bind and so a
        // client connecting after shutdown gets ECONNREFUSED/ENOENT
        // instead of a hang on a dead socket.
        if (listener.description.starts_with("unix:")) {
            ::unlink(listener.description.c_str() + 5);
        }
    }
}

void Server::acceptor_loop()
{
    std::vector<pollfd> fds;
    fds.reserve(listeners_.size() + 1);
    for (const Listener& listener : listeners_) {
        fds.push_back({listener.fd, POLLIN, 0});
    }
    fds.push_back({wake_pipe_[0], POLLIN, 0});

    while (true) {
        const int ready = ::poll(fds.data(), fds.size(), -1);
        if (ready < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if ((fds.back().revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            break; // drain/stop woke us
        }
        for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
            if ((fds[i].revents & POLLIN) == 0) {
                continue;
            }
            const int conn = ::accept4(fds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (conn < 0) {
                continue; // transient (ECONNABORTED, EMFILE, ...); keep serving
            }
            counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
            bool shed = false;
            {
                // Overload test: shed unless a worker is free to take the
                // connection now or the bounded waiting queue has room.
                // accept_queue == 0 therefore means "never queue": with
                // every worker busy the connection is refused immediately.
                const std::lock_guard<std::mutex> lock{queue_mutex_};
                if (closed_ || (idle_workers_ == 0 &&
                                pending_.size() >= options_.accept_queue)) {
                    shed = true;
                } else {
                    pending_.push_back(conn);
                }
            }
            if (shed) {
                shed_connection(conn);
            } else {
                queue_cv_.notify_one();
            }
        }
    }
}

void Server::shed_connection(int fd)
{
    counters_.connections_shed.fetch_add(1, std::memory_order_relaxed);
    try {
        write_frame(fd, encode_error(static_cast<std::uint8_t>(StatusCode::Overloaded),
                                     "server overloaded: bounded accept queue is "
                                     "full, back off and retry"));
    } catch (...) {
        // The client vanished mid-shed; the close below is all that's left.
    }
    close_quietly(fd);
}

void Server::worker_loop()
{
    while (true) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock{queue_mutex_};
            ++idle_workers_;
            idle_cv_.notify_all();
            queue_cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
            --idle_workers_;
            if (pending_.empty() || (closed_ && abandon_queue_)) {
                return; // closed_ && empty, or stop() abandoning the queue
            }
            fd = pending_.front();
            pending_.pop_front();
        }
        {
            const std::lock_guard<std::mutex> lock{active_mutex_};
            active_fds_.insert(fd);
            if (force_cut_.load()) {
                ::shutdown(fd, SHUT_RDWR); // drain deadline already passed
            } else if (draining_.load()) {
                ::shutdown(fd, SHUT_RD); // joined after the drain cut — unblock
            }
        }
        try {
            serve_connection(fd);
        } catch (...) {
            // Torn frame or socket error: the error response (if any) was
            // already queued by handle_request; nothing else to salvage.
        }
        {
            const std::lock_guard<std::mutex> lock{active_mutex_};
            active_fds_.erase(fd);
        }
        close_quietly(fd);
    }
}

void Server::serve_connection(int fd)
{
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t parsed = 0; // bytes of `in` already consumed
    std::array<std::uint8_t, 64 * 1024> chunk;
    Clock::time_point last_frame = Clock::now();

    while (true) {
        if (options_.idle_timeout_ms > 0) {
            // Idle deadline, measured since the last complete frame: a
            // slow-loris peer dripping single bytes keeps recv() lively but
            // never completes a request, so waiting for mere readability
            // would pin this worker forever. Wait only for the remaining
            // idle budget, then give the connection back.
            const auto idle_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                     Clock::now() - last_frame)
                                     .count();
            const long long remaining =
                static_cast<long long>(options_.idle_timeout_ms) - idle_ms;
            if (remaining <= 0) {
                counters_.connections_idle_closed.fetch_add(1,
                                                            std::memory_order_relaxed);
                break;
            }
            pollfd pfd{fd, POLLIN, 0};
            const int ready = ::poll(
                &pfd, 1, static_cast<int>(std::min<long long>(remaining, 1 << 30)));
            if (ready < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;
            }
            if (ready == 0) {
                counters_.connections_idle_closed.fetch_add(1,
                                                            std::memory_order_relaxed);
                break;
            }
        }
        const ssize_t got = ::recv(fd, chunk.data(), chunk.size(), 0);
        if (got < 0) {
            if (errno == EINTR) {
                continue;
            }
            break; // reset/timeout: nothing further to answer
        }
        if (got == 0) {
            // Clean EOF (client done, or our drain cut the read side).
            // A partial frame left in the buffer is simply abandoned —
            // there is no complete request inside it to answer.
            break;
        }
        in.insert(in.end(), chunk.data(), chunk.data() + got);

        // Handle every complete frame buffered so far, batching the
        // responses into one write. Responses stay in request order, which
        // is what lets clients pipeline blindly.
        bool close_after_flush = false;
        while (in.size() - parsed >= 4) {
            // Little-endian prefix, decoded byte-by-byte exactly like
            // read_frame — correct regardless of host byte order.
            std::uint32_t length = 0;
            for (int b = 3; b >= 0; --b) {
                length = (length << 8) | in[parsed + static_cast<std::size_t>(b)];
            }
            if (length > options_.max_frame) {
                append_frame(out, encode_error(
                                      static_cast<std::uint8_t>(StatusCode::BadRequest),
                                      "frame length " + std::to_string(length) +
                                          " exceeds the server's max_frame"));
                close_after_flush = true; // byte stream is unrecoverable
                break;
            }
            if (in.size() - parsed - 4 < length) {
                break; // frame not complete yet
            }
            counters_.requests.fetch_add(1, std::memory_order_relaxed);
            const std::span<const std::uint8_t> payload{in.data() + parsed + 4, length};
            append_frame(out, handle_request(payload));
            parsed += 4 + std::size_t{length};
            last_frame = Clock::now();
            if (out.size() >= kFlushBytes) {
                send_all(fd, out);
            }
        }
        if (parsed == in.size()) {
            in.clear();
            parsed = 0;
        } else if (parsed > chunk.size()) {
            in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(parsed));
            parsed = 0;
        }
        if (!out.empty()) {
            send_all(fd, out);
        }
        if (close_after_flush) {
            break;
        }
    }
    if (!out.empty()) {
        try {
            send_all(fd, out);
        } catch (...) {
            // Peer is gone; responses are undeliverable.
        }
    }
}

std::vector<std::uint8_t> Server::handle_request(std::span<const std::uint8_t> payload)
{
    try {
        WireReader reader{payload};
        const auto type = static_cast<MessageType>(reader.u8());
        switch (type) {
        case MessageType::Ping: {
            reader.expect_end();
            WireWriter writer;
            writer.u8(static_cast<std::uint8_t>(StatusCode::Ok));
            return writer.take();
        }
        case MessageType::RegisterTrace: {
            const std::uint32_t operands = reader.u32();
            // Each width occupies 4 payload bytes; bound the count against
            // the bytes actually present before reserving, so a tiny hostile
            // frame can't force a multi-gigabyte transient allocation.
            HDPM_REQUIRE(operands <= reader.remaining() / 4,
                         "operand count ", operands,
                         " exceeds the widths present in the payload");
            std::vector<int> widths;
            widths.reserve(operands);
            for (std::uint32_t i = 0; i < operands; ++i) {
                widths.push_back(reader.i32());
            }
            const std::uint64_t samples = reader.u64();
            const std::size_t word_count = reader.remaining() / 8;
            std::vector<std::uint64_t> words = reader.words(word_count);
            reader.expect_end();
            const std::uint64_t id = traces_.register_trace(
                streams::PackedTrace::from_packed_words(std::move(words), widths,
                                                        samples));
            WireWriter writer;
            writer.u8(static_cast<std::uint8_t>(StatusCode::Ok));
            writer.u64(id);
            return writer.take();
        }
        case MessageType::OpenTraceFile: {
            const std::string path = reader.str();
            reader.expect_end();
            const std::uint64_t id = traces_.open_file(path);
            WireWriter writer;
            writer.u8(static_cast<std::uint8_t>(StatusCode::Ok));
            writer.u64(id);
            return writer.take();
        }
        case MessageType::Estimate:
            return handle_estimate(reader);
        case MessageType::Stats: {
            reader.expect_end();
            WireWriter writer;
            writer.u8(static_cast<std::uint8_t>(StatusCode::Ok));
            encode_server_stats(writer, stats_snapshot());
            return writer.take();
        }
        case MessageType::CloseTrace: {
            const std::uint64_t id = reader.u64();
            reader.expect_end();
            histograms_.invalidate(id);
            const bool found = traces_.close(id);
            WireWriter writer;
            writer.u8(static_cast<std::uint8_t>(StatusCode::Ok));
            writer.u8(found ? 1 : 0);
            return writer.take();
        }
        }
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return encode_error(static_cast<std::uint8_t>(StatusCode::BadRequest),
                            "unknown message type " +
                                std::to_string(static_cast<unsigned>(type)));
    } catch (const util::FaultError& fault) {
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return encode_error(fault_status(fault.kind()), fault.what());
    } catch (const util::PreconditionError& error) {
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return encode_error(static_cast<std::uint8_t>(StatusCode::BadRequest),
                            error.what());
    } catch (const std::exception& error) {
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return encode_error(static_cast<std::uint8_t>(StatusCode::InternalError),
                            error.what());
    }
}

std::vector<std::uint8_t> Server::handle_estimate(WireReader& reader)
{
    const EstimateRequest request = decode_estimate_request(reader);
    reader.expect_end();

    const std::shared_ptr<const streams::PackedTrace> trace =
        traces_.get(request.trace_id);
    if (trace == nullptr) {
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return encode_error(static_cast<std::uint8_t>(StatusCode::UnknownTrace),
                            "trace id " + std::to_string(request.trace_id) +
                                " is not registered (or already closed)");
    }
    if (request.module_type >= dp::all_module_types().size()) {
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return encode_error(static_cast<std::uint8_t>(StatusCode::UnknownModule),
                            "module type " + std::to_string(request.module_type) +
                                " is outside the served families");
    }
    const auto type = static_cast<dp::ModuleType>(request.module_type);

    std::vector<int> widths;
    try {
        widths = dp::expand_operand_widths(type, request.widths);
    } catch (const util::PreconditionError& error) {
        counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return encode_error(static_cast<std::uint8_t>(StatusCode::UnknownModule),
                            error.what());
    }

    // A wire corner is untrusted input: the library's corner check refuses
    // it (BadRequest) before the scaling physics, and like a CLI spec it
    // names its supply, so the API's zero (native) spelling is refused too.
    if (request.corner.has_value()) {
        HDPM_REQUIRE(request.corner->vdd_v != 0.0, "corner supply out of range: 0 V");
        (void)library_.technology().corner_supply(*request.corner);
    }

    const Clock::time_point start = Clock::now();
    const std::shared_ptr<const ServedModel> model =
        models_.get(type, widths, request.kind == ModelKind::Enhanced,
                    request.zero_clusters, request.corner);

    EstimateReply reply;
    util::CacheOutcome outcome = util::CacheOutcome::Hit;
    if (request.kind == ModelKind::Enhanced) {
        const auto histogram = histograms_.hd_class(*trace, options_.kernel, &outcome);
        reply.estimate_fc =
            std::get<core::EnhancedHdModel>(*model).estimate_from_histogram(*histogram);
        reply.cycles = histogram->pairs;
    } else {
        const auto histogram = histograms_.hd(*trace, options_.kernel, &outcome);
        reply.estimate_fc =
            std::get<core::HdModel>(*model).estimate_from_histogram(*histogram);
        reply.cycles = histogram->pairs;
    }
    reply.source = wire_source(outcome);

    counters_.estimates.fetch_add(1, std::memory_order_relaxed);
    counters_.serve_nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                .count()),
        std::memory_order_relaxed);

    reply.server_models = counters_.estimates.load(std::memory_order_relaxed);
    reply.server_histograms_built = histograms_.built();
    reply.server_cache_hits = histograms_.hits();

    WireWriter writer;
    writer.u8(static_cast<std::uint8_t>(StatusCode::Ok));
    encode_estimate_reply(writer, reply);
    return writer.take();
}

ServerStatsReply Server::stats_snapshot() const
{
    ServerStatsReply stats;
    stats.connections_accepted = counters_.connections_accepted.load();
    stats.connections_shed = counters_.connections_shed.load();
    stats.connections_idle_closed = counters_.connections_idle_closed.load();
    stats.requests = counters_.requests.load();
    stats.estimates = counters_.estimates.load();
    stats.errors = counters_.errors.load();
    stats.models_served = counters_.estimates.load();
    stats.histograms_built = histograms_.built();
    stats.histogram_cache_hits = histograms_.hits();
    stats.histogram_coalesced = histograms_.coalesced();
    stats.model_cache_hits = models_.hits();
    stats.model_cache_misses = models_.misses();
    stats.traces_registered = traces_.registered();
    stats.trace_bytes = traces_.bytes();
    stats.serve_seconds =
        static_cast<double>(counters_.serve_nanos.load()) * 1e-9;
    return stats;
}

void Server::drain()
{
    if (!running_.exchange(false)) {
        return;
    }
    // 1. Stop the intake: no new connections, acceptor exits.
    {
        const std::lock_guard<std::mutex> lock{queue_mutex_};
        closed_ = true;
    }
    [[maybe_unused]] const ssize_t wrote = ::write(wake_pipe_[1], "x", 1);
    acceptor_.join();
    close_listeners();

    // 2. Cut the read side of every connection being served (and of every
    //    queued one a worker picks up from here on — see worker_loop).
    //    Blocked recv() calls return EOF; workers answer the requests they
    //    have already buffered, flush, and close. Clients see ordered
    //    responses followed by EOF — never a hang, never a silent drop.
    {
        const std::lock_guard<std::mutex> lock{active_mutex_};
        draining_.store(true);
        for (const int fd : active_fds_) {
            ::shutdown(fd, SHUT_RD);
        }
    }
    {
        const std::lock_guard<std::mutex> lock{queue_mutex_};
        for (const int fd : pending_) {
            ::shutdown(fd, SHUT_RD);
        }
    }
    queue_cv_.notify_all();

    // 3. Deadline: SHUT_RD does not wake a worker blocked in send() to a
    //    peer that stopped reading, so a single slow/dead client could
    //    otherwise stall the drain forever. Give in-flight connections
    //    drain_timeout_ms to finish, then cut their write sides too —
    //    blocked sends fail with EPIPE and the workers exit.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
    while (Clock::now() < deadline) {
        bool idle = false;
        {
            const std::scoped_lock lock{queue_mutex_, active_mutex_};
            idle = pending_.empty() && active_fds_.empty();
        }
        if (idle) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
    }
    force_cut_.store(true); // workers fully cut any fd picked up from here on
    {
        const std::scoped_lock lock{queue_mutex_, active_mutex_};
        for (const int fd : active_fds_) {
            ::shutdown(fd, SHUT_RDWR);
        }
        for (const int fd : pending_) {
            ::shutdown(fd, SHUT_RDWR);
        }
    }
    join_all();
}

void Server::stop()
{
    if (!running_.exchange(false)) {
        return;
    }
    {
        const std::lock_guard<std::mutex> lock{queue_mutex_};
        closed_ = true;
        abandon_queue_ = true;
    }
    [[maybe_unused]] const ssize_t wrote = ::write(wake_pipe_[1], "x", 1);
    acceptor_.join();
    close_listeners();
    {
        const std::lock_guard<std::mutex> lock{active_mutex_};
        draining_.store(true);
        for (const int fd : active_fds_) {
            ::shutdown(fd, SHUT_RDWR);
        }
    }
    queue_cv_.notify_all();
    join_all();
    // Connections still queued were never served; close them unserved.
    for (const int fd : pending_) {
        close_quietly(fd);
    }
    pending_.clear();
}

void Server::join_all()
{
    for (std::thread& worker : workers_) {
        worker.join();
    }
    workers_.clear();
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
}

} // namespace hdpm::serve

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/histogram_cache.hpp"
#include "core/model_library.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/trace_store.hpp"

namespace hdpm::serve {

/// Configuration of an hdpowerd serving process.
struct ServerOptions {
    /// Unix-domain socket path; empty = don't listen on a Unix socket.
    std::string unix_path;
    /// Listen on 127.0.0.1 TCP when true; tcp_port 0 = ephemeral (read the
    /// bound port back with Server::tcp_port()).
    bool tcp = false;
    std::uint16_t tcp_port = 0;

    /// Serving worker threads; 0 = one per hardware thread.
    unsigned workers = 0;

    /// Accepted connections waiting for a free worker beyond the workers
    /// already serving. A connection arriving with the queue full is shed:
    /// it receives a structured Overloaded response and is closed — the
    /// daemon never queues unboundedly and never drops silently.
    std::size_t accept_queue = 64;

    /// Kernel configuration of histogram builds. Defaults to a
    /// single-threaded kernel: parallelism comes from the worker pool, so
    /// the kernels should not oversubscribe the host.
    streams::KernelOptions kernel{.threads = 1};

    /// Shared histogram cache bounds (histograms, not traces).
    std::size_t histogram_cache_entries = 64;
    std::size_t histogram_cache_bytes = std::size_t{256} << 20;

    /// Deserialized models kept hot by the model cache.
    std::size_t model_cache_entries = 512;

    /// Directory of the backing core::ModelLibrary.
    std::string models_dir = "hdpowerd_models";

    /// Characterization options applied on model-cache misses.
    core::CharacterizationOptions char_options;

    /// Largest accepted request frame.
    std::uint32_t max_frame = kDefaultMaxFrame;

    /// Idle-connection deadline, measured since the last *complete* frame
    /// (not the last byte, so a slow-loris drip of one byte per second
    /// cannot hold a worker forever). A connection that goes this long
    /// without completing a request is closed and counted in
    /// connections_idle_closed. 0 disables the deadline.
    std::size_t idle_timeout_ms = 0;

    /// drain() grace period. shutdown(SHUT_RD) unblocks workers stuck in
    /// recv(), but a worker blocked in send() to a peer that stopped
    /// reading is not woken by a read-side cut; after this deadline drain()
    /// cuts the write sides too (SHUT_RDWR) so blocked sends fail and the
    /// drain is guaranteed to complete instead of hanging on one dead
    /// client.
    std::size_t drain_timeout_ms = 5000;
};

/// Live counters of a running server (all monotonic; timing on
/// std::chrono::steady_clock so wall-clock adjustments can never corrupt
/// latency accounting).
struct ServerCounters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_shed{0};
    std::atomic<std::uint64_t> connections_idle_closed{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> estimates{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> serve_nanos{0}; ///< steady-clock ns in estimates
};

/// The hdpowerd serving core: a listening acceptor thread, a bounded
/// connection queue, and a pool of worker threads sharing the TraceStore,
/// the ModelCache and the core::HistogramCache (request coalescing).
/// Estimates are bit-identical to calling core::EstimationEngine directly:
/// the same kernels produce the same integer histograms and the same
/// estimate_from_histogram reduction.
///
/// Lifecycle: construct -> start() -> [serve] -> drain() or stop().
/// drain() stops accepting, lets every queued and in-progress request
/// finish, flushes responses, closes connections, and joins the threads —
/// the clean-SIGTERM path. stop() additionally abandons queued
/// connections (they are closed unserved) — the fast path for tests.
class Server {
public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen, and spawn the acceptor and workers. Throws
    /// FaultError{IoError} if no listen endpoint could be bound.
    void start();

    /// Stop accepting, serve out queued + in-flight requests, join.
    void drain();

    /// Stop accepting, close queued connections unserved, join.
    void stop();

    [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

    /// The TCP port actually bound (after start(); 0 when TCP is off).
    [[nodiscard]] std::uint16_t tcp_port() const noexcept { return bound_tcp_port_; }

    [[nodiscard]] TraceStore& traces() noexcept { return traces_; }
    /// The shared histogram cache that coalesces same-trace builds.
    [[nodiscard]] core::HistogramCache& broker() noexcept { return histograms_; }
    [[nodiscard]] ModelCache& models() noexcept { return models_; }
    [[nodiscard]] const ServerCounters& counters() const noexcept { return counters_; }

    /// Snapshot of every counter in wire form.
    [[nodiscard]] ServerStatsReply stats_snapshot() const;

private:
    struct Listener {
        int fd = -1;
        std::string description;
    };

    void acceptor_loop();
    void worker_loop();
    void serve_connection(int fd);
    /// Handle one decoded request; returns the response payload.
    std::vector<std::uint8_t> handle_request(std::span<const std::uint8_t> payload);
    std::vector<std::uint8_t> handle_estimate(WireReader& reader);
    void shed_connection(int fd);
    void close_listeners();
    void join_all();

    ServerOptions options_;
    core::ModelLibrary library_;
    ModelCache models_;
    TraceStore traces_;
    core::HistogramCache histograms_;
    ServerCounters counters_;

    std::vector<Listener> listeners_;
    std::uint16_t bound_tcp_port_ = 0;
    int wake_pipe_[2] = {-1, -1}; ///< self-pipe to interrupt the acceptor

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::condition_variable idle_cv_; ///< signalled when a worker goes idle
    std::deque<int> pending_;       ///< accepted fds awaiting a worker
    std::size_t idle_workers_ = 0;  ///< workers blocked waiting for an fd
    bool closed_ = false;           ///< no more pushes; workers drain then exit
    bool abandon_queue_ = false;

    std::mutex active_mutex_;
    std::unordered_set<int> active_fds_; ///< connections being served

    std::thread acceptor_;
    std::vector<std::thread> workers_;
    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> force_cut_{false}; ///< drain deadline passed: SHUT_RDWR
};

} // namespace hdpm::serve

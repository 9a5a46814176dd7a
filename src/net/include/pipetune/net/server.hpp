#pragma once
// TuningServer: the network face of core::TuningService (DESIGN.md §11).
// Two threads. One epoll IO thread owns every socket; submits cross to a
// dispatch thread that calls TuningService::submit (submit can block on a
// full kBlock queue or a journal fsync, and the event loop must not). Nothing
// polls for completion: each submit carries a SubmitOptions::on_settled
// hook, and whichever thread settles the job (a scheduler worker, or a
// cancel/discard caller) serializes the reply there and hands the bytes
// back to the IO thread through an outbound queue + eventfd wakeup, so
// connection state is single-threaded by construction.
//
//   epoll IO thread ── frames ──> dispatch thread ── submit() ──> service
//        ^                                                          │
//        └──── outbound queue + eventfd <── reply built on settle ──┘
//
// One in-flight count covers each submit from the moment the IO thread
// hands it to dispatch until its last reply is queued; a stopping server
// exits once that count is zero and the outbound queue is empty. The IO
// thread blocks in epoll_wait with no timeout — every state change it must
// see (bytes to send, a stop request, the count reaching zero) arrives as
// an eventfd poke.
//
// Overload never queues unboundedly: tenant quotas reject first (429),
// then the scheduler queue's own backpressure rejects (configure the
// service with reject_when_full = true; a kBlock service merely throttles
// the dispatch thread instead). Draining (SIGTERM or the `drain` method)
// answers new submits with 503 while in-flight work finishes; in FAST mode
// still-queued jobs are discarded WITHOUT a terminal journal record, so
// `pipetune resume` completes exactly the remainder a SIGTERM cut off.
//
// The same port speaks just enough HTTP for observability: a connection
// whose first bytes are "GET " is answered once (200 text/plain for
// /metrics with the obs Prometheus export, 404 otherwise) and closed.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipetune/core/tuning_service.hpp"
#include "pipetune/net/auth.hpp"
#include "pipetune/net/framing.hpp"
#include "pipetune/net/protocol.hpp"
#include "pipetune/obs/obs_context.hpp"
#include "pipetune/util/result.hpp"

namespace pipetune::net {

struct ServerConfig {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    std::size_t max_connections = 256;
    /// The service behind the socket. Required; not owned. Configure it with
    /// reject_when_full = true so queue overload surfaces as a 429 instead
    /// of parking the dispatch thread.
    core::TuningService* service = nullptr;
    /// Auth + quotas. Not owned; null = open mode (anonymous, no quota).
    TenantRegistry* tenants = nullptr;
    /// Connection/request/reject counters + latency histograms, and the
    /// /metrics HTTP body. Not owned; may be null.
    obs::ObsContext* obs = nullptr;
    /// Job knobs applied when a submit request omits them.
    hpt::HptJobConfig default_job{};
};

/// How a stop request treats jobs still waiting in the queue.
enum class DrainMode {
    kFull,  ///< run everything already admitted, then stop (`drain` method)
    kFast,  ///< discard queued jobs (journal keeps them pending), finish
            ///< running ones, then stop — the SIGTERM path
};

class TuningServer {
public:
    explicit TuningServer(ServerConfig config);
    /// Stops (kFast) and joins if still running.
    ~TuningServer();
    TuningServer(const TuningServer&) = delete;
    TuningServer& operator=(const TuningServer&) = delete;

    /// Bind + listen + spawn the IO and dispatch threads. Fails (instead of
    /// throwing) on socket errors — an occupied port is an operator mistake,
    /// not a bug.
    util::Result<void> start();

    /// Request a graceful stop. Async-signal-safe (an atomic store plus one
    /// write() to the wakeup eventfd), so a SIGTERM handler may call it
    /// directly on the live server instance.
    void request_stop(DrainMode mode = DrainMode::kFast);

    /// Block until the server has fully stopped (all threads joined). The
    /// service itself is NOT shut down — it belongs to the caller.
    void wait();

    /// request_stop + wait.
    void stop(DrainMode mode = DrainMode::kFast);

    bool running() const { return running_.load(std::memory_order_acquire); }
    /// Actual bound port (after start()).
    std::uint16_t port() const { return bound_port_; }

    /// Lifetime counters for the stats method / tests.
    struct Counters {
        std::uint64_t connections = 0;
        std::uint64_t requests = 0;
        std::uint64_t bad_frames = 0;
        std::uint64_t oversized_frames = 0;
        std::uint64_t auth_failures = 0;
        std::uint64_t rejects = 0;  ///< 429s (quota or queue) + 503s while draining
        std::uint64_t http_requests = 0;
        std::uint64_t jobs_submitted = 0;
        std::uint64_t jobs_completed = 0;
    };
    Counters counters() const;

private:
    struct Connection {
        int fd = -1;
        std::uint64_t id = 0;
        FrameReader reader{kDefaultMaxFrameBytes};
        std::string sniff;    ///< first bytes until protocol is decided
        bool decided = false; ///< sniffed: HTTP or JSONL
        bool http = false;
        std::string http_buf;
        std::string outbox;
        std::size_t out_off = 0;
        bool close_after_flush = false;
        bool epollout = false;  ///< EPOLLOUT currently armed
        /// Closed but not yet erased — close_connection() marks, the IO loop
        /// sweeps after the event batch, so handlers holding a reference never
        /// see it dangle mid-batch.
        bool dead = false;
    };

    struct Outbound {
        std::uint64_t conn_id = 0;
        std::string bytes;
    };

    /// One admitted submit awaiting its reply. Two parties arrive: the
    /// dispatch thread once submit() has returned the future, and the
    /// service's on_settled once the job is terminal. Whichever arrives
    /// second calls settle().
    struct PendingJob {
        std::uint64_t conn_id = 0;
        std::uint64_t request_id = 0;
        std::string tenant;
        bool reply = true;  ///< false: acked as queued, nothing sent on settle
        std::chrono::steady_clock::time_point received_at;
        std::uint64_t job_id = 0;                     ///< written by dispatch
        std::future<core::PipeTuneJobResult> result;  ///< written by dispatch
        std::atomic<int> arrivals{0};
    };

    struct SubmitTask {
        std::shared_ptr<PendingJob> pending;
        std::string workload;
        core::SubmitOptions options;
        hpt::HptJobConfig job;
    };

    // --- IO thread ---
    void io_loop();
    void accept_ready();
    void handle_readable(Connection& conn);
    void handle_writable(Connection& conn);
    void process_frames(Connection& conn);
    void process_http(Connection& conn);
    void dispatch_frame(Connection& conn, const std::string& frame);
    void send_frame(Connection& conn, const std::string& payload, bool close_after = false);
    void flush(Connection& conn);
    void close_connection(Connection& conn);
    void drain_outbound();
    void update_epoll(Connection& conn);
    void sweep_dead();            ///< erase connections closed during the batch
    void begin_stop();            ///< runs on the IO thread when stop is seen
    bool work_done();             ///< no submit in flight, no bytes queued
    void final_flush(Connection& conn);  ///< bounded blocking flush at shutdown

    // --- dispatch thread ---
    void dispatch_loop();
    void run_submit(SubmitTask task);

    // --- whichever thread settles the job ---
    void arrive(PendingJob& pending);
    void settle(PendingJob& pending);

    // cross-thread: queue bytes for a connection (if any) and wake the IO
    // thread; `last` retires the submit from the in-flight count.
    void post_outbound(std::uint64_t conn_id, std::string bytes, bool last);
    void wake_io();

    bool draining() const { return draining_.load(std::memory_order_acquire); }

    ServerConfig config_;
    std::uint16_t bound_port_ = 0;
    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int wake_fd_ = -1;

    std::thread io_thread_;
    std::thread dispatch_thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_requested_{false};
    std::atomic<int> stop_mode_{0};  ///< DrainMode of the first stop request
    std::atomic<bool> draining_{false};

    // IO-thread-owned connection state.
    std::map<int, Connection> connections_;           ///< by fd
    std::map<std::uint64_t, int> conn_fd_by_id_;
    std::vector<int> dead_fds_;                       ///< swept after each batch
    std::uint64_t next_conn_id_ = 1;

    std::mutex outbound_mutex_;
    std::deque<Outbound> outbound_;
    /// Submits between the IO thread's hand-off to dispatch and their last
    /// queued reply. Incremented by the IO thread; decremented only under
    /// outbound_mutex_, which work_done() also holds, so a retiring thread
    /// is done with the server once it unlocks.
    std::atomic<std::size_t> in_flight_{0};

    std::mutex dispatch_mutex_;
    std::condition_variable dispatch_cv_;
    std::deque<SubmitTask> dispatch_queue_;
    bool dispatch_stop_ = false;

    mutable std::mutex counters_mutex_;
    Counters counters_;

    // Cached instrument pointers (null when obs is null) — the obs pattern.
    obs::Counter* obs_connections_ = nullptr;
    obs::Gauge* obs_active_connections_ = nullptr;
    obs::Counter* obs_requests_ = nullptr;
    obs::Counter* obs_bad_frames_ = nullptr;
    obs::Counter* obs_oversized_ = nullptr;
    obs::Counter* obs_auth_failures_ = nullptr;
    obs::Counter* obs_reject_quota_ = nullptr;
    obs::Counter* obs_reject_capacity_ = nullptr;
    obs::Counter* obs_reject_draining_ = nullptr;
    obs::Counter* obs_http_ = nullptr;
    obs::Histogram* obs_submit_latency_ = nullptr;
};

}  // namespace pipetune::net

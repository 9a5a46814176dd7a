#include "pipetune/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "pipetune/sched/concurrent_service.hpp"
#include "pipetune/util/build_info.hpp"
#include "pipetune/util/logging.hpp"
#include "pipetune/workload/types.hpp"

namespace pipetune::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

core::SubmitPriority parse_priority(const std::string& text, core::SubmitPriority fallback) {
    if (text == "high") return core::SubmitPriority::kHigh;
    if (text == "normal") return core::SubmitPriority::kNormal;
    if (text == "batch") return core::SubmitPriority::kBatch;
    return fallback;
}

}  // namespace

TuningServer::TuningServer(ServerConfig config) : config_(std::move(config)) {
    if (config_.service == nullptr)
        throw std::invalid_argument("TuningServer: config.service must not be null");
    if (config_.max_frame_bytes == 0) config_.max_frame_bytes = kDefaultMaxFrameBytes;
    if (config_.obs != nullptr) {
        auto& m = config_.obs->metrics();
        obs_connections_ = &m.counter("pipetune_net_connections_total", {},
                                      "Accepted TCP connections");
        obs_active_connections_ =
            &m.gauge("pipetune_net_active_connections", {}, "Currently open connections");
        obs_requests_ = &m.counter("pipetune_net_requests_total", {}, "Parsed request frames");
        obs_bad_frames_ =
            &m.counter("pipetune_net_bad_frames_total", {}, "Frames rejected as unparsable");
        obs_oversized_ = &m.counter("pipetune_net_oversized_frames_total", {},
                                    "Lines discarded for exceeding the frame cap");
        obs_auth_failures_ =
            &m.counter("pipetune_net_auth_failures_total", {}, "Requests with a bad token");
        obs_reject_quota_ = &m.counter("pipetune_net_rejects_total", {{"reason", "quota"}},
                                       "Submits rejected by admission control");
        obs_reject_capacity_ = &m.counter("pipetune_net_rejects_total", {{"reason", "capacity"}},
                                          "Submits rejected by admission control");
        obs_reject_draining_ = &m.counter("pipetune_net_rejects_total", {{"reason", "draining"}},
                                          "Submits rejected by admission control");
        obs_http_ = &m.counter("pipetune_net_http_requests_total", {},
                               "HTTP requests served (GET /metrics)");
        obs_submit_latency_ = &m.histogram(
            "pipetune_net_submit_latency_seconds",
            {0.00025, 0.0005, 0.001, 0.002, 0.005, 0.02, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
             60.0},
            {},
            "Submit request receipt to settled response");
    }
}

TuningServer::~TuningServer() {
    if (io_thread_.joinable() || dispatch_thread_.joinable()) {
        request_stop(DrainMode::kFast);
        wait();
    }
}

util::Result<void> TuningServer::start() {
    if (io_thread_.joinable()) return util::Result<void>::failure("server already started");

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        return util::Result<void>::failure(std::string("socket: ") + std::strerror(errno));

    auto fail = [this](const std::string& what) {
        std::string message = what + ": " + std::strerror(errno);
        if (listen_fd_ >= 0) ::close(listen_fd_);
        if (epoll_fd_ >= 0) ::close(epoll_fd_);
        if (wake_fd_ >= 0) ::close(wake_fd_);
        listen_fd_ = epoll_fd_ = wake_fd_ = -1;
        return util::Result<void>::failure(message);
    };

    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1)
        return fail("inet_pton '" + config_.bind_address + "'");
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        return fail("bind " + config_.bind_address + ":" + std::to_string(config_.port));
    if (::listen(listen_fd_, 128) != 0) return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        return fail("getsockname");
    bound_port_ = ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return fail("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return fail("eventfd");

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) return fail("epoll_ctl listen");
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) return fail("epoll_ctl wake");

    stop_requested_.store(false, std::memory_order_release);
    draining_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    io_thread_ = std::thread([this] { io_loop(); });
    dispatch_thread_ = std::thread([this] { dispatch_loop(); });
    PT_LOG_INFO("net") << "pipetune serve listening on " << config_.bind_address << ":"
                       << bound_port_;
    return util::Result<void>::success();
}

void TuningServer::request_stop(DrainMode mode) {
    int expected = 0;
    stop_mode_.compare_exchange_strong(expected, mode == DrainMode::kFull ? 1 : 2);
    stop_requested_.store(true, std::memory_order_release);
    if (wake_fd_ >= 0) {
        std::uint64_t n = 1;
        // The IO thread sleeps in epoll_wait with no timeout: this poke is
        // what makes it notice the flag.
        [[maybe_unused]] ssize_t rc = ::write(wake_fd_, &n, sizeof(n));
    }
}

void TuningServer::wait() {
    if (io_thread_.joinable()) io_thread_.join();
    {
        std::lock_guard<std::mutex> lock(dispatch_mutex_);
        dispatch_stop_ = true;
    }
    dispatch_cv_.notify_all();
    if (dispatch_thread_.joinable()) dispatch_thread_.join();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
}

void TuningServer::stop(DrainMode mode) {
    request_stop(mode);
    wait();
}

TuningServer::Counters TuningServer::counters() const {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    return counters_;
}

// ---------------------------------------------------------------- IO thread

void TuningServer::io_loop() {
    std::vector<epoll_event> events(64);
    bool stopping = false;
    while (true) {
        int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), -1);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            std::uint32_t mask = events[i].events;
            if (fd == wake_fd_) {
                std::uint64_t drainv = 0;
                while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
                }
                continue;
            }
            if (fd == listen_fd_) {
                accept_ready();
                continue;
            }
            auto it = connections_.find(fd);
            if (it == connections_.end()) continue;  // closed earlier this batch
            Connection& conn = it->second;
            if (conn.dead) continue;
            if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
                close_connection(conn);
                continue;
            }
            if ((mask & EPOLLOUT) != 0) handle_writable(conn);
            if (!conn.dead && (mask & EPOLLIN) != 0) handle_readable(conn);
        }
        drain_outbound();
        sweep_dead();
        if (!stopping && stop_requested_.load(std::memory_order_acquire)) {
            stopping = true;
            begin_stop();
        }
        if (stopping && work_done()) break;
    }

    // Final flush: give every connection a bounded chance to receive the
    // bytes already queued for it (e.g. the `drain` acknowledgement), then
    // close everything.
    drain_outbound();
    for (auto& [fd, conn] : connections_) {
        if (!conn.dead) final_flush(conn);
        if (!conn.dead) {
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
            ::close(conn.fd);
            conn.dead = true;
        }
    }
    connections_.clear();
    conn_fd_by_id_.clear();
    dead_fds_.clear();
    if (obs_active_connections_ != nullptr) obs_active_connections_->set(0.0);
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    running_.store(false, std::memory_order_release);
}

void TuningServer::accept_ready() {
    while (true) {
        int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) return;  // EAGAIN (or a transient error): done for now
        if (connections_.size() >= config_.max_connections) {
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        // The kernel reuses the lowest free fd: a connection closed earlier in
        // THIS event batch (still in the map as dead, swept only afterwards)
        // can hand its number to this accept. Evict the stale entry now or
        // the emplace below would silently fail and the new connection would
        // never be read.
        auto stale = connections_.find(fd);
        if (stale != connections_.end()) {
            conn_fd_by_id_.erase(stale->second.id);
            connections_.erase(stale);
        }

        Connection conn;
        conn.fd = fd;
        conn.id = next_conn_id_++;
        conn.reader = FrameReader(config_.max_frame_bytes);

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        conn_fd_by_id_[conn.id] = fd;
        connections_.emplace(fd, std::move(conn));
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.connections;
        }
        if (obs_connections_ != nullptr) obs_connections_->inc();
        if (obs_active_connections_ != nullptr)
            obs_active_connections_->set(static_cast<double>(connections_.size()));
    }
}

void TuningServer::handle_readable(Connection& conn) {
    char buf[65536];
    while (true) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            if (!conn.decided) {
                conn.sniff.append(buf, static_cast<std::size_t>(n));
                if (conn.sniff.size() >= 4 || conn.sniff.find('\n') != std::string::npos) {
                    conn.http = conn.sniff.rfind("GET ", 0) == 0;
                    conn.decided = true;
                    if (conn.http) {
                        conn.http_buf = std::move(conn.sniff);
                    } else {
                        conn.reader.feed(conn.sniff.data(), conn.sniff.size());
                    }
                    conn.sniff.clear();
                }
            } else if (conn.http) {
                conn.http_buf.append(buf, static_cast<std::size_t>(n));
            } else {
                conn.reader.feed(buf, static_cast<std::size_t>(n));
            }
            continue;
        }
        if (n == 0) {
            close_connection(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_connection(conn);
        return;
    }
    if (!conn.decided) return;
    if (conn.http) {
        process_http(conn);
    } else {
        process_frames(conn);
    }
}

void TuningServer::handle_writable(Connection& conn) { flush(conn); }

void TuningServer::process_frames(Connection& conn) {
    std::string frame;
    while (!conn.dead) {
        FrameReader::Event event = conn.reader.next(&frame);
        if (event == FrameReader::Event::kNeedMore) break;
        if (event == FrameReader::Event::kOversized) {
            {
                std::lock_guard<std::mutex> lock(counters_mutex_);
                ++counters_.oversized_frames;
            }
            if (obs_oversized_ != nullptr) obs_oversized_->inc();
            send_frame(conn,
                       error_response(0, status::kFrameTooLarge,
                                      "frame exceeds " + std::to_string(config_.max_frame_bytes) +
                                          " bytes"));
            continue;
        }
        dispatch_frame(conn, frame);
    }
}

void TuningServer::process_http(Connection& conn) {
    // One request per connection, HTTP/1.0 style: wait for the blank line,
    // answer, close. Headers are irrelevant to us.
    bool complete = conn.http_buf.find("\r\n\r\n") != std::string::npos ||
                    conn.http_buf.find("\n\n") != std::string::npos;
    if (!complete) {
        if (conn.http_buf.size() > 16384) close_connection(conn);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.http_requests;
    }
    if (obs_http_ != nullptr) obs_http_->inc();

    std::size_t line_end = conn.http_buf.find_first_of("\r\n");
    std::string request_line = conn.http_buf.substr(0, line_end);
    std::size_t path_begin = request_line.find(' ');
    std::size_t path_end =
        path_begin == std::string::npos ? std::string::npos : request_line.find(' ', path_begin + 1);
    std::string path = path_begin == std::string::npos
                           ? std::string()
                           : request_line.substr(path_begin + 1, path_end == std::string::npos
                                                                     ? std::string::npos
                                                                     : path_end - path_begin - 1);

    std::string body;
    std::string status_line;
    if (path == "/metrics") {
        status_line = "HTTP/1.0 200 OK";
        body = config_.obs != nullptr ? config_.obs->metrics().to_prometheus()
                                      : "# metrics disabled (server started without --obs)\n";
    } else {
        status_line = "HTTP/1.0 404 Not Found";
        body = "not found: only GET /metrics is served here\n";
    }
    std::string response = status_line +
                           "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
                           "\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    conn.http_buf.clear();
    conn.outbox += response;
    conn.close_after_flush = true;
    flush(conn);
}

void TuningServer::dispatch_frame(Connection& conn, const std::string& frame) {
    {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.requests;
    }
    if (obs_requests_ != nullptr) obs_requests_->inc();

    auto parsed = parse_request(frame);
    if (!parsed) {
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.bad_frames;
        }
        if (obs_bad_frames_ != nullptr) obs_bad_frames_->inc();
        send_frame(conn, error_response(0, status::kBadRequest, parsed.error()));
        return;
    }
    const Request& req = parsed.value();

    // ping/version answer before auth so probes and health checks need no token.
    if (req.method == method::kPing) {
        util::Json body = util::Json::object();
        body["pong"] = true;
        body["draining"] = draining();
        send_frame(conn, ok_response(req.id, std::move(body)));
        return;
    }
    if (req.method == method::kVersion) {
        util::Json body = util::Json::object();
        body["version"] = util::kVersion;
        body["compiler"] = util::compiler_string();
        send_frame(conn, ok_response(req.id, std::move(body)));
        return;
    }

    std::string tenant;
    if (config_.tenants != nullptr) {
        auto who = config_.tenants->authenticate(req.token);
        if (!who) {
            {
                std::lock_guard<std::mutex> lock(counters_mutex_);
                ++counters_.auth_failures;
            }
            if (obs_auth_failures_ != nullptr) obs_auth_failures_->inc();
            send_frame(conn, error_response(req.id, status::kUnauthorized, who.error()));
            return;
        }
        tenant = who.value();
    } else {
        tenant = kAnonymousTenant;
    }

    if (req.method == method::kSubmit) {
        if (draining()) {
            {
                std::lock_guard<std::mutex> lock(counters_mutex_);
                ++counters_.rejects;
            }
            if (obs_reject_draining_ != nullptr) obs_reject_draining_->inc();
            send_frame(conn, error_response(req.id, status::kDraining,
                                            "server is draining; resubmit elsewhere"));
            return;
        }
        std::string workload_name = req.params.get_string("workload", "");
        if (workload_name.empty()) {
            send_frame(conn, error_response(req.id, status::kBadRequest,
                                            "submit: params.workload is required"));
            return;
        }
        bool known = false;
        for (const auto& w : workload::catalogue()) {
            if (w.name == workload_name) {
                known = true;
                break;
            }
        }
        if (!known) {
            send_frame(conn, error_response(req.id, status::kNotFound,
                                            "unknown workload '" + workload_name + "'"));
            return;
        }
        if (config_.tenants != nullptr) {
            auto admitted = config_.tenants->try_admit(tenant);
            if (!admitted) {
                {
                    std::lock_guard<std::mutex> lock(counters_mutex_);
                    ++counters_.rejects;
                }
                if (obs_reject_quota_ != nullptr) obs_reject_quota_->inc();
                send_frame(conn, error_response(req.id, status::kRejected, admitted.error()));
                return;
            }
        }

        SubmitTask task;
        task.pending = std::make_shared<PendingJob>();
        task.pending->conn_id = conn.id;
        task.pending->request_id = req.id;
        task.pending->tenant = tenant;
        task.pending->reply = req.params.get_bool("wait", true);
        task.pending->received_at = Clock::now();
        task.workload = workload_name;
        task.job = config_.default_job;
        task.job.parallel_slots = static_cast<std::size_t>(req.params.get_number(
            "parallel_slots", static_cast<double>(task.job.parallel_slots)));
        task.job.hyperband_resource = static_cast<std::size_t>(req.params.get_number(
            "hyperband_resource", static_cast<double>(task.job.hyperband_resource)));
        task.job.hyperband_eta = static_cast<std::size_t>(req.params.get_number(
            "hyperband_eta", static_cast<double>(task.job.hyperband_eta)));
        task.job.final_epochs = static_cast<std::size_t>(
            req.params.get_number("final_epochs", static_cast<double>(task.job.final_epochs)));
        task.job.seed = static_cast<std::uint64_t>(
            req.params.get_number("seed", static_cast<double>(task.job.seed)));
        task.options.label = req.params.get_string("label", tenant + "/" + workload_name);
        task.options.priority =
            parse_priority(req.params.get_string("priority", ""), core::SubmitPriority::kNormal);
        task.options.deadline_s = req.params.get_number("deadline_s", 0.0);
        task.options.backend_seed =
            static_cast<std::uint64_t>(req.params.get_number("backend_seed", 0.0));
        in_flight_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(dispatch_mutex_);
            dispatch_queue_.push_back(std::move(task));
        }
        dispatch_cv_.notify_one();
        return;
    }

    if (req.method == method::kStatus) {
        auto job_id = static_cast<std::uint64_t>(req.params.get_number("job_id", 0.0));
        for (const auto& timing : config_.service->job_timings()) {
            if (timing.id != job_id) continue;
            send_frame(conn, ok_response(req.id, job_timing_to_json(timing)));
            return;
        }
        send_frame(conn, error_response(req.id, status::kNotFound,
                                        "unknown job id " + std::to_string(job_id)));
        return;
    }

    if (req.method == method::kCancel) {
        auto job_id = static_cast<std::uint64_t>(req.params.get_number("job_id", 0.0));
        bool cancelled = config_.service->cancel(job_id);
        util::Json body = util::Json::object();
        body["job_id"] = job_id;
        body["cancelled"] = cancelled;
        send_frame(conn, ok_response(req.id, std::move(body)));
        return;
    }

    if (req.method == method::kStats) {
        util::Json body = util::Json::object();
        body["draining"] = draining();
        body["jobs_served"] = config_.service->jobs_served();
        body["service"] = service_stats_to_json(config_.service->stats());
        Counters c = counters();
        util::Json server = util::Json::object();
        server["connections"] = c.connections;
        server["requests"] = c.requests;
        server["bad_frames"] = c.bad_frames;
        server["oversized_frames"] = c.oversized_frames;
        server["auth_failures"] = c.auth_failures;
        server["rejects"] = c.rejects;
        server["http_requests"] = c.http_requests;
        server["jobs_submitted"] = c.jobs_submitted;
        server["jobs_completed"] = c.jobs_completed;
        body["server"] = std::move(server);
        if (config_.tenants != nullptr) {
            util::Json tenants = util::Json::array();
            for (const auto& t : config_.tenants->stats()) {
                util::Json entry = util::Json::object();
                entry["name"] = t.name;
                entry["in_flight"] = t.in_flight;
                entry["max_in_flight"] = t.max_in_flight;
                entry["submitted"] = t.submitted;
                entry["completed"] = t.completed;
                entry["rejected"] = t.rejected;
                tenants.push_back(std::move(entry));
            }
            body["tenants"] = std::move(tenants);
        }
        send_frame(conn, ok_response(req.id, std::move(body)));
        return;
    }

    if (req.method == method::kMetrics) {
        util::Json body = util::Json::object();
        body["prometheus"] =
            config_.obs != nullptr ? config_.obs->metrics().to_prometheus() : std::string();
        send_frame(conn, ok_response(req.id, std::move(body)));
        return;
    }

    if (req.method == method::kDrain) {
        bool run_queued = req.params.get_bool("run_queued", true);
        DrainMode mode = run_queued ? DrainMode::kFull : DrainMode::kFast;
        util::Json body = util::Json::object();
        body["draining"] = true;
        body["mode"] = run_queued ? "full" : "fast";
        send_frame(conn, ok_response(req.id, std::move(body)));
        request_stop(mode);
        return;
    }

    send_frame(conn,
               error_response(req.id, status::kUnknownMethod, "unknown method '" + req.method + "'"));
}

void TuningServer::send_frame(Connection& conn, const std::string& payload, bool close_after) {
    if (conn.dead) return;
    conn.outbox += encode_frame(payload);
    conn.close_after_flush = conn.close_after_flush || close_after;
    flush(conn);
}

void TuningServer::flush(Connection& conn) {
    if (conn.dead) return;
    while (conn.out_off < conn.outbox.size()) {
        ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.out_off,
                           conn.outbox.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            update_epoll(conn);
            return;
        }
        if (n < 0 && errno == EINTR) continue;
        close_connection(conn);
        return;
    }
    conn.outbox.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
        close_connection(conn);
        return;
    }
    update_epoll(conn);
}

void TuningServer::update_epoll(Connection& conn) {
    bool want_write = conn.out_off < conn.outbox.size();
    if (want_write == conn.epollout) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) conn.epollout = want_write;
}

void TuningServer::close_connection(Connection& conn) {
    if (conn.dead) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.dead = true;
    dead_fds_.push_back(conn.fd);
}

void TuningServer::sweep_dead() {
    for (int fd : dead_fds_) {
        auto it = connections_.find(fd);
        // The fd may already map to a NEW live connection (accept_ready
        // evicted the dead entry when the kernel reused the number) — only
        // sweep entries still marked dead.
        if (it == connections_.end() || !it->second.dead) continue;
        conn_fd_by_id_.erase(it->second.id);
        connections_.erase(it);
    }
    dead_fds_.clear();
    if (obs_active_connections_ != nullptr)
        obs_active_connections_->set(static_cast<double>(connections_.size()));
}

void TuningServer::drain_outbound() {
    std::deque<Outbound> batch;
    {
        std::lock_guard<std::mutex> lock(outbound_mutex_);
        batch.swap(outbound_);
    }
    for (auto& out : batch) {
        auto id_it = conn_fd_by_id_.find(out.conn_id);
        if (id_it == conn_fd_by_id_.end()) continue;  // client already gone
        auto it = connections_.find(id_it->second);
        if (it == connections_.end() || it->second.dead) continue;
        Connection& conn = it->second;
        conn.outbox += out.bytes;
        flush(conn);
    }
}

void TuningServer::begin_stop() {
    draining_.store(true, std::memory_order_release);
    if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (stop_mode_.load(std::memory_order_acquire) == 2) {
        std::size_t dropped = config_.service->discard_queued();
        if (dropped > 0)
            PT_LOG_INFO("net") << "fast drain: discarded " << dropped
                               << " queued job(s); they stay journal-pending for resume";
    }
}

bool TuningServer::work_done() {
    // A submit counts from the IO thread's hand-off until its last reply is
    // queued (post_outbound with last = true), so zero here means nothing is
    // queued for dispatch, waiting in the service, or being serialized.
    std::lock_guard<std::mutex> lock(outbound_mutex_);
    return in_flight_.load(std::memory_order_relaxed) == 0 && outbound_.empty();
}

void TuningServer::final_flush(Connection& conn) {
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(1);
    while (!conn.dead && conn.out_off < conn.outbox.size() && Clock::now() < deadline) {
        pollfd pfd{conn.fd, POLLOUT, 0};
        int rc = ::poll(&pfd, 1, 50);
        if (rc < 0 && errno != EINTR) break;
        if (rc > 0) flush(conn);
    }
}

// ------------------------------------------------------------- dispatch thread

void TuningServer::dispatch_loop() {
    while (true) {
        SubmitTask task;
        {
            std::unique_lock<std::mutex> lock(dispatch_mutex_);
            dispatch_cv_.wait(lock, [this] { return dispatch_stop_ || !dispatch_queue_.empty(); });
            if (dispatch_queue_.empty()) return;  // stopped and drained
            task = std::move(dispatch_queue_.front());
            dispatch_queue_.pop_front();
        }
        run_submit(std::move(task));
    }
}

void TuningServer::run_submit(SubmitTask task) {
    const workload::Workload& w = workload::find_workload(task.workload);
    std::shared_ptr<PendingJob> pending = std::move(task.pending);
    task.options.on_settled = [this, pending] { arrive(*pending); };
    auto submission = config_.service->submit(w, task.job, std::move(task.options));
    if (!submission.has_value()) {
        // Shed: on_settled never runs, so this is the submit's last reply.
        if (config_.tenants != nullptr) config_.tenants->release(pending->tenant, false);
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.rejects;
        }
        if (obs_reject_capacity_ != nullptr) obs_reject_capacity_->inc();
        post_outbound(pending->conn_id,
                      encode_frame(error_response(pending->request_id, status::kRejected,
                                                  "queue full: job shed by admission control")),
                      /*last=*/true);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        ++counters_.jobs_submitted;
    }
    if (!pending->reply) {
        util::Json body = util::Json::object();
        body["job_id"] = submission->id;
        body["state"] = "queued";
        post_outbound(pending->conn_id,
                      encode_frame(ok_response(pending->request_id, std::move(body))),
                      /*last=*/false);
    }
    pending->job_id = submission->id;
    pending->result = std::move(submission->result);
    arrive(*pending);
}

// ------------------------------------------------------------------ settlement

void TuningServer::arrive(PendingJob& pending) {
    // acq_rel: the second arrival sees what the first wrote (the dispatch
    // side's job_id and future, the service's settled future).
    if (pending.arrivals.fetch_add(1, std::memory_order_acq_rel) == 1) settle(pending);
}

void TuningServer::settle(PendingJob& pending) {
    bool completed = false;
    std::string response;
    try {
        core::PipeTuneJobResult result = pending.result.get();
        completed = true;
        util::Json body = util::Json::object();
        body["job_id"] = pending.job_id;
        body["result"] = job_result_to_json(result);
        response = ok_response(pending.request_id, std::move(body));
    } catch (const sched::JobDiscarded& e) {
        // Discarded while queued (fast drain / cancel / queue deadline): not
        // a server fault. 503 tells the client to resubmit; the journal
        // record stays pending for `pipetune resume`.
        response = error_response(pending.request_id, status::kDraining, e.what());
    } catch (const std::exception& e) {
        response = error_response(pending.request_id, status::kJobFailed, e.what());
    }
    if (config_.tenants != nullptr) config_.tenants->release(pending.tenant, completed);
    {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        if (completed) ++counters_.jobs_completed;
    }
    if (obs_submit_latency_ != nullptr) obs_submit_latency_->observe(seconds_since(pending.received_at));
    post_outbound(pending.conn_id, pending.reply ? encode_frame(response) : std::string(),
                  /*last=*/true);
}

// ----------------------------------------------------------------- cross-thread

void TuningServer::post_outbound(std::uint64_t conn_id, std::string bytes, bool last) {
    // Everything happens under the lock, the poke included: once the last
    // submit retires, a stopping IO thread may see zero in work_done(),
    // return, and the server be destroyed — so no settling thread may touch
    // `this` after unlocking.
    std::lock_guard<std::mutex> lock(outbound_mutex_);
    if (!bytes.empty()) outbound_.push_back(Outbound{conn_id, std::move(bytes)});
    if (last) in_flight_.fetch_sub(1, std::memory_order_relaxed);
    wake_io();
}

void TuningServer::wake_io() {
    if (wake_fd_ < 0) return;
    std::uint64_t n = 1;
    [[maybe_unused]] ssize_t rc = ::write(wake_fd_, &n, sizeof(n));
}

}  // namespace pipetune::net

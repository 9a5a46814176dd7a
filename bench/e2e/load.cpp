#include "load.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstring>

#include "pipetune/net/framing.hpp"
#include "pipetune/net/protocol.hpp"

namespace ptbench {

namespace net = pipetune::net;

namespace {

/// Give up on replies this long after the last send or reply.
constexpr auto kReplyTimeout = std::chrono::seconds(120);

/// Closes the descriptor it holds.
class Fd {
public:
    explicit Fd(int fd = -1) : fd_(fd) {}
    ~Fd() {
        if (fd_ >= 0) ::close(fd_);
    }
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
    Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    int get() const { return fd_; }

private:
    int fd_;
};

struct Conn {
    Fd fd;
    std::string inbuf;
};

util::Result<Fd> connect_loopback(std::uint16_t port) {
    Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (fd.get() < 0) return util::Result<Fd>::failure(std::string("socket: ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        return util::Result<Fd>::failure("connect 127.0.0.1:" + std::to_string(port) + ": " +
                                         std::strerror(errno));
    return fd;
}

bool send_all(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
        } else if (n < 0 && errno != EINTR) {
            return false;
        }
    }
    return true;
}

/// Moves every complete line out of `inbuf`.
std::vector<std::string> take_frames(std::string& inbuf) {
    std::vector<std::string> frames;
    std::size_t begin = 0;
    for (std::size_t nl = inbuf.find('\n'); nl != std::string::npos; nl = inbuf.find('\n', begin)) {
        frames.push_back(inbuf.substr(begin, nl - begin));
        begin = nl + 1;
    }
    inbuf.erase(0, begin);
    return frames;
}

/// Reads what is buffered on the socket. False when the peer closed or errored.
bool read_available(Conn& conn) {
    char buf[65536];
    while (true) {
        ssize_t n = ::recv(conn.fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
            conn.inbuf.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
}

std::string submit_frame(std::size_t index, const PlannedRequest& request,
                         const WorkloadSpec& spec, const std::string& token) {
    util::Json params = util::Json::object();
    params["workload"] = request.workload;
    params["hyperband_resource"] = spec.resource;
    params["hyperband_eta"] = 3;
    params["final_epochs"] = spec.resource;
    params["parallel_slots"] = 2;
    params["seed"] = request.job_seed;
    params["label"] = request_label(index);
    util::Json frame = util::Json::object();
    frame["id"] = index + 1;
    frame["method"] = net::method::kSubmit;
    frame["token"] = token;
    frame["params"] = std::move(params);
    return net::encode_frame(frame.dump());
}

void arm_timer(int timer_fd, Clock::time_point at) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(at.time_since_epoch());
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(ns.count() / 1000000000);
    spec.it_value.tv_nsec = static_cast<long>(ns.count() % 1000000000);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) spec.it_value.tv_nsec = 1;
    ::timerfd_settime(timer_fd, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace

std::string request_label(std::size_t index) {
    std::string label = "r";
    label += std::to_string(index);
    return label;
}

bool parse_request_label(const std::string& label, std::size_t* index) {
    if (label.size() < 2 || label[0] != 'r') return false;
    std::size_t value = 0;
    for (std::size_t i = 1; i < label.size(); ++i) {
        if (label[i] < '0' || label[i] > '9') return false;
        value = value * 10 + static_cast<std::size_t>(label[i] - '0');
    }
    *index = value;
    return true;
}

util::Result<LoadResult> run_load(const LoadConfig& config) {
    const WorkloadSpec& spec = *config.spec;
    const std::vector<PlannedRequest>& plan = *config.plan;
    const std::size_t total = plan.size();
    LoadResult result;
    result.records.resize(total);

    // steady_clock is CLOCK_MONOTONIC, the clock the timerfd runs on.
    Fd epoll_fd(::epoll_create1(EPOLL_CLOEXEC));
    Fd timer_fd(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
    if (epoll_fd.get() < 0 || timer_fd.get() < 0)
        return util::Result<LoadResult>::failure(std::string("epoll/timerfd: ") +
                                                   std::strerror(errno));
    const int timer_key = -1;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<std::uint64_t>(timer_key);
    ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, timer_fd.get(), &ev);

    // Connect and round-trip one ping per connection, so the run starts on
    // warm, protocol-sniffed connections.
    std::vector<Conn> conns;
    for (std::size_t c = 0; c < spec.clients; ++c) {
        auto fd = connect_loopback(config.port);
        if (!fd) return util::Result<LoadResult>::failure(fd.error());
        conns.push_back(Conn{std::move(fd.value()), {}});
        util::Json ping = util::Json::object();
        ping["id"] = total + 1 + c;
        ping["method"] = net::method::kPing;
        if (!send_all(conns.back().fd.get(), net::encode_frame(ping.dump())))
            return util::Result<LoadResult>::failure("ping send failed");
        ++result.pings;
        while (conns.back().inbuf.find('\n') == std::string::npos) {
            char buf[4096];
            ssize_t n = ::recv(conns.back().fd.get(), buf, sizeof(buf), 0);
            if (n <= 0 && errno != EINTR)
                return util::Result<LoadResult>::failure("no answer to ping");
            if (n > 0) conns.back().inbuf.append(buf, static_cast<std::size_t>(n));
        }
        conns.back().inbuf.clear();
        ev.events = EPOLLIN;
        ev.data.u64 = c;
        ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_ADD, conns.back().fd.get(), &ev);
    }

    std::size_t next = 0;
    std::size_t answered = 0;
    std::vector<std::size_t> open_conns(conns.size(), 1);
    auto send_request = [&](std::size_t index, std::size_t conn, Clock::time_point due) {
        RequestRecord& record = result.records[index];
        record.due = due;
        const std::string frame =
            submit_frame(index, plan[index], spec, config.tokens[plan[index].tenant]);
        const bool ok = open_conns[conn] != 0 && send_all(conns[conn].fd.get(), frame);
        record.sent = Clock::now();
        if (!ok && result.error.empty()) result.error = "send failed on connection " + std::to_string(conn);
    };
    auto due_at = [&](std::size_t index) {
        return result.start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(plan[index].due_s));
    };

    result.start = Clock::now();
    if (!spec.open_loop) {
        for (std::size_t c = 0; c < conns.size() && next < total; ++c, ++next)
            send_request(next, c, result.start);
    }
    Clock::time_point last_progress = result.start;  // latest send or reply
    std::vector<epoll_event> events(conns.size() + 1);
    while (answered < total) {
        Clock::time_point now = Clock::now();
        if (spec.open_loop) {
            while (next < total && due_at(next) <= now) {
                send_request(next, next % conns.size(), due_at(next));
                ++next;
                now = last_progress = Clock::now();
            }
            if (next < total) arm_timer(timer_fd.get(), due_at(next));
        }
        if (now - last_progress > kReplyTimeout) {
            result.error = "timed out waiting for " + std::to_string(total - answered) + " replies";
            break;
        }
        const int n = ::epoll_wait(epoll_fd.get(), events.data(), static_cast<int>(events.size()), 200);
        if (n < 0 && errno != EINTR) {
            result.error = std::string("epoll_wait: ") + std::strerror(errno);
            break;
        }
        for (int e = 0; e < n; ++e) {
            const auto key = static_cast<std::int64_t>(events[e].data.u64);
            if (key == timer_key) {
                std::uint64_t expirations = 0;
                [[maybe_unused]] ssize_t rc = ::read(timer_fd.get(), &expirations, sizeof(expirations));
                continue;
            }
            const auto c = static_cast<std::size_t>(key);
            if (open_conns[c] == 0) continue;
            const bool alive = read_available(conns[c]);
            const Clock::time_point read_at = Clock::now();
            for (const std::string& frame : take_frames(conns[c].inbuf)) {
                auto response = net::parse_response(frame);
                // Unparsable or unknown-id frames stay unmatched; their
                // requests count as failed once the loop ends.
                if (!response || response.value().id == 0 || response.value().id > total) continue;
                RequestRecord& record = result.records[response.value().id - 1];
                if (record.answered) continue;
                record.answered = true;
                record.replied = read_at;
                record.reply = frame;
                ++answered;
                last_progress = read_at;
                if (!spec.open_loop && next < total) {
                    send_request(next, c, read_at);
                    ++next;
                }
            }
            if (!alive) {
                open_conns[c] = 0;
                ::epoll_ctl(epoll_fd.get(), EPOLL_CTL_DEL, conns[c].fd.get(), nullptr);
                if (result.error.empty()) result.error = "server closed connection " + std::to_string(c);
            }
        }
        bool any_open = false;
        for (std::size_t open : open_conns) any_open = any_open || open != 0;
        if (!any_open) break;
    }
    return result;
}

}  // namespace ptbench

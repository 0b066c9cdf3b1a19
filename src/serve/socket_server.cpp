#include "rebudget/serve/socket_server.h"

#include <cerrno>
#include <chrono>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "rebudget/serve/client.h"
#include "rebudget/serve/transport.h"
#include "rebudget/util/logging.h"

namespace rebudget::serve {

namespace {

/** A reply (or tick end) crossing back to the I/O thread. */
struct Completion
{
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> frame;
    /** An async epoch tick finished (frame/conn/seq unused). */
    bool tickDone = false;
};

/**
 * ServerCore behind the Transport.  Pool workers post replies and tick
 * ends to a mutex-guarded queue, kicking the eventfd when it was empty
 * (the loop reads the eventfd before it takes the queue, so a queue
 * with entries always has a kick pending); the poll loop takes them.
 * The loop counts what it handed the core, and the destructor takes
 * posts until that count is 0: a post ends under the mutex, so no
 * worker touches this object afterwards.
 */
class Plumbing final : public Transport::Core
{
  public:
    Plumbing(ServerCore &core, int eventFd) : core_(core), eventFd_(eventFd)
    {
        core_.setReplySink([this](std::uint64_t conn, std::uint64_t seq,
                                  std::vector<std::uint8_t> &&frame) {
            post(Completion{conn, seq, std::move(frame), false});
        });
    }

    Plumbing(const Plumbing &) = delete;
    Plumbing &operator=(const Plumbing &) = delete;

    ~Plumbing() override
    {
        std::vector<Completion> rest;
        for (take(rest); owed_ != 0; take(rest)) {
            struct timespec ts = {0, 1000000}; // 1 ms
            ::nanosleep(&ts, nullptr);
        }
        core_.setReplySink(nullptr);
    }

    void submitFrame(std::uint64_t market,
                     std::vector<std::uint8_t> &&payload,
                     std::uint64_t conn, std::uint64_t seq) override
    {
        owed_ += 1;
        core_.submitFrame(market, std::move(payload), conn, seq);
    }

    bool readAllocation(const GetAllocation &req, AllocationReply &out,
                        ErrorReply &err) const override
    {
        return core_.readAllocation(req, out, err);
    }

    std::string statsJson() const override { return core_.statsJson(); }

    void tickAsync() override
    {
        owed_ += 1;
        core_.tickAsync([this] { post(Completion{0, 0, {}, true}); });
    }

    std::size_t pendingOps() const override { return core_.pendingOps(); }

    /** Move every posted completion into @p out (cleared first). */
    void take(std::vector<Completion> &out)
    {
        out.clear();
        const std::lock_guard<std::mutex> lock(mutex_);
        out.swap(queue_);
        owed_ -= out.size();
    }

  private:
    void post(Completion c)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(c));
        if (queue_.size() == 1) {
            const std::uint64_t one = 1;
            [[maybe_unused]] const ssize_t n =
                ::write(eventFd_, &one, sizeof(one));
        }
    }

    ServerCore &core_;
    int eventFd_;
    std::mutex mutex_;
    std::vector<Completion> queue_;
    /** Frames and ticks handed to the core whose completion the loop
     * has not taken (I/O thread only). */
    std::size_t owed_ = 0;
};

/** One accepted socket and its Transport connection id. */
struct Socket
{
    int fd = -1;
    std::uint64_t id = 0;
};

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Read @p s to EAGAIN, EOF or an error, handing everything over. */
void
readAll(Transport &transport, const Socket &s, std::uint8_t *buf,
        std::size_t size)
{
    for (;;) {
        const ssize_t got = ::recv(s.fd, buf, size, 0);
        if (got > 0) {
            transport.received(s.id, buf, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) {
            if (transport.eof(s.id))
                util::warn("serve: connection closed mid-frame; "
                           "dropping partial frame");
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
            transport.closed(s.id);
        }
        return;
    }
}

/**
 * Write as much of @p s's queued replies as the socket accepts, up to
 * 64 frames per gathering sendmsg; a short write stays queued and
 * resumes on POLLOUT.  @return false on a write error.
 */
bool
flush(Transport &transport, const Socket &s)
{
    constexpr std::size_t kIovBatch = 64;
    std::span<const std::uint8_t> chunks[kIovBatch];
    iovec iov[kIovBatch];
    for (;;) {
        const std::size_t n = transport.outbox(s.id, chunks, kIovBatch);
        if (n == 0)
            return true;
        for (std::size_t i = 0; i < n; ++i) {
            iov[i].iov_base = const_cast<std::uint8_t *>(chunks[i].data());
            iov[i].iov_len = chunks[i].size();
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = n;
        const ssize_t wrote = ::sendmsg(s.fd, &msg, MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return errno == EAGAIN || errno == EWOULDBLOCK;
        }
        transport.wrote(s.id, static_cast<std::size_t>(wrote));
    }
}

} // namespace

util::SolveStatus
SocketServer::run()
{
    const bool unix_socket = !options_.socketPath.empty();
    const auto where = socketAddress(options_.socketPath, options_.port);
    if (!where.ok())
        return where.status();
    const int listen_fd =
        ::socket(where.value().addr.ss_family, SOCK_STREAM, 0);
    if (listen_fd < 0)
        return sysError(unix_socket ? "socket(AF_UNIX)" : "socket(AF_INET)");
    auto fail = [&](const char *what) {
        const util::SolveStatus st = sysError(what);
        ::close(listen_fd);
        if (unix_socket)
            ::unlink(options_.socketPath.c_str());
        return st;
    };
    if (unix_socket) {
        ::unlink(options_.socketPath.c_str());
    } else {
        const int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    if (::bind(listen_fd,
               reinterpret_cast<const sockaddr *>(&where.value().addr),
               where.value().size) != 0)
        return fail(unix_socket ? "bind(unix socket)" : "bind(loopback tcp)");
    if (!unix_socket) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            bound_port_ = ntohs(bound.sin_port);
    }
    if (::listen(listen_fd, 64) != 0 || !setNonBlocking(listen_fd))
        return fail("listen");
    const int event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (event_fd < 0)
        return fail("eventfd");

    util::SolveStatus exit_status;
    {
        Plumbing plumbing(core_, event_fd);
        Transport transport(plumbing, options_.tickMs, options_.maxTicks,
                            nowMs());
        std::vector<Socket> socks;
        std::vector<pollfd> fds;
        std::vector<Completion> completions;
        std::uint8_t rdbuf[64 * 1024];
        int stops_seen = 0;
        for (;;) {
            for (const int stops = stop_.load(std::memory_order_relaxed);
                 stops_seen < stops; ++stops_seen)
                transport.stop();
            if (transport.done(nowMs()))
                break;

            fds.clear();
            fds.push_back({listen_fd,
                           static_cast<short>(transport.accepting() ? POLLIN
                                                                    : 0),
                           0});
            fds.push_back({event_fd, POLLIN, 0});
            for (const Socket &s : socks) {
                short events = transport.wantsRead(s.id) ? POLLIN : 0;
                if (transport.wantsWrite(s.id))
                    events |= POLLOUT;
                fds.push_back({s.fd, events, 0});
            }
            if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                       transport.timeoutMs(nowMs())) < 0) {
                if (errno == EINTR)
                    continue;
                exit_status = sysError("poll");
                break;
            }
            transport.timer(nowMs());

            if ((fds[1].revents & POLLIN) != 0) {
                std::uint64_t kicks = 0;
                while (::read(event_fd, &kicks, sizeof(kicks)) > 0) {
                }
            }
            plumbing.take(completions);
            for (Completion &c : completions) {
                if (!c.tickDone) {
                    transport.complete(c.conn, c.seq, std::move(c.frame));
                    continue;
                }
                // Before tickDone(), which may start the next tick: the
                // hook sees a quiescent epoch (the snapshot trigger).
                if (options_.onTick)
                    options_.onTick(core_.epoch());
                transport.tickDone();
            }

            if ((fds[0].revents & POLLIN) != 0 && transport.accepting()) {
                int fd;
                while ((fd = ::accept(listen_fd, nullptr, nullptr)) >= 0) {
                    if (setNonBlocking(fd))
                        socks.push_back({fd, transport.open()});
                    else
                        ::close(fd);
                }
            }

            // fds[i + 2] mirrors socks[i]; sockets accepted this round
            // have no pollfd yet.
            for (std::size_t i = 0; i + 2 < fds.size(); ++i) {
                const Socket &s = socks[i];
                if ((fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                    // Input is polled only while the transport reads, so
                    // a hang-up otherwise means the peer is gone.
                    if ((fds[i + 2].events & POLLIN) != 0)
                        readAll(transport, s, rdbuf, sizeof(rdbuf));
                    else
                        transport.closed(s.id);
                }
                // Replies queued this round go out without another poll.
                if (!flush(transport, s))
                    transport.closed(s.id);
            }
            std::erase_if(socks, [&](const Socket &s) {
                if (transport.alive(s.id))
                    return false;
                ::close(s.fd);
                return true;
            });
        }
        for (const Socket &s : socks)
            ::close(s.fd);
    }

    ::close(event_fd);
    ::close(listen_fd);
    if (unix_socket)
        ::unlink(options_.socketPath.c_str());
    return exit_status;
}

} // namespace rebudget::serve

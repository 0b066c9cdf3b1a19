#ifndef REBUDGET_SERVE_SOCKET_SERVER_H_
#define REBUDGET_SERVE_SOCKET_SERVER_H_

/**
 * @file
 * rebudgetd's socket driver: one nonblocking poll() thread that owns
 * the listening socket and every connection fd over a Unix-domain
 * socket or loopback TCP.  It moves bytes between the fds and a
 * serve::Transport, which makes every routing, sequencing, tick and
 * drain decision (transport.h states the contract), and carries worker
 * replies and tick ends back from ServerCore's pool through an
 * eventfd-woken completion queue.  Each POLLIN wakeup reads a socket
 * to EAGAIN; each round writes a connection's queued replies with one
 * gathering sendmsg per 64 frames, and a short write resumes on POLLOUT.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "rebudget/serve/server_core.h"
#include "rebudget/util/status.h"

namespace rebudget::serve {

/** Transport configuration for SocketServer. */
struct SocketServerOptions
{
    /** Unix-domain socket path ("" = use TCP instead). */
    std::string socketPath;
    /** Loopback TCP port (used when socketPath is empty; 0 = pick). */
    std::uint16_t port = 0;
    /** Epoch tick period in milliseconds (0 = only TickNow ticks). */
    std::uint32_t tickMs = 100;
    /** Stop after this many epochs (0 = run until Shutdown/stop flag). */
    std::uint64_t maxTicks = 0;
    /**
     * Invoked on the I/O thread each time an epoch tick completes,
     * with the epoch that just finished (no tick is in flight during
     * the call).  rebudgetd hangs the periodic snapshot off this; it
     * briefly pauses frame processing, so keep the work bounded.
     */
    std::function<void(std::uint64_t epoch)> onTick;
};

/** Single-threaded poll loop bridging sockets to a ServerCore. */
class SocketServer
{
  public:
    SocketServer(ServerCore &core, SocketServerOptions options)
        : core_(core), options_(std::move(options))
    {
    }

    /**
     * Bind, listen and serve until a Shutdown request arrives, maxTicks
     * epochs have run, or the stop flag (see requestStop) is raised.
     * Returns Ok on clean shutdown or an error describing the socket
     * failure.  The listening socket is closed (and a Unix socket path
     * unlinked) on exit.
     */
    util::SolveStatus run();

    /**
     * Ask a running loop to stop.  The first call begins a graceful
     * shutdown: the loop stops accepting connections, drains queued
     * writes and in-flight ticks, flushes pending replies, then exits
     * (bounded by Transport::kDrainMs).  A second call -- the
     * impatient operator's second Ctrl-C -- exits at the next poll
     * wakeup without waiting for the drain.  Safe to call from a
     * signal handler or another thread (lock-free atomic increment).
     */
    void requestStop() { stop_.fetch_add(1, std::memory_order_relaxed); }

    /**
     * @return the bound TCP port, or 0 until run() has bound.  May be
     * polled from another thread while the loop starts up.
     */
    std::uint16_t boundPort() const
    {
        return bound_port_.load(std::memory_order_acquire);
    }

  private:
    ServerCore &core_;
    SocketServerOptions options_;
    std::atomic<int> stop_{0};
    std::atomic<std::uint16_t> bound_port_{0};
};

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_SOCKET_SERVER_H_

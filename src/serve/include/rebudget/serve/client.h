#ifndef REBUDGET_SERVE_CLIENT_H_
#define REBUDGET_SERVE_CLIENT_H_

/**
 * @file
 * One client connection to rebudgetd (rebudgetctl, rebudgetload and the
 * socket tests).  Requests are queued and written by flush(), so a
 * caller can pipeline; replies come out of one FrameReader that lives
 * as long as the connection, so bytes read ahead of a reply are kept.
 * A dead daemon surfaces as an error status, never as SIGPIPE.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <sys/socket.h>

#include "rebudget/serve/protocol.h"
#include "rebudget/util/status.h"

namespace rebudget::serve {

/** A socket address and its length. */
struct SocketAddress
{
    sockaddr_storage addr{};
    socklen_t size = 0;
};

/**
 * The address of a Unix-domain socket at @p socketPath, or of loopback
 * TCP @p port when the path is empty; the listener and the client both
 * build theirs here.  InvalidArgument when the path does not fit.
 */
util::Expected<SocketAddress> socketAddress(const std::string &socketPath,
                                            std::uint16_t port);

/** An Aborted status naming @p what and errno's text. */
util::SolveStatus sysError(const char *what);

/** Set O_NONBLOCK on @p fd. @return false on failure (errno is set). */
bool setNonBlocking(int fd);

/** A connection to rebudgetd. */
class Client
{
  public:
    Client() = default;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    ~Client();

    /**
     * Connect to @p socketPath, or to loopback TCP @p port when it is
     * empty.  @p receiveBuffer > 0 sets SO_RCVBUF first, so a TCP
     * window is negotiated that small.
     */
    util::SolveStatus connect(const std::string &socketPath,
                              std::uint16_t port, int receiveBuffer = 0);

    /** The socket, for a caller that polls it or makes it nonblocking
     * (flush() and read() then take what the socket allows). */
    int fd() const { return fd_; }

    /** Append one request frame to the send buffer. */
    void queue(const Request &req);
    bool wantsWrite() const { return sent_ < out_.size(); }
    /** Write the send buffer: all of it while blocking, what the
     * socket takes when nonblocking. */
    util::SolveStatus flush();

    /** One recv() into reader(), waiting at most @p timeoutMs first
     * (0 = no limit).  EOF is an error. */
    util::SolveStatus read(std::uint64_t timeoutMs = 0);
    /** The reply stream read so far. */
    FrameReader &reader() { return reader_; }

    /** Block for the next reply and decode it; @p timeoutMs bounds
     * each wait for more bytes (0 = no limit). */
    util::Expected<Response> receive(std::uint64_t timeoutMs = 0);
    /** queue(), flush(), receive(). */
    util::Expected<Response> call(const Request &req,
                                  std::uint64_t timeoutMs = 0);

  private:
    int fd_ = -1;
    std::vector<std::uint8_t> out_;
    std::size_t sent_ = 0;
    FrameReader reader_;
};

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_CLIENT_H_

#include "rebudget/serve/client.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/un.h>
#include <unistd.h>

namespace rebudget::serve {

util::SolveStatus
sysError(const char *what)
{
    return util::SolveStatus::error(util::StatusCode::Aborted, "%s: %s",
                                    what, std::strerror(errno));
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

util::Expected<SocketAddress>
socketAddress(const std::string &socketPath, std::uint16_t port)
{
    SocketAddress out;
    if (!socketPath.empty()) {
        auto *un = reinterpret_cast<sockaddr_un *>(&out.addr);
        un->sun_family = AF_UNIX;
        if (socketPath.size() >= sizeof(un->sun_path)) {
            return util::SolveStatus::error(
                util::StatusCode::InvalidArgument,
                "socket path too long: %s", socketPath.c_str());
        }
        std::memcpy(un->sun_path, socketPath.c_str(), socketPath.size());
        out.size = sizeof(sockaddr_un);
        return out;
    }
    auto *in = reinterpret_cast<sockaddr_in *>(&out.addr);
    in->sin_family = AF_INET;
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in->sin_port = htons(port);
    out.size = sizeof(sockaddr_in);
    return out;
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

util::SolveStatus
Client::connect(const std::string &socketPath, std::uint16_t port,
                int receiveBuffer)
{
    const auto where = socketAddress(socketPath, port);
    if (!where.ok())
        return where.status();
    fd_ = ::socket(where.value().addr.ss_family, SOCK_STREAM | SOCK_CLOEXEC,
                   0);
    if (fd_ < 0)
        return sysError("socket");
    if (receiveBuffer > 0 &&
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receiveBuffer,
                     sizeof(receiveBuffer)) != 0)
        return sysError("setsockopt(SO_RCVBUF)");
    if (::connect(fd_,
                  reinterpret_cast<const sockaddr *>(&where.value().addr),
                  where.value().size) == 0)
        return {};
    const char *why = std::strerror(errno);
    const std::string peer =
        socketPath.empty() ? "port " + std::to_string(port) : socketPath;
    return util::SolveStatus::error(util::StatusCode::Aborted,
                                    "connect(%s): %s", peer.c_str(), why);
}

void
Client::queue(const Request &req)
{
    encodeRequest(req, out_);
}

util::SolveStatus
Client::flush()
{
    while (sent_ < out_.size()) {
        const ssize_t n = ::send(fd_, out_.data() + sent_,
                                 out_.size() - sent_, MSG_NOSIGNAL);
        if (n > 0) {
            sent_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return {};
        return util::SolveStatus::error(
            util::StatusCode::Aborted, "send: %s (daemon gone?)",
            n < 0 ? std::strerror(errno) : "connection closed");
    }
    out_.clear();
    sent_ = 0;
    return {};
}

util::SolveStatus
Client::read(std::uint64_t timeoutMs)
{
    if (timeoutMs != 0) {
        pollfd pfd{fd_, POLLIN, 0};
        int rc;
        do {
            rc = ::poll(&pfd, 1, static_cast<int>(timeoutMs));
        } while (rc < 0 && errno == EINTR);
        if (rc < 0)
            return sysError("poll");
        if (rc == 0)
            return util::SolveStatus::error(
                util::StatusCode::Aborted,
                "timed out after %llu ms waiting for the reply",
                static_cast<unsigned long long>(timeoutMs));
    }
    std::uint8_t buf[64 * 1024];
    ssize_t n;
    do {
        n = ::recv(fd_, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
        reader_.feed(buf, static_cast<std::size_t>(n));
        return {};
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return {};
    if (n < 0)
        return sysError("recv");
    return util::SolveStatus::error(util::StatusCode::Aborted,
                                    "the daemon closed the connection");
}

util::Expected<Response>
Client::receive(std::uint64_t timeoutMs)
{
    std::vector<std::uint8_t> payload;
    for (;;) {
        switch (reader_.next(payload)) {
        case FrameReader::Result::Frame:
            return decodeResponse(payload.data(), payload.size());
        case FrameReader::Result::Error:
            return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                            "%s", reader_.error().c_str());
        case FrameReader::Result::NeedMore:
            break;
        }
        const util::SolveStatus st = read(timeoutMs);
        if (!st.ok())
            return st;
    }
}

util::Expected<Response>
Client::call(const Request &req, std::uint64_t timeoutMs)
{
    queue(req);
    const util::SolveStatus st = flush();
    if (!st.ok())
        return st;
    return receive(timeoutMs);
}

} // namespace rebudget::serve

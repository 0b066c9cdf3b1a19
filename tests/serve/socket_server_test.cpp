/**
 * @file
 * serve::SocketServer failure semantics over real sockets:
 *  - complete-but-malformed frames (unknown opcode) get a typed
 *    ErrorReply and the connection survives;
 *  - an oversized declared frame length gets an ErrorReply and then
 *    the connection is dropped;
 *  - a mid-frame disconnect is absorbed;
 *  - a client that half-closes still gets every reply, then EOF;
 *  - none of the above disturbs other connections or hosted markets;
 *  - a protocol Shutdown cleanly stops the serve loop.
 *
 * Every test boots its own daemon on a Unix-domain socket in a temp
 * directory (two on ephemeral loopback TCP), reaches it through
 * serve::Client and always stops it via the protocol, so the poll loop
 * exercises its drain path.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "rebudget/serve/client.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/serve/socket_server.h"

using namespace rebudget;
using namespace rebudget::serve;

namespace {

/** One daemon on a Unix socket, torn down via protocol Shutdown. */
class TestServer
{
  public:
    TestServer()
    {
        char tmpl[] = "/tmp/rebudget_serve_test_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        dir_ = dir ? dir : "";
        path_ = dir_ + "/d.sock";

        ServeConfig config;
        config.shards = 2;
        config.jobs = 1;
        config.market.maxIterations = 200;
        core_ = std::make_unique<ServerCore>(config);
        SocketServerOptions options;
        options.socketPath = path_;
        options.tickMs = 0; // ticks only via TickNow
        server_ = std::make_unique<SocketServer>(*core_, options);
        thread_ = std::thread([this] { result_ = server_->run(); });
        waitForSocket();
    }

    ~TestServer()
    {
        if (thread_.joinable()) {
            // Belt and braces: tests normally Shutdown via protocol.
            server_->requestStop();
            Client wake; // wake the poll loop
            (void)wake.connect(path_, 0);
            thread_.join();
        }
        ::unlink(path_.c_str());
        ::rmdir(dir_.c_str());
    }

    /** Connect @p c to this daemon. @return false on failure. */
    bool connect(Client &c) const { return c.connect(path_, 0).ok(); }

    void shutdownViaProtocol()
    {
        Client c;
        ASSERT_TRUE(connect(c));
        send(c, Shutdown{});
        Response resp;
        ASSERT_TRUE(readResponse(c, resp));
        EXPECT_TRUE(std::holds_alternative<AckReply>(resp));
        thread_.join();
        EXPECT_TRUE(result_.ok()) << result_.toString();
    }

    /** Send raw bytes (malformed frames) straight to @p c's socket. */
    static void sendAll(Client &c, const std::uint8_t *data,
                        std::size_t size)
    {
        std::size_t sent = 0;
        while (sent < size) {
            const ssize_t n = ::send(c.fd(), data + sent, size - sent,
                                     MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
            sent += static_cast<std::size_t>(n);
        }
    }

    static void send(Client &c, const Request &req)
    {
        c.queue(req);
        const util::SolveStatus st = c.flush();
        ASSERT_TRUE(st.ok()) << st.toString();
    }

    /** Read one framed Response; false on EOF before a full frame. */
    static bool readResponse(Client &c, Response &out)
    {
        const auto resp = c.receive();
        if (!resp.ok())
            return false;
        out = resp.value();
        return true;
    }

    /** @return true once the server drops the connection (EOF). */
    static bool waitForClose(Client &c)
    {
        std::uint8_t buf[256];
        for (;;) {
            const ssize_t n = ::recv(c.fd(), buf, sizeof(buf), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
        }
    }

  private:
    void waitForSocket() const
    {
        struct stat st{};
        for (int i = 0; i < 200; ++i) {
            if (::stat(path_.c_str(), &st) == 0)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        FAIL() << "daemon never bound " << path_;
    }

    std::string dir_;
    std::string path_;
    std::unique_ptr<ServerCore> core_;
    std::unique_ptr<SocketServer> server_;
    std::thread thread_;
    util::SolveStatus result_;
};

CreateMarket
smallMarket(std::uint64_t id)
{
    CreateMarket req;
    req.market = id;
    req.tenants.push_back({0, "mcf"});
    req.tenants.push_back({1, "hmmer"});
    return req;
}

} // namespace

TEST(SocketServer, RoundTripOverUnixSocket)
{
    TestServer server;
    Client c;
    ASSERT_TRUE(server.connect(c));

    TestServer::send(c, smallMarket(1));
    Response resp;
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));

    TestServer::send(c, TickNow{});
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));

    TestServer::send(c, GetAllocation{1});
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    const auto *alloc = std::get_if<AllocationReply>(&resp);
    ASSERT_NE(alloc, nullptr);
    EXPECT_EQ(alloc->market, 1u);
    EXPECT_EQ(alloc->players.size(), 2u);

    server.shutdownViaProtocol();
}

TEST(SocketServer, UnknownOpcodeGetsTypedErrorAndConnectionSurvives)
{
    TestServer server;
    Client c;
    ASSERT_TRUE(server.connect(c));

    // A complete frame whose payload is one unknown opcode byte.
    const std::uint8_t frame[] = {1, 0, 0, 0, 0x7f};
    TestServer::sendAll(c, frame, sizeof(frame));
    Response resp;
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    const auto *err = std::get_if<ErrorReply>(&resp);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, util::StatusCode::InvalidArgument);

    // Same connection must still serve valid requests.
    TestServer::send(c, smallMarket(2));
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));

    server.shutdownViaProtocol();
}

TEST(SocketServer, OversizedFrameDropsOnlyThatConnection)
{
    TestServer server;
    Client healthy;
    Client rogue;
    ASSERT_TRUE(server.connect(healthy));
    ASSERT_TRUE(server.connect(rogue));

    // Set up state through the healthy connection first.
    TestServer::send(healthy, smallMarket(3));
    Response resp;
    ASSERT_TRUE(TestServer::readResponse(healthy, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));

    // Rogue declares a payload over the 1 MiB cap: expect a typed
    // error back and then EOF -- the stream cannot be trusted.
    const std::uint32_t declared = kMaxFramePayload + 1;
    std::uint8_t prefix[4];
    for (int i = 0; i < 4; ++i)
        prefix[i] = static_cast<std::uint8_t>(declared >> (8 * i));
    TestServer::sendAll(rogue, prefix, sizeof(prefix));
    ASSERT_TRUE(TestServer::readResponse(rogue, resp));
    ASSERT_TRUE(std::holds_alternative<ErrorReply>(resp));
    EXPECT_TRUE(TestServer::waitForClose(rogue));

    // The healthy connection and its market are untouched.
    TestServer::send(healthy, TickNow{});
    ASSERT_TRUE(TestServer::readResponse(healthy, resp));
    TestServer::send(healthy, GetAllocation{3});
    ASSERT_TRUE(TestServer::readResponse(healthy, resp));
    EXPECT_TRUE(std::holds_alternative<AllocationReply>(resp));

    server.shutdownViaProtocol();
}

TEST(SocketServer, MidFrameDisconnectIsAbsorbed)
{
    TestServer server;
    {
        // Announce an 80-byte payload, deliver 3 bytes, hang up.
        Client c;
        ASSERT_TRUE(server.connect(c));
        const std::uint8_t partial[] = {80, 0, 0, 0, 0x01, 0x02, 0x03};
        TestServer::sendAll(c, partial, sizeof(partial));
    }

    // The server must keep accepting and serving.
    Client c2;
    ASSERT_TRUE(server.connect(c2));
    TestServer::send(c2, smallMarket(4));
    Response resp;
    ASSERT_TRUE(TestServer::readResponse(c2, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));

    server.shutdownViaProtocol();
}

TEST(SocketServer, StatsOverTheWire)
{
    TestServer server;
    Client c;
    ASSERT_TRUE(server.connect(c));
    TestServer::send(c, GetStats{});
    Response resp;
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    const auto *stats = std::get_if<StatsReply>(&resp);
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->json.find("rebudget.serve_stats.v1"),
              std::string::npos);
    server.shutdownViaProtocol();
}

TEST(SocketServer, TinySendWindowBuffersPendingReplies)
{
    // Regression for the transport's short-write handling: a client
    // with a tiny receive window pipelines many large (GetStats)
    // requests without reading, so the server's coalesced sendmsg hits
    // EAGAIN repeatedly and must buffer the remainder per connection
    // -- while other connections keep round-tripping.  Every reply
    // must eventually arrive intact, in order, with nothing truncated
    // or duplicated.
    ServeConfig config;
    config.shards = 2;
    config.jobs = 1;
    config.market.maxIterations = 200;
    ServerCore core(config);
    SocketServerOptions options;
    options.port = 0;
    options.tickMs = 0;
    SocketServer server(core, options);
    util::SolveStatus result;
    std::thread thread([&] { result = server.run(); });

    std::uint16_t port = 0;
    for (int i = 0; i < 200 && port == 0; ++i) {
        port = server.boundPort();
        if (port == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_NE(port, 0);

    Client brisk;
    ASSERT_TRUE(brisk.connect("", port).ok());
    Response resp;
    for (std::uint64_t m = 0; m < 8; ++m) {
        TestServer::send(brisk, smallMarket(m));
        ASSERT_TRUE(TestServer::readResponse(brisk, resp));
        ASSERT_TRUE(std::holds_alternative<AckReply>(resp));
    }

    // The receive buffer is set before connect so the window is
    // negotiated small; the kernel clamps it to its floor, which is
    // still far below one burst of stats replies.
    Client slow;
    ASSERT_TRUE(slow.connect("", port, 1024).ok());
    constexpr int kPipelined = 120;
    for (int i = 0; i < kPipelined; ++i)
        slow.queue(GetStats{});
    ASSERT_TRUE(slow.flush().ok());
    // Give the server time to answer far more than one window's worth,
    // so replies are definitely parked in the connection's send queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // A backed-up peer must not wedge the loop for anyone else.
    TestServer::send(brisk, TickNow{});
    ASSERT_TRUE(TestServer::readResponse(brisk, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));
    TestServer::send(brisk, GetAllocation{3});
    ASSERT_TRUE(TestServer::readResponse(brisk, resp));
    EXPECT_TRUE(std::holds_alternative<AllocationReply>(resp));

    // Now drain the slow connection: every pipelined reply arrives
    // whole.  The client's one FrameReader persists across the whole
    // stream (a fresh reader per reply would discard read-ahead
    // bytes), and periodic pauses keep the window collapsing so the
    // server's POLLOUT resume path runs more than once.
    for (int got = 0; got < kPipelined;) {
        const auto decoded = slow.receive();
        ASSERT_TRUE(decoded.ok())
            << "reply " << got << ": " << decoded.status().toString();
        const auto *stats = std::get_if<StatsReply>(&decoded.value());
        ASSERT_NE(stats, nullptr) << "reply " << got;
        EXPECT_NE(stats->json.find("rebudget.serve_stats.v1"),
                  std::string::npos);
        ++got;
        if (got % 16 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    TestServer::send(brisk, Shutdown{});
    ASSERT_TRUE(TestServer::readResponse(brisk, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));
    thread.join();
    EXPECT_TRUE(result.ok()) << result.toString();
}

TEST(SocketServer, LoopbackTcpWithEphemeralPort)
{
    ServeConfig config;
    config.shards = 1;
    config.jobs = 1;
    config.market.maxIterations = 200;
    ServerCore core(config);
    SocketServerOptions options;
    options.port = 0; // kernel picks; boundPort() reports
    options.tickMs = 0;
    SocketServer server(core, options);
    util::SolveStatus result;
    std::thread thread([&] { result = server.run(); });

    std::uint16_t port = 0;
    for (int i = 0; i < 200 && port == 0; ++i) {
        port = server.boundPort();
        if (port == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_NE(port, 0);

    Client c;
    ASSERT_TRUE(c.connect("", port).ok());

    TestServer::send(c, smallMarket(9));
    Response resp;
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));

    TestServer::send(c, Shutdown{});
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));
    thread.join();
    EXPECT_TRUE(result.ok()) << result.toString();
}

TEST(SocketServer, HalfCloseStillGetsReplies)
{
    // A client that sends its requests and then shuts down its write
    // side (what `nc -N` does) is owed every reply: the ones answered
    // inline and the write still on its shard.
    TestServer server;
    Client c;
    ASSERT_TRUE(server.connect(c));
    c.queue(smallMarket(5));
    for (int i = 0; i < 3; ++i)
        c.queue(GetStats{});
    c.queue(TickNow{});
    ASSERT_TRUE(c.flush().ok());
    ASSERT_EQ(::shutdown(c.fd(), SHUT_WR), 0);

    Response resp;
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(TestServer::readResponse(c, resp)) << "stats " << i;
        EXPECT_TRUE(std::holds_alternative<StatsReply>(resp));
    }
    ASSERT_TRUE(TestServer::readResponse(c, resp));
    EXPECT_TRUE(std::holds_alternative<AckReply>(resp));
    EXPECT_TRUE(TestServer::waitForClose(c));

    server.shutdownViaProtocol();
}

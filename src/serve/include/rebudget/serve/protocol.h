#ifndef REBUDGET_SERVE_PROTOCOL_H_
#define REBUDGET_SERVE_PROTOCOL_H_

/**
 * @file
 * Wire protocol of the rebudgetd market-serving daemon.
 *
 * Framing: every message is a little-endian u32 payload length followed
 * by the payload; the payload's first byte is the opcode.  The length
 * covers the payload only (not itself) and is capped at kMaxFramePayload
 * -- a peer declaring more is treated as a framing error and the
 * connection is dropped, because the stream position can no longer be
 * trusted.  A complete frame that fails to decode (unknown opcode,
 * truncated body, trailing bytes) is a REQUEST error: the frame boundary
 * is intact, so the server answers with a typed Error reply and keeps
 * the connection.
 *
 * Scalars are little-endian; f64 is the IEEE-754 bit pattern of a
 * double.  Strings are u16 length + raw bytes.  Free-length tails
 * (Error message, Stats JSON) run to the end of the payload.
 *
 * Request payloads:
 *   CreateMarket  = 0x01  u64 market, u16 n, n x { u64 tenant, str app }
 *   SubmitDemand  = 0x02  u64 market, u64 tenant, f64 weight
 *   JoinTenant    = 0x03  u64 market, u64 tenant, str app
 *   LeaveTenant   = 0x04  u64 market, u64 tenant
 *   GetAllocation = 0x05  u64 market
 *   GetStats      = 0x06  (empty)
 *   Shutdown      = 0x07  (empty)
 *   TickNow       = 0x08  (empty) -- forces one synchronous epoch tick;
 *                         admin/test hook that makes round-trip tests
 *                         independent of the wall-clock tick timer
 *
 * Response payloads:
 *   Ack           = 0x81  (empty)
 *   Error         = 0x82  u8 status code, message bytes to end of frame
 *   Allocation    = 0x83  u64 market, u64 tick, u8 converged,
 *                         u16 m, m x f64 price,
 *                         u16 n, n x { u64 tenant, f64 budget,
 *                                      f64 lambda, m x f64 alloc }
 *   Stats         = 0x84  JSON bytes to end of frame
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "rebudget/util/status.h"

namespace rebudget::serve {

/** Hard cap on a frame's payload size (1 MiB). */
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/** Request opcodes (payload byte 0). */
enum class Opcode : std::uint8_t {
    CreateMarket = 0x01,
    SubmitDemand = 0x02,
    JoinTenant = 0x03,
    LeaveTenant = 0x04,
    GetAllocation = 0x05,
    GetStats = 0x06,
    Shutdown = 0x07,
    TickNow = 0x08,
};

/** Response opcodes (payload byte 0; high bit set). */
enum class ReplyOpcode : std::uint8_t {
    Ack = 0x81,
    Error = 0x82,
    Allocation = 0x83,
    Stats = 0x84,
};

/** One founding tenant of a CreateMarket request. */
struct TenantSpec
{
    std::uint64_t tenant = 0;
    std::string app;
};

struct CreateMarket
{
    std::uint64_t market = 0;
    std::vector<TenantSpec> tenants;
};

struct SubmitDemand
{
    std::uint64_t market = 0;
    std::uint64_t tenant = 0;
    double weight = 1.0;
};

struct JoinTenant
{
    std::uint64_t market = 0;
    std::uint64_t tenant = 0;
    std::string app;
};

struct LeaveTenant
{
    std::uint64_t market = 0;
    std::uint64_t tenant = 0;
};

struct GetAllocation
{
    std::uint64_t market = 0;
};

struct GetStats
{
};

struct Shutdown
{
};

struct TickNow
{
};

using Request = std::variant<CreateMarket, SubmitDemand, JoinTenant,
                             LeaveTenant, GetAllocation, GetStats,
                             Shutdown, TickNow>;

struct AckReply
{
};

struct ErrorReply
{
    util::StatusCode code = util::StatusCode::InvalidArgument;
    std::string message;
};

/** One tenant's share of an Allocation reply. */
struct TenantAllocation
{
    std::uint64_t tenant = 0;
    double budget = 0.0;
    double lambda = 0.0;
    std::vector<double> alloc;
};

struct AllocationReply
{
    std::uint64_t market = 0;
    /** Epoch the allocation was solved on. */
    std::uint64_t tick = 0;
    bool converged = false;
    std::vector<double> prices;
    std::vector<TenantAllocation> players;
};

struct StatsReply
{
    std::string json;
};

using Response =
    std::variant<AckReply, ErrorReply, AllocationReply, StatsReply>;

/** The ErrorReply for a failed @p status: its code and message. */
inline ErrorReply
errorReply(const util::SolveStatus &status)
{
    return ErrorReply{status.code(), status.message()};
}

/** @return @p req's opcode: Request lists its alternatives in opcode
 * order, from 0x01. */
inline std::uint8_t
opcodeOf(const Request &req)
{
    return static_cast<std::uint8_t>(req.index() + 1);
}

/** @return true for the opcodes of the requests that change market
 * state -- CreateMarket, SubmitDemand, JoinTenant, LeaveTenant -- which
 * the op journal records, a replay trace may hold and the transport
 * hands to the shards. */
inline bool
mutates(std::uint8_t opcode)
{
    return opcode >= static_cast<std::uint8_t>(Opcode::CreateMarket) &&
           opcode <= static_cast<std::uint8_t>(Opcode::LeaveTenant);
}

inline bool
mutates(const Request &req)
{
    return mutates(opcodeOf(req));
}

/** Append a full frame (length prefix + payload) encoding @p req. */
void encodeRequest(const Request &req, std::vector<std::uint8_t> &out);

/**
 * Append only the frame payload (opcode + body, no length prefix)
 * encoding @p req.  This is the byte sequence decodeRequest() accepts,
 * the form ServerCore::submitFrame carries, and the form the op
 * journal persists (serve/persist.h) -- exposing it keeps the on-disk
 * journal byte-identical to the wire.
 */
void encodeRequestPayload(const Request &req,
                          std::vector<std::uint8_t> &out);

/** Append a full frame (length prefix + payload) encoding @p resp. */
void encodeResponse(const Response &resp, std::vector<std::uint8_t> &out);

/**
 * Decode one complete frame payload into a Request.  Errors (unknown
 * opcode, truncated body, trailing bytes, malformed string) come back
 * as InvalidArgument naming the defect; the caller answers with a typed
 * ErrorReply and keeps the connection (the frame boundary is intact).
 */
util::Expected<Request> decodeRequest(const std::uint8_t *payload,
                                      std::size_t size);

/** Decode one complete frame payload into a Response (client side). */
util::Expected<Response> decodeResponse(const std::uint8_t *payload,
                                        std::size_t size);

/**
 * Parse one text command: rebudgetctl's arguments, or the tokens of a
 * `rebudgetd --replay` trace line.
 *   create <market> <app1,app2,...>   founding tenants get ids 0..n-1
 *   demand <market> <tenant> <weight>
 *   join <market> <tenant> <app>
 *   leave <market> <tenant>
 *   get <market>
 *   stats | tick | shutdown
 * Numbers go through the strict util::parseUnsigned/parseDouble; a
 * defect comes back as InvalidArgument naming it.
 */
util::Expected<Request> parseCommand(const std::vector<std::string> &tokens);

/**
 * Incremental frame extractor for a byte stream.
 *
 * Feed raw socket bytes in, pull complete frame payloads out.  The only
 * unrecoverable condition is a declared payload length above
 * kMaxFramePayload: next() reports Error once and the reader stays in
 * the error state (the caller must drop the connection).  Everything
 * short of that -- partial length prefix, partial payload -- is
 * NeedMore.
 */
class FrameReader
{
  public:
    enum class Result {
        /** One complete payload was copied into `payload`. */
        Frame,
        /** The stream ends mid-frame; feed more bytes. */
        NeedMore,
        /** Framing is broken (oversized declared length); drop the
         * connection.  error() says why. */
        Error,
    };

    /** Append raw stream bytes. */
    void feed(const std::uint8_t *data, std::size_t size);

    /** Extract the next complete frame payload, if any. */
    Result next(std::vector<std::uint8_t> &payload);

    /** @return why framing broke (valid after next() == Error). */
    const std::string &error() const { return error_; }

    /**
     * @return true when buffered bytes form an incomplete frame -- an
     * EOF now is a mid-frame disconnect, which the server logs and
     * treats as a dropped connection (never a request).
     */
    bool midFrame() const { return !broken_ && !buffer_.empty(); }

  private:
    std::vector<std::uint8_t> buffer_;
    std::size_t consumed_ = 0;
    bool broken_ = false;
    std::string error_;
};

} // namespace rebudget::serve

#endif // REBUDGET_SERVE_PROTOCOL_H_

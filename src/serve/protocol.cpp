#include "rebudget/serve/protocol.h"

#include <algorithm>
#include <cstring>

#include "rebudget/serve/wire.h"

namespace rebudget::serve {

namespace {

using wire::ByteReader;
using wire::putF64;
using wire::putString;
using wire::putU16;
using wire::putU32;
using wire::putU64;
using wire::putU8;

void
frameOut(std::vector<std::uint8_t> &out,
         const std::vector<std::uint8_t> &payload)
{
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
}

util::SolveStatus
decodeError(const char *opcode, const ByteReader &r)
{
    return util::SolveStatus::error(
        util::StatusCode::InvalidArgument,
        "malformed %s request: truncated %s", opcode, r.what().c_str());
}

util::SolveStatus
trailingError(const char *opcode, std::size_t extra)
{
    return util::SolveStatus::error(
        util::StatusCode::InvalidArgument,
        "malformed %s request: %zu trailing byte(s)", opcode, extra);
}

} // namespace

void
encodeRequestPayload(const Request &req, std::vector<std::uint8_t> &p)
{
    if (const auto *create = std::get_if<CreateMarket>(&req)) {
        putU8(p, static_cast<std::uint8_t>(Opcode::CreateMarket));
        putU64(p, create->market);
        putU16(p, static_cast<std::uint16_t>(create->tenants.size()));
        for (const auto &t : create->tenants) {
            putU64(p, t.tenant);
            putString(p, t.app);
        }
    } else if (const auto *demand = std::get_if<SubmitDemand>(&req)) {
        putU8(p, static_cast<std::uint8_t>(Opcode::SubmitDemand));
        putU64(p, demand->market);
        putU64(p, demand->tenant);
        putF64(p, demand->weight);
    } else if (const auto *join = std::get_if<JoinTenant>(&req)) {
        putU8(p, static_cast<std::uint8_t>(Opcode::JoinTenant));
        putU64(p, join->market);
        putU64(p, join->tenant);
        putString(p, join->app);
    } else if (const auto *leave = std::get_if<LeaveTenant>(&req)) {
        putU8(p, static_cast<std::uint8_t>(Opcode::LeaveTenant));
        putU64(p, leave->market);
        putU64(p, leave->tenant);
    } else if (const auto *query = std::get_if<GetAllocation>(&req)) {
        putU8(p, static_cast<std::uint8_t>(Opcode::GetAllocation));
        putU64(p, query->market);
    } else if (std::get_if<GetStats>(&req)) {
        putU8(p, static_cast<std::uint8_t>(Opcode::GetStats));
    } else if (std::get_if<Shutdown>(&req)) {
        putU8(p, static_cast<std::uint8_t>(Opcode::Shutdown));
    } else {
        putU8(p, static_cast<std::uint8_t>(Opcode::TickNow));
    }
}

void
encodeRequest(const Request &req, std::vector<std::uint8_t> &out)
{
    std::vector<std::uint8_t> p;
    encodeRequestPayload(req, p);
    frameOut(out, p);
}

void
encodeResponse(const Response &resp, std::vector<std::uint8_t> &out)
{
    std::vector<std::uint8_t> p;
    if (std::get_if<AckReply>(&resp)) {
        putU8(p, static_cast<std::uint8_t>(ReplyOpcode::Ack));
    } else if (const auto *error = std::get_if<ErrorReply>(&resp)) {
        putU8(p, static_cast<std::uint8_t>(ReplyOpcode::Error));
        putU8(p, static_cast<std::uint8_t>(error->code));
        p.insert(p.end(), error->message.begin(), error->message.end());
    } else if (const auto *reply = std::get_if<AllocationReply>(&resp)) {
        putU8(p, static_cast<std::uint8_t>(ReplyOpcode::Allocation));
        putU64(p, reply->market);
        putU64(p, reply->tick);
        putU8(p, reply->converged ? 1 : 0);
        putU16(p, static_cast<std::uint16_t>(reply->prices.size()));
        for (const double price : reply->prices)
            putF64(p, price);
        putU16(p, static_cast<std::uint16_t>(reply->players.size()));
        for (const auto &t : reply->players) {
            putU64(p, t.tenant);
            putF64(p, t.budget);
            putF64(p, t.lambda);
            for (const double a : t.alloc)
                putF64(p, a);
        }
    } else {
        const auto &s = std::get<StatsReply>(resp);
        putU8(p, static_cast<std::uint8_t>(ReplyOpcode::Stats));
        p.insert(p.end(), s.json.begin(), s.json.end());
    }
    frameOut(out, p);
}

util::Expected<Request>
decodeRequest(const std::uint8_t *payload, std::size_t size)
{
    if (size == 0) {
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "empty frame payload");
    }
    ByteReader r(payload + 1, size - 1);
    const auto op = static_cast<Opcode>(payload[0]);
    Request req;
    const char *name = "";
    switch (op) {
    case Opcode::CreateMarket: {
        name = "CreateMarket";
        CreateMarket c;
        c.market = r.u64();
        const std::uint16_t n = r.u16();
        for (std::uint16_t i = 0; i < n && !r.failed(); ++i) {
            TenantSpec t;
            t.tenant = r.u64();
            t.app = r.str();
            c.tenants.push_back(std::move(t));
        }
        req = std::move(c);
        break;
    }
    case Opcode::SubmitDemand: {
        name = "SubmitDemand";
        SubmitDemand d;
        d.market = r.u64();
        d.tenant = r.u64();
        d.weight = r.f64();
        req = d;
        break;
    }
    case Opcode::JoinTenant: {
        name = "JoinTenant";
        JoinTenant j;
        j.market = r.u64();
        j.tenant = r.u64();
        j.app = r.str();
        req = std::move(j);
        break;
    }
    case Opcode::LeaveTenant: {
        name = "LeaveTenant";
        LeaveTenant l;
        l.market = r.u64();
        l.tenant = r.u64();
        req = l;
        break;
    }
    case Opcode::GetAllocation: {
        name = "GetAllocation";
        GetAllocation g;
        g.market = r.u64();
        req = g;
        break;
    }
    case Opcode::GetStats:
        name = "GetStats";
        req = GetStats{};
        break;
    case Opcode::Shutdown:
        name = "Shutdown";
        req = Shutdown{};
        break;
    case Opcode::TickNow:
        name = "TickNow";
        req = TickNow{};
        break;
    default:
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "unknown request opcode 0x%02x", payload[0]);
    }
    if (r.failed())
        return decodeError(name, r);
    if (r.remaining() != 0)
        return trailingError(name, r.remaining());
    return req;
}

util::Expected<Response>
decodeResponse(const std::uint8_t *payload, std::size_t size)
{
    if (size == 0) {
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "empty frame payload");
    }
    ByteReader r(payload + 1, size - 1);
    const auto op = static_cast<ReplyOpcode>(payload[0]);
    Response resp;
    switch (op) {
    case ReplyOpcode::Ack:
        resp = AckReply{};
        break;
    case ReplyOpcode::Error: {
        ErrorReply e;
        e.code = static_cast<util::StatusCode>(r.u8());
        e.message = r.rest();
        resp = std::move(e);
        break;
    }
    case ReplyOpcode::Allocation: {
        AllocationReply a;
        a.market = r.u64();
        a.tick = r.u64();
        a.converged = r.u8() != 0;
        const std::uint16_t m = r.u16();
        for (std::uint16_t j = 0; j < m && !r.failed(); ++j)
            a.prices.push_back(r.f64());
        const std::uint16_t n = r.u16();
        for (std::uint16_t i = 0; i < n && !r.failed(); ++i) {
            TenantAllocation t;
            t.tenant = r.u64();
            t.budget = r.f64();
            t.lambda = r.f64();
            for (std::uint16_t j = 0; j < m && !r.failed(); ++j)
                t.alloc.push_back(r.f64());
            a.players.push_back(std::move(t));
        }
        resp = std::move(a);
        break;
    }
    case ReplyOpcode::Stats: {
        StatsReply s;
        s.json = r.rest();
        resp = std::move(s);
        break;
    }
    default:
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "unknown response opcode 0x%02x", payload[0]);
    }
    if (r.failed()) {
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "malformed response: truncated %s",
                                        r.what().c_str());
    }
    if (r.remaining() != 0) {
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "malformed response: %zu trailing byte(s)", r.remaining());
    }
    return resp;
}

void
FrameReader::feed(const std::uint8_t *data, std::size_t size)
{
    if (broken_)
        return;
    // Shift out already-consumed bytes before appending so the buffer
    // stays proportional to one frame, not to connection lifetime.
    if (consumed_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

FrameReader::Result
FrameReader::next(std::vector<std::uint8_t> &payload)
{
    if (broken_)
        return Result::Error;
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < 4)
        return Result::NeedMore;
    const std::uint8_t *p = buffer_.data() + consumed_;
    const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                              static_cast<std::uint32_t>(p[1]) << 8 |
                              static_cast<std::uint32_t>(p[2]) << 16 |
                              static_cast<std::uint32_t>(p[3]) << 24;
    if (len > kMaxFramePayload) {
        broken_ = true;
        error_ = "declared frame payload of " + std::to_string(len) +
                 " bytes exceeds the " +
                 std::to_string(kMaxFramePayload) + "-byte cap";
        return Result::Error;
    }
    if (avail - 4 < len)
        return Result::NeedMore;
    payload.assign(p + 4, p + 4 + len);
    consumed_ += 4 + len;
    if (consumed_ == buffer_.size()) {
        buffer_.clear();
        consumed_ = 0;
    }
    return Result::Frame;
}

} // namespace rebudget::serve

#include "rebudget/serve/protocol.h"

#include <algorithm>
#include <cstring>

#include "rebudget/serve/wire.h"
#include "rebudget/util/arg_parse.h"

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

/** The verdict on a decoded @p message ("CreateMarket request",
 * "response"): truncated, trailing bytes, or Ok. */
util::SolveStatus
decodeStatus(const char *message, const ByteReader &r)
{
    if (r.failed())
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "malformed %s: truncated %s",
                                        message, r.what().c_str());
    if (r.remaining() != 0)
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "malformed %s: %zu trailing byte(s)", message, r.remaining());
    return {};
}

} // namespace

void
encodeRequestPayload(const Request &req, std::vector<std::uint8_t> &p)
{
    putU8(p, opcodeOf(req));
    if (const auto *create = std::get_if<CreateMarket>(&req)) {
        putU64(p, create->market);
        putU16(p, static_cast<std::uint16_t>(create->tenants.size()));
        for (const auto &t : create->tenants) {
            putU64(p, t.tenant);
            putString(p, t.app);
        }
    } else if (const auto *demand = std::get_if<SubmitDemand>(&req)) {
        putU64(p, demand->market);
        putU64(p, demand->tenant);
        putF64(p, demand->weight);
    } else if (const auto *join = std::get_if<JoinTenant>(&req)) {
        putU64(p, join->market);
        putU64(p, join->tenant);
        putString(p, join->app);
    } else if (const auto *leave = std::get_if<LeaveTenant>(&req)) {
        putU64(p, leave->market);
        putU64(p, leave->tenant);
    } else if (const auto *query = std::get_if<GetAllocation>(&req)) {
        putU64(p, query->market);
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
    static const char *const kNames[] = {
        "",
        "CreateMarket request",
        "SubmitDemand request",
        "JoinTenant request",
        "LeaveTenant request",
        "GetAllocation request",
        "GetStats request",
        "Shutdown request",
        "TickNow request"};
    if (size == 0) {
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "empty frame payload");
    }
    // Braced initializers read the fields in wire order.
    ByteReader r(payload + 1, size - 1);
    Request req;
    switch (static_cast<Opcode>(payload[0])) {
    case Opcode::CreateMarket: {
        CreateMarket c;
        c.market = r.u64();
        const std::uint16_t n = r.u16();
        for (std::uint16_t i = 0; i < n && !r.failed(); ++i)
            c.tenants.push_back(TenantSpec{r.u64(), r.str()});
        req = std::move(c);
        break;
    }
    case Opcode::SubmitDemand:
        req = SubmitDemand{r.u64(), r.u64(), r.f64()};
        break;
    case Opcode::JoinTenant:
        req = JoinTenant{r.u64(), r.u64(), r.str()};
        break;
    case Opcode::LeaveTenant:
        req = LeaveTenant{r.u64(), r.u64()};
        break;
    case Opcode::GetAllocation:
        req = GetAllocation{r.u64()};
        break;
    case Opcode::GetStats:
        req = GetStats{};
        break;
    case Opcode::Shutdown:
        req = Shutdown{};
        break;
    case Opcode::TickNow:
        req = TickNow{};
        break;
    default:
        return util::SolveStatus::error(
            util::StatusCode::InvalidArgument,
            "unknown request opcode 0x%02x", payload[0]);
    }
    const util::SolveStatus st = decodeStatus(kNames[payload[0]], r);
    if (!st.ok())
        return st;
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
    const util::SolveStatus st = decodeStatus("response", r);
    if (!st.ok())
        return st;
    return resp;
}

util::Expected<Request>
parseCommand(const std::vector<std::string> &tokens)
{
    static const struct
    {
        const char *name;
        std::size_t args;
        const char *usage;
    } kCommands[] = {
        {"create", 2, "create needs <market> <app1,app2,...>"},
        {"demand", 3, "demand needs <market> <tenant> <weight>"},
        {"join", 3, "join needs <market> <tenant> <app>"},
        {"leave", 2, "leave needs <market> <tenant>"},
        {"get", 1, "get needs <market>"},
        {"stats", 0, "stats takes no arguments"},
        {"tick", 0, "tick takes no arguments"},
        {"shutdown", 0, "shutdown takes no arguments"},
    };
    auto invalid = [](const std::string &what, const std::string &detail) {
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "%s: %s", what.c_str(),
                                        detail.c_str());
    };
    if (tokens.empty())
        return invalid("missing command", "expected one of create, demand,"
                                          " join, leave, get, stats, tick,"
                                          " shutdown");
    const std::string &cmd = tokens[0];
    const auto *shape = std::find_if(
        std::begin(kCommands), std::end(kCommands),
        [&](const auto &c) { return cmd == c.name; });
    if (shape == std::end(kCommands))
        return invalid("unknown command", cmd);
    if (tokens.size() != shape->args + 1)
        return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                        "%s", shape->usage);
    if (cmd == "stats")
        return Request{GetStats{}};
    if (cmd == "tick")
        return Request{TickNow{}};
    if (cmd == "shutdown")
        return Request{Shutdown{}};

    const auto market = util::parseUnsigned(tokens[1]);
    if (!market.ok())
        return invalid("bad market id", market.status().message());
    if (cmd == "get")
        return Request{GetAllocation{market.value()}};
    if (cmd == "create") {
        CreateMarket req;
        req.market = market.value();
        const std::string &list = tokens[2];
        for (std::size_t start = 0;;) {
            const std::size_t comma = std::min(list.find(',', start),
                                               list.size());
            if (comma == start)
                return invalid("empty app name in list", list);
            req.tenants.push_back(
                {req.tenants.size(), list.substr(start, comma - start)});
            if (comma == list.size())
                break;
            start = comma + 1;
        }
        return Request{std::move(req)};
    }
    const auto tenant = util::parseUnsigned(tokens[2]);
    if (!tenant.ok())
        return invalid("bad tenant id", tenant.status().message());
    if (cmd == "leave")
        return Request{LeaveTenant{market.value(), tenant.value()}};
    if (cmd == "join")
        return Request{
            JoinTenant{market.value(), tenant.value(), tokens[3]}};
    const auto weight = util::parseDouble(tokens[3]);
    if (!weight.ok())
        return invalid("bad weight", weight.status().message());
    return Request{
        SubmitDemand{market.value(), tenant.value(), weight.value()}};
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

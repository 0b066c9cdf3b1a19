#include "rebudget/serve/server_core.h"

#include <sstream>
#include <utility>

#include "rebudget/util/arg_parse.h"
#include "rebudget/util/rng.h"

namespace rebudget::serve {

ServerCore::ServerCore(const ServeConfig &config)
    : config_(config), pool_(config.jobs)
{
    if (config_.shards == 0)
        config_.shards = 1;
    shards_.reserve(config_.shards);
    queues_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
        shards_.push_back(std::make_unique<Shard>(s, config_));
        queues_.push_back(std::make_unique<ShardQueue>());
    }
}

std::size_t
ServerCore::shardOf(std::uint64_t market) const
{
    return static_cast<std::size_t>(util::mix64(market) %
                                    shards_.size());
}

Response
ServerCore::apply(const Request &req)
{
    if (std::holds_alternative<GetStats>(req))
        return StatsReply{statsJson()};
    if (std::holds_alternative<Shutdown>(req))
        return AckReply{}; // the transport layer stops the loop
    if (std::holds_alternative<TickNow>(req)) {
        tick();
        return AckReply{};
    }
    const std::uint64_t market = std::visit(
        [](const auto &r) -> std::uint64_t {
            if constexpr (requires { r.market; })
                return r.market;
            else
                return 0;
        },
        req);
    return applyWriteAhead(shardOf(market), req, nullptr);
}

Response
ServerCore::applyWriteAhead(std::size_t shard, const Request &req,
                            const std::vector<std::uint8_t> *payload)
{
    if (!mutates(req) || journal_ == nullptr)
        return shards_[shard]->apply(req);
    std::vector<std::uint8_t> encoded;
    if (payload == nullptr) {
        encodeRequestPayload(req, encoded);
        payload = &encoded;
    }
    journal_->journalOp(shard, payload->data(), payload->size());
    Response resp = shards_[shard]->apply(req);
    journal_->opApplied(shard);
    return resp;
}

void
ServerCore::tick()
{
    epoch_ += 1;
    const std::uint64_t epoch = epoch_;
    pool_.parallelFor(shards_.size(), [&](std::size_t s) {
        shards_[s]->tick(epoch);
    });
}

void
ServerCore::tickAsync(std::function<void()> done)
{
    epoch_ += 1;
    const std::uint64_t epoch = epoch_;
    auto remaining =
        std::make_shared<std::atomic<std::size_t>>(shards_.size());
    auto finish = std::make_shared<std::function<void()>>(std::move(done));
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        pool_.submit([this, s, epoch, remaining, finish] {
            shards_[s]->tick(epoch);
            if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1 &&
                *finish)
                (*finish)();
        });
    }
}

void
ServerCore::submitFrame(std::uint64_t market,
                        std::vector<std::uint8_t> &&payload,
                        std::uint64_t conn, std::uint64_t seq)
{
    const std::size_t s = shardOf(market);
    ShardQueue &q = *queues_[s];
    pendingOps_.fetch_add(1, std::memory_order_relaxed);
    bool schedule = false;
    {
        const std::lock_guard<std::mutex> lock(q.mutex);
        q.ops.push_back(PendingFrame{std::move(payload), conn, seq});
        if (!q.drainScheduled) {
            q.drainScheduled = true;
            schedule = true;
        }
    }
    if (schedule)
        pool_.submit([this, s] { drainQueue(s); });
}

void
ServerCore::drainQueue(std::size_t shard)
{
    ShardQueue &q = *queues_[shard];
    std::vector<PendingFrame> batch;
    std::vector<std::uint8_t> frame;
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(q.mutex);
            if (q.ops.empty()) {
                // Clearing the flag under the queue mutex closes the
                // lost-wakeup window: an enqueuer either saw the flag
                // set (and this loop will see its frame) or will see
                // it clear and schedule a fresh drain.
                q.drainScheduled = false;
                return;
            }
            batch.swap(q.ops);
        }
        for (PendingFrame &op : batch) {
            // The raw payload is the journal record, byte-identical to
            // the wire.
            const auto decoded =
                decodeRequest(op.payload.data(), op.payload.size());
            const Response resp =
                decoded.ok()
                    ? applyWriteAhead(shard, decoded.value(), &op.payload)
                    : Response{errorReply(decoded.status())};
            frame.clear();
            encodeResponse(resp, frame);
            // Decrement BEFORE the sink runs: a transport that sees
            // this op's reply must also see pendingOps() without it
            // (it gates "all writes drained" barriers on that).
            pendingOps_.fetch_sub(1, std::memory_order_release);
            if (sink_)
                sink_(op.conn, op.seq, std::move(frame));
            frame = {};
        }
        batch.clear();
    }
}

std::size_t
ServerCore::marketCount() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_)
        total += shard->marketCount();
    return total;
}

std::string
ServerCore::statsJson() const
{
    std::string out = "{\n";
    out += "  \"schema\": \"rebudget.serve_stats.v1\",\n";
    out += "  \"epoch\": " + std::to_string(epoch_) + ",\n";
    out += "  \"markets\": " + std::to_string(marketCount()) + ",\n";
    out += "  \"recovery\": {\n";
    out += std::string("    \"attempted\": ") +
           (recovery_.attempted ? "true" : "false") + ",\n";
    auto rfield = [&](const char *key, std::uint64_t v, bool last) {
        out += std::string("    \"") + key +
               "\": " + std::to_string(v) + (last ? "\n" : ",\n");
    };
    rfield("snapshots_loaded", recovery_.snapshotsLoaded, false);
    rfield("snapshots_corrupt", recovery_.snapshotsCorrupt, false);
    rfield("markets_restored", recovery_.marketsRestored, false);
    rfield("markets_skipped", recovery_.marketsSkipped, false);
    rfield("ops_replayed", recovery_.opsReplayed, false);
    rfield("ops_skipped", recovery_.opsSkipped, false);
    rfield("journal_torn_tails", recovery_.journalTornTails, true);
    out += "  },\n";
    out += "  \"shards\": [\n";
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const ShardCounters c = shards_[s]->counters();
        auto field = [&](const char *key, std::int64_t v) {
            out += std::string("      \"") + key +
                   "\": " + std::to_string(v) + ",\n";
        };
        out += "    {\n";
        out += "      \"shard\": " + std::to_string(s) + ",\n";
        out += "      \"markets\": " +
               std::to_string(shards_[s]->marketCount()) + ",\n";
        field("markets_created", c.marketsCreated);
        field("requests_applied", c.requestsApplied);
        field("requests_rejected", c.requestsRejected);
        field("ticks_run", c.ticksRun);
        field("steady_ticks", c.steadyTicks);
        field("steady_tick_allocs", c.steadyTickAllocs);
        field("warmup_tick_allocs", c.warmupTickAllocs);
        out += "      \"solver\": " +
               shards_[s]->solverStats().toJson(6) + "\n";
        out += s + 1 < shards_.size() ? "    },\n" : "    }\n";
    }
    out += "  ]\n";
    out += "}";
    return out;
}

std::uint64_t
ServerCore::digest() const
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    for (const auto &shard : shards_)
        h = shard->digest(h);
    return h;
}

namespace {

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        tokens.push_back(tok);
    return tokens;
}

util::SolveStatus
lineError(std::size_t lineno, const char *what, const std::string &detail)
{
    return util::SolveStatus::error(util::StatusCode::InvalidArgument,
                                    "replay line %zu: %s%s%s", lineno,
                                    what, detail.empty() ? "" : ": ",
                                    detail.c_str());
}

} // namespace

util::SolveStatus
runReplayTrace(ServerCore &core, std::istream &in)
{
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        lineno += 1;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const std::vector<std::string> tok = tokenize(line);
        if (tok.empty())
            continue;
        if (tok[0] == "tick") {
            if (tok.size() > 2)
                return lineError(lineno, "tick takes at most one count",
                                 "");
            std::uint64_t count = 1;
            if (tok.size() == 2) {
                const auto parsed =
                    util::parseUnsigned(tok[1], 1u << 20);
                if (!parsed.ok())
                    return lineError(lineno, "bad tick count",
                                     parsed.status().message());
                count = parsed.value();
            }
            for (std::uint64_t t = 0; t < count; ++t)
                core.tick();
            continue;
        }
        const auto req = parseCommand(tok);
        if (!req.ok())
            return lineError(lineno, req.status().message().c_str(), "");
        if (!mutates(req.value()))
            return lineError(lineno, "not a replay command", tok[0]);
        const Response resp = core.apply(req.value());
        if (const auto *err = std::get_if<ErrorReply>(&resp))
            return lineError(lineno, "request rejected", err->message);
    }
    return {};
}

} // namespace rebudget::serve

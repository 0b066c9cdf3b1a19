/**
 * @file
 * Table-driven corruption corpora for every decoder on the durability
 * path: snapshot files, journal files and the wire FrameReader are fed
 * deterministically damaged bytes (faults::damageBlob seeded via
 * util::Rng::forStream) and must answer with typed errors, torn-tail
 * prefixes or silent no-ops -- never a crash, never trusting a lying
 * length, never returning partially-decoded garbage as Ok.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "rebudget/faults/blob_damage.h"
#include "rebudget/serve/persist.h"
#include "rebudget/serve/protocol.h"
#include "rebudget/serve/server_core.h"
#include "rebudget/util/rng.h"

using namespace rebudget;
using namespace rebudget::serve;

namespace {

/** Seeds per (blob, damage-kind) cell; the corpus is 3 blobs x 4 kinds
 * x kSeeds damaged variants, all reproducible bit-for-bit. */
constexpr std::uint64_t kSeeds = 8;

/** A realistic snapshot blob: capture a live shard (roster + published
 * equilibrium + warm bids) through the production export path. */
std::vector<std::uint8_t>
publishedSnapshotBlob()
{
    ServeConfig config;
    config.shards = 1;
    config.jobs = 1;
    config.market.maxIterations = 200;
    ServerCore core(config);

    CreateMarket create;
    create.market = 5;
    create.tenants = {{0, "mcf"}, {1, "vpr"}, {2, "hmmer"}};
    EXPECT_TRUE(std::holds_alternative<AckReply>(core.apply(create)));
    EXPECT_TRUE(std::holds_alternative<AckReply>(
        core.apply(SubmitDemand{5, 1, 2.0})));
    core.tick();
    core.tick();

    std::vector<MarketState> markets;
    core.mutableShard(0).exportState(markets);
    std::vector<std::uint8_t> bytes;
    encodeSnapshot(0, core.epoch(), 17, markets, bytes);
    return bytes;
}

/** A roster-only snapshot blob (unpublished markets, no equilibrium). */
std::vector<std::uint8_t>
rosterSnapshotBlob()
{
    std::vector<MarketState> markets(2);
    markets[0].id = 1;
    markets[0].tenants = {{0, "mcf", 1.0}, {1, "vpr", 3.0}};
    markets[1].id = 2;
    markets[1].tenants = {{9, "milc", 0.5}};
    std::vector<std::uint8_t> bytes;
    encodeSnapshot(0, 3, 2, markets, bytes);
    return bytes;
}

/** An empty shard's snapshot (header + CRC, zero markets). */
std::vector<std::uint8_t>
emptySnapshotBlob()
{
    std::vector<std::uint8_t> bytes;
    encodeSnapshot(4, 0, 0, {}, bytes);
    return bytes;
}

struct SnapshotCase
{
    const char *label;
    std::vector<std::uint8_t> (*make)();
};

const SnapshotCase kSnapshotCases[] = {
    {"published", &publishedSnapshotBlob},
    {"roster", &rosterSnapshotBlob},
    {"empty", &emptySnapshotBlob},
};

/** The journal payload corpus: one of each mutating request kind. */
std::vector<std::vector<std::uint8_t>>
requestPayloads()
{
    CreateMarket create;
    create.market = 3;
    create.tenants = {{0, "mcf"}, {1, "vpr"}};
    const Request requests[] = {
        Request{create},
        Request{SubmitDemand{3, 0, 2.25}},
        Request{JoinTenant{3, 7, "gcc"}},
        Request{LeaveTenant{3, 1}},
    };
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const Request &req : requests) {
        std::vector<std::uint8_t> p;
        encodeRequestPayload(req, p);
        payloads.push_back(std::move(p));
    }
    return payloads;
}

} // namespace

TEST(DurabilityCorpus, DamagedSnapshotsDecodeTypedOrNotAtAll)
{
    for (const SnapshotCase &sc : kSnapshotCases) {
        const std::vector<std::uint8_t> clean = sc.make();
        SnapshotImage pristine;
        ASSERT_TRUE(
            decodeSnapshot(clean.data(), clean.size(), pristine).ok())
            << sc.label;

        for (const faults::BlobDamage kind : faults::kAllBlobDamage) {
            for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
                auto bytes = clean;
                util::Rng rng = util::Rng::forStream(
                    2016, {static_cast<std::uint64_t>(kind), seed});
                const std::size_t site = faults::damageBlob(
                    bytes, kind, rng, kSnapshotLenOffset);

                SnapshotImage img;
                const util::SolveStatus st =
                    decodeSnapshot(bytes.data(), bytes.size(), img);
                if (!st.ok()) {
                    // Typed rejection must say what broke.
                    EXPECT_FALSE(st.message().empty());
                    continue;
                }
                // Ok is only legal when the damage was a byte-level
                // no-op (e.g. ZeroRange over already-zero bytes): the
                // canonical re-encoding must reproduce the input
                // exactly, proving nothing corrupt was trusted.
                std::vector<std::uint8_t> reencoded;
                encodeSnapshot(img.shardIndex, img.epoch,
                               img.appliedSeq, img.markets, reencoded);
                EXPECT_EQ(reencoded, bytes)
                    << sc.label << "/" << faults::blobDamageName(kind)
                    << " seed " << seed << ": decode accepted damaged"
                    << " bytes (site " << site << ")";
            }
        }
    }
}

TEST(DurabilityCorpus, DamagedJournalsYieldCleanPrefixes)
{
    const auto payloads = requestPayloads();
    std::vector<std::uint8_t> clean;
    encodeJournalHeader(1, clean);
    // The first record's length field sits right after the 12-byte
    // header; LengthLie aims there.
    const std::size_t firstLenOffset = clean.size();
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        encodeJournalRecord(i + 1, payloads[i].data(),
                            payloads[i].size(), clean);
    }

    JournalImage pristine;
    ASSERT_TRUE(decodeJournal(clean.data(), clean.size(), pristine).ok());
    ASSERT_EQ(pristine.records.size(), payloads.size());
    EXPECT_FALSE(pristine.tornTail);

    for (const faults::BlobDamage kind : faults::kAllBlobDamage) {
        for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
            auto bytes = clean;
            util::Rng rng = util::Rng::forStream(
                7, {static_cast<std::uint64_t>(kind), seed});
            faults::damageBlob(bytes, kind, rng, firstLenOffset);

            JournalImage img;
            const util::SolveStatus st =
                decodeJournal(bytes.data(), bytes.size(), img);
            if (!st.ok()) {
                // Only a damaged header may reject the whole file.
                EXPECT_FALSE(st.message().empty());
                continue;
            }
            // Whatever survived must be a clean prefix of the original
            // records, byte for byte -- damage never conjures records
            // or reorders them.
            ASSERT_LE(img.records.size(), payloads.size())
                << faults::blobDamageName(kind) << " seed " << seed;
            for (std::size_t i = 0; i < img.records.size(); ++i) {
                EXPECT_EQ(img.records[i].seq, i + 1);
                EXPECT_EQ(img.records[i].payload, payloads[i])
                    << faults::blobDamageName(kind) << " seed " << seed
                    << " record " << i;
            }
            // A shorter journal usually reports the tear, but not
            // always: a truncation landing exactly on a record
            // boundary is indistinguishable from a journal that simply
            // held fewer records, so tornTail may legitimately be
            // false there.  The prefix property above is the contract.
        }
    }
}

TEST(DurabilityCorpus, DamagedFrameStreamsNeverCrashTheReader)
{
    // A stream of four well-formed frames...
    const auto payloads = requestPayloads();
    std::vector<std::uint8_t> clean;
    for (const auto &p : payloads) {
        Request req = decodeRequest(p.data(), p.size()).value();
        encodeRequest(req, clean);
    }

    // ...damaged and then fed in deterministically random-sized chunks.
    for (const faults::BlobDamage kind : faults::kAllBlobDamage) {
        for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
            auto bytes = clean;
            util::Rng rng = util::Rng::forStream(
                99, {static_cast<std::uint64_t>(kind), seed});
            faults::damageBlob(bytes, kind, rng, /*lengthOffset=*/0);

            FrameReader reader;
            std::vector<std::uint8_t> payload;
            std::size_t fed = 0;
            std::size_t frames = 0;
            bool broken = false;
            while (fed < bytes.size() && !broken) {
                const std::size_t chunk = std::min<std::size_t>(
                    1 + rng.next() % 7, bytes.size() - fed);
                reader.feed(bytes.data() + fed, chunk);
                fed += chunk;
                for (;;) {
                    const FrameReader::Result r = reader.next(payload);
                    if (r == FrameReader::Result::NeedMore)
                        break;
                    if (r == FrameReader::Result::Error) {
                        // Broken framing must come with a reason and
                        // must be sticky (the connection is dropped).
                        EXPECT_FALSE(reader.error().empty());
                        EXPECT_EQ(reader.next(payload),
                                  FrameReader::Result::Error);
                        broken = true;
                        break;
                    }
                    // Every extracted frame must decode to a typed
                    // result -- a Request or a named error, no crash.
                    ++frames;
                    const auto decoded =
                        decodeRequest(payload.data(), payload.size());
                    if (!decoded.ok()) {
                        EXPECT_FALSE(
                            decoded.status().message().empty());
                    }
                }
            }
            // Misframing can resynchronize on garbage and chop the
            // stream into more, shorter frames -- but every frame
            // costs at least its 4-byte length prefix, which bounds
            // the loop (no livelock on damaged input).
            EXPECT_LE(frames, bytes.size() / 4 + 1)
                << faults::blobDamageName(kind) << " seed " << seed;
        }
    }

    // Control: the pristine stream yields every frame, byte-exact.
    FrameReader reader;
    reader.feed(clean.data(), clean.size());
    std::vector<std::uint8_t> payload;
    for (const auto &expected : payloads) {
        ASSERT_EQ(reader.next(payload), FrameReader::Result::Frame);
        EXPECT_EQ(payload, expected);
    }
    EXPECT_EQ(reader.next(payload), FrameReader::Result::NeedMore);
    EXPECT_FALSE(reader.midFrame());
}

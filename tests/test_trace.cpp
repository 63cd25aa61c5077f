/**
 * @file
 * Tests for the record-once / replay-many subsystem (src/trace + the
 * rt/core replay front ends): the load-bearing property is that a
 * replayed limit study is *byte-identical* — as serialized report JSON —
 * to an interpreted one for every program shape and configuration, so a
 * sweep may freely interpret once and replay the remaining cells.  Also
 * covered: trace encode/decode round-trips, the serialized container's
 * malformed-blob taxonomy (everything is LP_IO), and the trace byte
 * budget (truncated recordings must fail replay, not silently report
 * from a partial stream).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "guard/budget.hpp"
#include "helpers.hpp"
#include "support/error.hpp"
#include "trace/format.hpp"
#include "trace/index.hpp"

namespace lp {
namespace {

using core::Loopapalooza;
using rt::ExecModel;
using rt::LPConfig;

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { guard::clearBudgetOverride(); }
    void TearDown() override { guard::clearBudgetOverride(); }
};

/** Every fixture shape the suite exercises elsewhere. */
std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>>
allShapes()
{
    std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>> out;
    out.emplace_back("saxpy", test::buildSaxpy(64));
    out.emplace_back("sum", test::buildSumReduction(64));
    out.emplace_back("chase", test::buildPointerChase(48));
    out.emplace_back("hist", test::buildHistogram(64, 8));
    out.emplace_back("calls",
                     test::buildLoopWithCalls(32,
                                              test::CalleeKind::Pure));
    out.emplace_back(
        "calls-inst",
        test::buildLoopWithCalls(32, test::CalleeKind::Instrumented));
    return out;
}

/** The grid the equivalence tests sweep: 3 models x ablations. */
std::vector<LPConfig>
configGrid()
{
    return {
        LPConfig::parse("reduc0-dep0-fn0", ExecModel::DoAll),
        LPConfig::parse("reduc1-dep0-fn2", ExecModel::DoAll),
        LPConfig::parse("reduc0-dep0-fn0", ExecModel::PartialDoAll),
        LPConfig::parse("reduc0-dep2-fn2", ExecModel::PartialDoAll),
        LPConfig::parse("reduc1-dep3-fn3", ExecModel::PartialDoAll),
        LPConfig::parse("reduc0-dep0-fn2", ExecModel::Helix),
        LPConfig::parse("reduc1-dep1-fn2", ExecModel::Helix),
        LPConfig::parse("reduc1-dep3-fn3", ExecModel::Helix),
    };
}

// ------------------------------------------- replay == interpret, bytes

TEST_F(TraceTest, ReplayReportsAreByteIdenticalAcrossTheGrid)
{
    const std::vector<LPConfig> grid = configGrid();
    for (auto &[name, mod] : allShapes()) {
        Loopapalooza lp(*mod);
        std::vector<rt::ProgramReport> replay = lp.runReplayBatched(grid);
        ASSERT_EQ(replay.size(), grid.size()) << name;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            std::string interp =
                lp.run(grid[i]).toJson(/*withObsSnapshot=*/false).dump(2);
            EXPECT_EQ(interp,
                      replay[i].toJson(/*withObsSnapshot=*/false).dump(2))
                << name << " under " << grid[i].str();
        }
    }
}

TEST_F(TraceTest, ReplayWithOracleIsByteIdentical)
{
    auto mod = test::buildSumReduction(64);
    Loopapalooza lp(*mod);
    const std::vector<LPConfig> grid = configGrid();
    rt::OracleCapture cap;
    std::vector<rt::ProgramReport> replay = lp.runReplayBatched(grid, cap);
    ASSERT_EQ(replay.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::string interp = lp.runWithOracle(grid[i])
                                 .toJson(/*withObsSnapshot=*/false)
                                 .dump(2);
        EXPECT_EQ(interp,
                  replay[i].toJson(/*withObsSnapshot=*/false).dump(2))
            << grid[i].str();
    }
}

// ----------------------------------------------------- trace round-trip

TEST_F(TraceTest, DecodeEncodeRoundTripIsPayloadStable)
{
    auto mod = test::buildHistogram(64, 8);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    ASSERT_FALSE(t.truncated);
    ASSERT_GT(t.events, 0u);

    std::vector<trace::Event> events = trace::decodeEvents(t);
    EXPECT_EQ(events.size(), t.events);
    trace::Trace reencoded =
        trace::encodeEvents(events, t.finalCost, t.numFunctions,
                            t.numBlocks);
    EXPECT_EQ(reencoded.payload, t.payload);
    EXPECT_EQ(reencoded, t);
}

TEST_F(TraceTest, SerializeDeserializeRoundTrip)
{
    auto mod = test::buildSaxpy(32);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();

    std::vector<std::uint8_t> blob = trace::serialize(t);
    trace::Trace back = trace::deserialize(blob.data(), blob.size());
    EXPECT_EQ(back, t);
    EXPECT_EQ(trace::serialize(back), blob);
}

TEST_F(TraceTest, TraceFingerprintMatchesTheModule)
{
    auto mod = test::buildSaxpy(32);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    EXPECT_EQ(t.numFunctions, lp.traceIndex().numFunctions());
    EXPECT_EQ(t.numBlocks, lp.traceIndex().numBlocks());
    EXPECT_EQ(t.payload.size() <= (1ULL << 30), true);
}

// ----------------------------------------------- malformed-blob taxonomy

TEST_F(TraceTest, DeserializeRejectsMalformedBlobs)
{
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    std::vector<std::uint8_t> blob = trace::serialize(lp.trace());

    // Too short to even hold the header.
    EXPECT_THROW(trace::deserialize(blob.data(), 8), IoError);

    // Bad magic.
    auto bad = blob;
    bad[0] ^= 0xff;
    EXPECT_THROW(trace::deserialize(bad.data(), bad.size()), IoError);

    // Unsupported version.
    bad = blob;
    bad[4] = 0x7f;
    EXPECT_THROW(trace::deserialize(bad.data(), bad.size()), IoError);

    // Payload shorter than the header promises.
    EXPECT_THROW(trace::deserialize(blob.data(), blob.size() - 1),
                 IoError);
}

TEST_F(TraceTest, DeserializeRejectsHandCraftedCorruptBlobs)
{
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    std::vector<std::uint8_t> blob = trace::serialize(lp.trace());
    ASSERT_GE(blob.size(), 56u); // v2: header + crcs + some payload

    // Each row damages one well-known region of the container; every
    // one must be rejected with LP_IO, never indexed out of bounds or
    // replayed as a wrong answer.
    struct Row
    {
        const char *what;
        std::size_t offset;
        std::uint8_t value; ///< byte written at offset
    };
    const std::size_t payloadStart = blob.size() - lp.trace().payload.size();
    const Row rows[] = {
        {"magic", 1, 0x00},
        {"version zero", 4, 0x00},
        {"version future", 4, 0x63},
        {"fingerprint functions", 8, 0xee},
        {"fingerprint blocks", 12, 0xee},
        {"event count low byte", 16, 0xee},
        {"event count high byte", 23, 0x80},
        {"final cost", 24, 0xee},
        {"payload length absurd", 38, 0x7f}, // claims ~2^55 bytes
        {"unknown flag bit", 43, 0x80},
        {"header crc", 44, 0x5a},
        {"chunk count", 48, 0x09},
        {"chunk crc", 52, 0x5a},
        {"payload first byte", payloadStart, 0x3f},
        {"payload last byte", blob.size() - 1, 0x91},
    };
    for (const Row &row : rows) {
        auto bad = blob;
        ASSERT_LT(row.offset, bad.size()) << row.what;
        if (bad[row.offset] == row.value)
            continue; // would be a no-op mutation
        bad[row.offset] = row.value;
        try {
            trace::deserialize(bad.data(), bad.size());
            FAIL() << row.what << ": corrupt blob was accepted";
        }
        catch (const IoError &e) {
            EXPECT_STREQ(e.codeName(), "LP_IO") << row.what;
        }
    }

    // Structural damage: truncation and garbage extension at every
    // interesting boundary.
    for (std::size_t size :
         {std::size_t(0), std::size_t(8), std::size_t(43),
          std::size_t(47), std::size_t(51), payloadStart,
          blob.size() - 1}) {
        EXPECT_THROW(trace::deserialize(blob.data(), size), IoError)
            << "truncated to " << size;
    }
    auto extended = blob;
    extended.push_back(0x00);
    EXPECT_THROW(trace::deserialize(extended.data(), extended.size()),
                 IoError);
}

TEST_F(TraceTest, EveryPossibleSingleByteCorruptionIsDetected)
{
    // The v2 checksums make this exhaustive check affordable: flip one
    // bit in EVERY byte of the container and require a categorized
    // rejection each time.  (A v1 blob could not pass this — payload
    // damage that keeps the stream decodable was accepted silently.)
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    std::vector<std::uint8_t> blob = trace::serialize(lp.trace());
    for (std::size_t i = 0; i < blob.size(); ++i) {
        auto bad = blob;
        bad[i] ^= 0x01;
        EXPECT_THROW(trace::deserialize(bad.data(), bad.size()), IoError)
            << "flipped bit 0 of byte " << i;
    }
}

TEST_F(TraceTest, VersionOneBlobsStayReadable)
{
    // Hand-build the v1 container (44-byte header, no checksums) for a
    // real payload: deserialize must still accept it, and re-serialize
    // it in the current (v2) format.
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();

    std::vector<std::uint8_t> v1;
    auto put32 = [&](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            v1.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto put64 = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            v1.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put32(0x5254504c); // "LPTR"
    put32(1);          // version
    put32(t.numFunctions);
    put32(t.numBlocks);
    put64(t.events);
    put64(t.finalCost);
    put64(t.payload.size());
    put32(0); // flags
    v1.insert(v1.end(), t.payload.begin(), t.payload.end());

    trace::Trace back = trace::deserialize(v1.data(), v1.size());
    EXPECT_EQ(back, t);
    EXPECT_EQ(trace::serialize(back), trace::serialize(t));

    // v1 blobs get the structural validation too: a decodable-but-
    // wrong event count must still be rejected.
    auto badCount = v1;
    badCount[16] ^= 0x01;
    EXPECT_THROW(trace::deserialize(badCount.data(), badCount.size()),
                 IoError);
    // ... as do unknown flag bits.
    auto badFlags = v1;
    badFlags[40] |= 0x02;
    EXPECT_THROW(trace::deserialize(badFlags.data(), badFlags.size()),
                 IoError);
}

TEST_F(TraceTest, DeserializeRejectsOutOfRangeIds)
{
    // A payload that decodes cleanly but names blocks/functions outside
    // the module fingerprint must be rejected at parse time, not crash
    // replay later.
    trace::Trace t = trace::encodeEvents(
        {{trace::EventKind::FuncEnter, 2, 0}}, /*finalCost=*/1,
        /*numFunctions=*/2, /*numBlocks=*/3);
    std::vector<std::uint8_t> blob = trace::serialize(t);
    EXPECT_THROW(trace::deserialize(blob.data(), blob.size()), IoError);

    trace::Trace t2 = trace::encodeEvents(
        {{trace::EventKind::FuncEnter, 0, 0},
         {trace::EventKind::BlockEnter, 3, 0}},
        1, 2, 3);
    std::vector<std::uint8_t> blob2 = trace::serialize(t2);
    EXPECT_THROW(trace::deserialize(blob2.data(), blob2.size()), IoError);

    // In-range ids with a correct event count parse fine.
    trace::Trace ok = trace::encodeEvents(
        {{trace::EventKind::FuncEnter, 1, 0},
         {trace::EventKind::BlockEnter, 2, 0},
         {trace::EventKind::FuncExit, 0, 0}},
        1, 2, 3);
    std::vector<std::uint8_t> blob3 = trace::serialize(ok);
    EXPECT_EQ(trace::deserialize(blob3.data(), blob3.size()), ok);
}

TEST_F(TraceTest, ReaderRejectsCorruptPayload)
{
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    ASSERT_GT(t.payload.size(), 4u);

    auto drain = [](const std::vector<std::uint8_t> &bytes) {
        trace::PayloadReader r(bytes.data(), bytes.size());
        trace::Event e;
        while (r.next(e)) {
        }
    };

    // Unknown event tag: must fail loudly, never skip.
    auto bad = t.payload;
    bad.push_back(0x3f);
    EXPECT_THROW(drain(bad), IoError);

    // Event tag whose operand varint is chopped off mid-stream.
    bad = t.payload;
    bad.push_back(static_cast<std::uint8_t>(trace::EventKind::Charge));
    EXPECT_THROW(drain(bad), IoError);
}

// ------------------------------------------------------ trace byte cap

TEST_F(TraceTest, TinyTraceBudgetTruncatesAndFailsReplay)
{
    guard::RunBudget b = guard::defaultBudget();
    b.maxTraceBytes = 64;
    guard::setBudgetOverride(b);

    auto mod = test::buildSaxpy(64);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    EXPECT_TRUE(t.truncated);
    EXPECT_LE(t.payload.size(), 64u + 16u); // cap plus one event slop

    const LPConfig cfg =
        LPConfig::parse("reduc0-dep0-fn0", ExecModel::DoAll);
    try {
        lp.runReplayBatched({cfg});
        FAIL() << "replaying a truncated trace must throw";
    }
    catch (const IoError &e) {
        EXPECT_STREQ(e.codeName(), "LP_IO");
    }
}

// -------------------------------------------------------- varint corner

TEST_F(TraceTest, ZigzagRoundTripsExtremes)
{
    for (std::int64_t v :
         {std::int64_t(0), std::int64_t(-1), std::int64_t(1),
          std::int64_t(INT64_MAX), std::int64_t(INT64_MIN)})
        EXPECT_EQ(trace::zigzagDecode(trace::zigzagEncode(v)), v);
}

} // namespace
} // namespace lp

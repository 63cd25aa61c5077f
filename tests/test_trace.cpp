/**
 * @file
 * Tests for the event trace (src/trace) and the core batch front ends:
 * a fused batch's limit study is *byte-identical* — as serialized
 * report JSON — to an interpreted one for every program shape and
 * configuration.  Also covered: payload encode/decode round-trips and
 * the payload reader's LP_IO on undecodable bytes.  The trace walker's
 * structural checks are tested in test_batch.cpp.
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
                lp.run(grid[i]).toJson().dump(2);
            EXPECT_EQ(interp,
                      replay[i].toJson().dump(2))
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
                                 .toJson()
                                 .dump(2);
        EXPECT_EQ(interp,
                  replay[i].toJson().dump(2))
            << grid[i].str();
    }
}

// ----------------------------------------------------- trace round-trip

TEST_F(TraceTest, DecodeEncodeRoundTripIsPayloadStable)
{
    auto mod = test::buildHistogram(64, 8);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    ASSERT_GT(t.events, 0u);

    std::vector<trace::Event> events = trace::decodeEvents(t);
    EXPECT_EQ(events.size(), t.events);
    trace::Trace reencoded =
        trace::encodeEvents(events, t.finalCost, t.numFunctions,
                            t.numBlocks);
    EXPECT_EQ(reencoded.payload, t.payload);
    EXPECT_EQ(reencoded, t);
}

TEST_F(TraceTest, TraceFingerprintMatchesTheModule)
{
    auto mod = test::buildSaxpy(32);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    EXPECT_EQ(t.numFunctions, lp.traceIndex().numFunctions());
    EXPECT_EQ(t.numBlocks, lp.traceIndex().numBlocks());
}

// ------------------------------------------------------ payload reader

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

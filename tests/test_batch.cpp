/**
 * @file
 * Tests for fused batches (src/rt/batch.* + the core front ends).  The
 * load-bearing property: one interpretation driving N configuration
 * lanes in a single SoA pass produces reports *byte-identical* — as
 * serialized JSON — to interpreting each configuration on its own (the
 * live LoopRuntime is the reference), with and without the consistency
 * oracle, for every program shape, every model, every ablation axis,
 * and every lane count including the 64-lane chunk boundary.  Also
 * covered: every stream the trace walker (src/trace/batch.*) rejects
 * raises LP_IO, and the sweep driver's batch path agrees with
 * interpret-every-cell byte for byte, --lint included.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/driver.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "fuzz/generator.hpp"
#include "guard/budget.hpp"
#include "helpers.hpp"
#include "support/error.hpp"
#include "trace/batch.hpp"
#include "trace/format.hpp"
#include "trace/index.hpp"

namespace lp {
namespace {

using core::Loopapalooza;
using rt::ExecModel;
using rt::LPConfig;

class BatchTest : public ::testing::Test
{
  protected:
    void SetUp() override { guard::clearBudgetOverride(); }
    void TearDown() override { guard::clearBudgetOverride(); }
};

/** Every fixture shape the trace tests exercise, plus the shuffled
 *  chase (unpredictable carried value — the predictor-heavy case). */
std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>>
allShapes()
{
    std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>> out;
    out.emplace_back("saxpy", test::buildSaxpy(64));
    out.emplace_back("sum", test::buildSumReduction(64));
    out.emplace_back("chase", test::buildPointerChase(48));
    out.emplace_back("chase-shuffled", test::buildPointerChaseShuffled(64));
    out.emplace_back("hist", test::buildHistogram(64, 8));
    out.emplace_back("calls",
                     test::buildLoopWithCalls(32,
                                              test::CalleeKind::Pure));
    out.emplace_back(
        "calls-inst",
        test::buildLoopWithCalls(32, test::CalleeKind::Instrumented));
    return out;
}

/** The full paper grid plus single-sync HELIX variants and PDOALL at
 *  non-default serialization thresholds — every model, every
 *  dep/reduc/fn axis, both DOACROSS synchronization modes, and both
 *  ends of the threshold ablation. */
std::vector<LPConfig>
fullGrid()
{
    std::vector<LPConfig> grid;
    for (const core::NamedConfig &named : core::paperConfigs())
        grid.push_back(named.config);
    LPConfig ss = LPConfig::parse("reduc0-dep1-fn2", ExecModel::Helix);
    ss.singleSyncDoacross = true;
    grid.push_back(ss);
    ss = LPConfig::parse("reduc1-dep1-fn2", ExecModel::Helix);
    ss.singleSyncDoacross = true;
    grid.push_back(ss);
    grid.push_back(LPConfig::parse("reduc0-dep2-fn2", ExecModel::Helix));
    grid.push_back(
        LPConfig::parse("reduc1-dep3-fn3", ExecModel::PartialDoAll));
    for (double threshold : {0.05, 1.0}) {
        LPConfig th = core::bestPdoall();
        th.pdoallSerialThreshold = threshold;
        grid.push_back(th);
    }
    return grid;
}

std::string
dump(const rt::ProgramReport &rep)
{
    return rep.toJson(/*withObsSnapshot=*/false).dump(2);
}

// ------------------------------------------------- batched == interpret

TEST_F(BatchTest, BatchedReplayIsByteIdenticalAcrossShapesAndGrid)
{
    const std::vector<LPConfig> grid = fullGrid();
    for (auto &[name, mod] : allShapes()) {
        Loopapalooza lp(*mod);
        std::vector<rt::ProgramReport> batched =
            lp.runReplayBatched(grid);
        rt::OracleCapture cap;
        std::vector<rt::ProgramReport> linted =
            lp.runReplayBatched(grid, cap);
        ASSERT_EQ(batched.size(), grid.size()) << name;
        ASSERT_EQ(linted.size(), grid.size()) << name;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            EXPECT_EQ(dump(batched[i]), dump(lp.run(grid[i])))
                << name << " lane " << i << " under " << grid[i].str();
            EXPECT_EQ(dump(linted[i]), dump(lp.runWithOracle(grid[i])))
                << name << " lane " << i << " with the oracle under "
                << grid[i].str();
        }
    }
}

TEST_F(BatchTest, BatchedReplayMatchesOnRandomPrograms)
{
    const std::vector<LPConfig> grid = fullGrid();
    for (std::uint64_t seed : {1u, 7u, 23u, 51u, 94u}) {
        auto mod = fuzz::generateProgram(seed);
        Loopapalooza lp(*mod);
        std::vector<rt::ProgramReport> batched =
            lp.runReplayBatched(grid);
        ASSERT_EQ(batched.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(dump(batched[i]), dump(lp.run(grid[i])))
                << "seed " << seed << " lane " << i << " under "
                << grid[i].str();
    }
}

TEST_F(BatchTest, SingleLaneBatchMatchesInterpret)
{
    auto mod = test::buildHistogram(64, 8);
    Loopapalooza lp(*mod);
    const LPConfig cfg =
        LPConfig::parse("reduc1-dep1-fn2", ExecModel::Helix);
    std::vector<rt::ProgramReport> batched = lp.runReplayBatched({cfg});
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(dump(batched[0]), dump(lp.run(cfg)));
}

TEST_F(BatchTest, ChunkBoundaryAt64LanesIsSeamless)
{
    // 5 x 20 = 100 lanes: the second chunk starts mid-repetition, so any
    // cross-chunk state leak (shared predictor, shadow pool, epoch
    // carry-over, oracle capture) would break a lane on one side of
    // the boundary.
    auto mod = test::buildPointerChaseShuffled(64);
    Loopapalooza lp(*mod);
    const std::vector<LPConfig> grid = fullGrid();
    std::vector<LPConfig> many;
    for (int rep = 0; rep < 5; ++rep)
        many.insert(many.end(), grid.begin(), grid.end());
    ASSERT_GT(many.size(), 64u);

    for (bool oracle : {false, true}) {
        rt::OracleCapture cap;
        std::vector<rt::ProgramReport> batched =
            oracle ? lp.runReplayBatched(many, cap)
                   : lp.runReplayBatched(many);
        ASSERT_EQ(batched.size(), many.size());
        std::vector<std::string> reference;
        for (const LPConfig &cfg : grid)
            reference.push_back(
                dump(oracle ? lp.runWithOracle(cfg) : lp.run(cfg)));
        for (std::size_t i = 0; i < many.size(); ++i)
            EXPECT_EQ(dump(batched[i]), reference[i % grid.size()])
                << "lane " << i << (oracle ? " with the oracle" : "");
        if (!oracle)
            continue;

        // One pass filled the capture: the evidence, and every lane's
        // oracle section, equal a one-lane batch's.
        rt::OracleCapture oneCap;
        const rt::ProgramReport one =
            lp.runReplayBatched({grid[0]}, oneCap).front();
        ASSERT_EQ(cap.watches().size(), oneCap.watches().size());
        ASSERT_GT(cap.watches().size(), 0u);
        for (unsigned w = 0; w < cap.watches().size(); ++w) {
            EXPECT_EQ(cap.stats(w).samples, oneCap.stats(w).samples);
            EXPECT_EQ(cap.stats(w).instances, oneCap.stats(w).instances);
        }
        const std::string oneOracle =
            one.toJson(/*withObsSnapshot=*/false).at("oracle").dump();
        for (std::size_t i = 0; i < many.size(); ++i)
            EXPECT_EQ(batched[i]
                          .toJson(/*withObsSnapshot=*/false)
                          .at("oracle")
                          .dump(),
                      oneOracle)
                << "lane " << i;
    }
}

TEST_F(BatchTest, EmptyConfigListYieldsNoReports)
{
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    EXPECT_TRUE(lp.runReplayBatched({}).empty());
}

// ------------------------------------------------------ error taxonomy

TEST_F(BatchTest, WalkerRejectsEveryStructuralDamage)
{
    // Once a payload decodes, trace::replayDispatch is its only
    // structural check.  Each row damages one event of a real trace and
    // re-encodes it under the module's own fingerprint and final cost;
    // the walk must then fail with LP_IO and the walker's message for
    // that damage.
    using trace::BatchDispatchTable;
    using trace::Event;
    using trace::EventKind;
    using Events = std::vector<Event>;

    auto instMod =
        test::buildLoopWithCalls(8, test::CalleeKind::Instrumented);
    auto extMod = test::buildLoopWithCalls(8, test::CalleeKind::UnsafeExt);
    Loopapalooza inst(*instMod);
    Loopapalooza ext(*extMod); // the fixture with call sites

    auto is = [](EventKind k) {
        return [k](const Event &e) { return e.kind == k; };
    };
    auto isBlock = [](const Event &e) {
        return e.kind == EventKind::BlockEnter ||
               e.kind == EventKind::BlockEnterHeader;
    };
    auto find = [](const Events &ev, auto pred) {
        for (std::size_t i = 0; i < ev.size(); ++i)
            if (pred(ev[i]))
                return i;
        throw std::logic_error("fixture lacks the event to damage");
    };
    // Size of the block running when ev[i] replays.
    auto sizeAt = [&](const Events &ev, std::size_t i,
                      const BatchDispatchTable &t) {
        std::vector<std::uint64_t> running;
        for (std::size_t k = 0; k < i; ++k) {
            if (ev[k].kind == EventKind::FuncEnter)
                running.push_back(0);
            else if (ev[k].kind == EventKind::FuncExit)
                running.pop_back();
            else if (isBlock(ev[k]))
                running.back() = ev[k].a;
        }
        return std::uint64_t{t.blocks.at(running.back()).size};
    };

    struct Row
    {
        const char *what;
        const Loopapalooza *lp;
        std::function<void(Events &, std::uint64_t &finalCost,
                           const BatchDispatchTable &)>
            damage;
        const char *message; ///< from the walker's throw
    };
    const Row rows[] = {
        {"function id out of range", &inst,
         [&](Events &ev, std::uint64_t &, const BatchDispatchTable &t) {
             ev[find(ev, is(EventKind::FuncEnter))].a = t.functions.size();
         },
         "trace refers to function id"},
        {"block id out of range", &inst,
         [&](Events &ev, std::uint64_t &, const BatchDispatchTable &t) {
             ev[find(ev, isBlock)].a = t.blocks.size();
         },
         "trace refers to block id"},
        {"block of another function", &inst,
         [&](Events &ev, std::uint64_t &, const BatchDispatchTable &t) {
             Event &e = ev[find(ev, isBlock)];
             std::uint64_t other = 0;
             while (t.blocks.at(other).fnId == t.blocks[e.a].fnId)
                 ++other;
             e.a = other;
         },
         "does not belong to the running function"},
        {"phi before any block", &inst,
         [&](Events &ev, std::uint64_t &, const BatchDispatchTable &) {
             ev.insert(ev.begin() + find(ev, is(EventKind::FuncEnter)) + 1,
                       {EventKind::Phi, 0, 0});
         },
         "trace phi event outside a block"},
        {"phi where the block has none", &inst,
         [&](Events &ev, std::uint64_t &, const BatchDispatchTable &t) {
             std::size_t i = find(ev, [&](const Event &e) {
                 return isBlock(e) &&
                        !t.instrs[t.blocks[e.a].firstInstr]->isPhi();
             });
             ev.insert(ev.begin() + i + 1, {EventKind::Phi, 0, 0});
         },
         "does not line up with the block's phis"},
        {"load or store offset past its block", &inst,
         [&](Events &ev, std::uint64_t &, const BatchDispatchTable &t) {
             std::size_t i = find(ev, [](const Event &e) {
                 return e.kind == EventKind::Load ||
                        e.kind == EventKind::Store;
             });
             ev[i].a = sizeAt(ev, i, t);
         },
         "trace memory event offset"},
        {"call-site offset past its block", &ext,
         [&](Events &ev, std::uint64_t &, const BatchDispatchTable &t) {
             std::size_t i = find(ev, is(EventKind::CallSite));
             ev[i].a = sizeAt(ev, i, t);
         },
         "trace call site offset"},
        {"function exit with no frame", &inst,
         [](Events &ev, std::uint64_t &, const BatchDispatchTable &) {
             ev.push_back({EventKind::FuncExit, 0, 0});
         },
         "function exit without a frame"},
        {"frames left open at the end", &inst,
         [](Events &ev, std::uint64_t &, const BatchDispatchTable &) {
             ASSERT_EQ(ev.back().kind, EventKind::FuncExit);
             ev.pop_back();
         },
         "function frames still open"},
        {"final cost off by one", &inst,
         [](Events &, std::uint64_t &finalCost,
            const BatchDispatchTable &) { finalCost += 1; },
         "replayed clock disagrees with the recording"},
    };

    /** Takes every resolved event and does nothing with it. */
    struct NoopSink
    {
        void onFuncEnter(const ir::Function *) {}
        void onFuncExit(std::uint64_t) {}
        void onBlockEnter(std::uint64_t, const BatchDispatchTable::BlockInfo &,
                          std::uint64_t, std::uint64_t, std::uint64_t)
        {
        }
        void onPhi(const ir::Instruction *, std::uint64_t) {}
        void onLoad(const ir::Instruction *, std::uint64_t, std::uint64_t)
        {
        }
        void onStore(const ir::Instruction *, std::uint64_t, std::uint64_t)
        {
        }
    };
    auto replay = [](const Loopapalooza &lp, const Events &ev,
                     std::uint64_t finalCost) {
        const trace::ModuleIndex &index = lp.traceIndex();
        NoopSink sink;
        trace::replayDispatch(
            lp.dispatchTable(),
            trace::encodeEvents(ev, finalCost, index.numFunctions(),
                                index.numBlocks()),
            sink);
    };
    // Undamaged, both re-encoded fixtures replay cleanly.
    for (const Loopapalooza *lp : {&inst, &ext})
        EXPECT_NO_THROW(replay(*lp, trace::decodeEvents(lp->trace()),
                               lp->trace().finalCost));

    for (const Row &row : rows) {
        Events ev = trace::decodeEvents(row.lp->trace());
        std::uint64_t finalCost = row.lp->trace().finalCost;
        row.damage(ev, finalCost, row.lp->dispatchTable());
        try {
            replay(*row.lp, ev, finalCost);
            ADD_FAILURE() << row.what << ": the damaged trace replayed";
        }
        catch (const IoError &e) {
            EXPECT_STREQ(e.codeName(), "LP_IO") << row.what;
            EXPECT_NE(std::string(e.what()).find(row.message),
                      std::string::npos)
                << row.what << ": " << e.what();
        }
    }
}

// -------------------------------------------------- dispatch table shape

TEST_F(BatchTest, DispatchTableCoversTheWholeModule)
{
    auto mod = test::buildHistogram(64, 8);
    Loopapalooza lp(*mod);
    const trace::BatchDispatchTable &table = lp.dispatchTable();
    EXPECT_EQ(table.functions.size(), lp.traceIndex().numFunctions());
    EXPECT_EQ(table.blocks.size(), lp.traceIndex().numBlocks());
    std::size_t instrs = 0;
    for (const auto &bi : table.blocks) {
        ASSERT_NE(bi.bb, nullptr);
        EXPECT_EQ(bi.size, bi.bb->instructions().size());
        instrs += bi.size;
    }
    EXPECT_EQ(table.instrs.size(), instrs);
    EXPECT_EQ(table.callCost.size(), instrs);
}

// --------------------------------------------- sweep-level batch path

TEST_F(BatchTest, SweepBatchPathMatchesInterpretByteForByte)
{
    auto sweepDoc = [&](bool replay, int lintMode) {
        std::vector<core::BenchProgram> progs;
        progs.push_back(
            {"saxpy", "unit", [] { return test::buildSaxpy(32); }});
        progs.push_back(
            {"hist", "unit", [] { return test::buildHistogram(48, 8); }});
        progs.push_back({"chase", "unit",
                         [] { return test::buildPointerChase(32); }});
        core::SweepRequest req;
        req.suite = "unit";
        req.wantJson = true;
        req.traceReplay = replay;
        req.lintMode = lintMode;
        core::SweepResult res = core::runSweep(progs, req);
        EXPECT_EQ(res.exitCode, 0);
        EXPECT_TRUE(res.hasDocument);
        return res.document.dump(2);
    };
    EXPECT_EQ(sweepDoc(true, 0), sweepDoc(false, 0));
    // --lint batches too: one oracle capture per batch, judged into
    // every lane, must reproduce the per-cell interpreted captures.
    EXPECT_EQ(sweepDoc(true, 1), sweepDoc(false, 1));
}

} // namespace
} // namespace lp

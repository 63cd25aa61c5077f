/**
 * @file
 * End-to-end tests of the limit-study pipeline: known programs, known
 * configurations, assert the speedups and classifications the paper's
 * model requires.
 */

#include <gtest/gtest.h>

#include "core/configs.hpp"
#include "core/driver.hpp"
#include "helpers.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

using core::Loopapalooza;
using rt::ExecModel;
using rt::LPConfig;
using rt::ProgramReport;
using rt::SerialReason;

LPConfig
cfg(const char *flags, ExecModel model)
{
    return LPConfig::parse(flags, model);
}

const rt::LoopReport *
findLoop(const ProgramReport &rep, const std::string &substr)
{
    for (const auto &lr : rep.loops)
        if (lr.label.find(substr) != std::string::npos)
            return &lr;
    return nullptr;
}

TEST(Pipeline, SaxpyIsDoallParallel)
{
    auto mod = test::buildSaxpy(2000);
    Loopapalooza lp(*mod);
    ProgramReport rep = lp.run(cfg("reduc0-dep0-fn0", ExecModel::DoAll));

    // All three loops are parallel with no conflicts: the program is
    // almost entirely loop time, so speedup is large.
    EXPECT_GT(rep.speedup(), 100.0);
    EXPECT_GT(rep.coverage, 0.95);
    for (const auto &lr : rep.loops) {
        EXPECT_EQ(lr.staticReason, SerialReason::None) << lr.label;
        EXPECT_EQ(lr.memConflicts, 0u) << lr.label;
        EXPECT_EQ(lr.serializedInstances, 0u) << lr.label;
    }
}

TEST(Pipeline, ParallelCostNeverExceedsSerial)
{
    for (const auto &named : core::paperConfigs()) {
        auto mod = test::buildHistogram(500, 64);
        Loopapalooza lp(*mod);
        ProgramReport rep = lp.run(named.config);
        EXPECT_LE(rep.parallelCost, rep.serialCost) << named.label;
        EXPECT_GE(rep.speedup(), 1.0) << named.label;
    }
}

TEST(Pipeline, ReductionGatedByReducFlag)
{
    auto mod = test::buildSumReduction(2000);
    Loopapalooza lp(*mod);

    ProgramReport r0 = lp.run(cfg("reduc0-dep0-fn0", ExecModel::DoAll));
    ProgramReport r1 = lp.run(cfg("reduc1-dep0-fn0", ExecModel::DoAll));

    const rt::LoopReport *sum0 = findLoop(r0, "j.hdr");
    const rt::LoopReport *sum1 = findLoop(r1, "j.hdr");
    ASSERT_NE(sum0, nullptr);
    ASSERT_NE(sum1, nullptr);
    // reduc0: the accumulator is a register LCD -> statically serial.
    EXPECT_EQ(sum0->staticReason, SerialReason::RegisterLcd);
    // reduc1: decoupled -> parallel.
    EXPECT_EQ(sum1->staticReason, SerialReason::None);
    EXPECT_GT(r1.speedup(), 2.0 * r0.speedup());
}

TEST(Pipeline, CensusClassifiesPhis)
{
    auto mod = test::buildSumReduction(500);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run(cfg("reduc1-dep0-fn0", ExecModel::PartialDoAll));
    EXPECT_EQ(rep.census.staticLoops, 2u);
    EXPECT_EQ(rep.census.canonicalLoops, 2u);
    EXPECT_EQ(rep.census.computableIvs, 2u); // the two IVs
    EXPECT_EQ(rep.census.reductions, 1u);    // acc
    EXPECT_EQ(rep.census.loopsWithCalls, 0u);
}

TEST(Pipeline, PdoallMatchesDoallWithoutConflicts)
{
    auto mod = test::buildSaxpy(1000);
    Loopapalooza lp(*mod);
    ProgramReport doall =
        lp.run(cfg("reduc0-dep0-fn0", ExecModel::DoAll));
    ProgramReport pdoall =
        lp.run(cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll));
    // Identical configurations: same costs for a conflict-free program
    // (the paper observes exactly this equality).
    EXPECT_EQ(doall.parallelCost, pdoall.parallelCost);
}

TEST(Pipeline, PredictablePointerChaseGatedByDepFlag)
{
    auto mod = test::buildPointerChase(2000);
    Loopapalooza lp(*mod);

    // dep0: the carried pointer forbids parallelization.
    ProgramReport d0 =
        lp.run(cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll));
    const rt::LoopReport *walk0 = findLoop(d0, "walk");
    ASSERT_NE(walk0, nullptr);
    EXPECT_EQ(walk0->staticReason, SerialReason::RegisterLcd);

    // dep2: the pointer advances with a constant stride -> predictable
    // -> the walk parallelizes.
    ProgramReport d2 =
        lp.run(cfg("reduc1-dep2-fn0", ExecModel::PartialDoAll));
    const rt::LoopReport *walk2 = findLoop(d2, "walk");
    ASSERT_NE(walk2, nullptr);
    EXPECT_EQ(walk2->staticReason, SerialReason::None);
    EXPECT_GT(walk2->speedup(), 20.0);
    EXPECT_GT(d2.speedup(), 1.5 * d0.speedup());

    // dep3 can only be better or equal.
    ProgramReport d3 =
        lp.run(cfg("reduc1-dep3-fn0", ExecModel::PartialDoAll));
    EXPECT_GE(d3.speedup(), 0.99 * d2.speedup());
}

TEST(Pipeline, ShuffledChaseIsLessPredictable)
{
    auto seq = test::buildPointerChase(2048);
    auto shuf = test::buildPointerChaseShuffled(2048);
    Loopapalooza lpSeq(*seq), lpShuf(*shuf);
    LPConfig c = cfg("reduc1-dep2-fn0", ExecModel::PartialDoAll);
    ProgramReport rSeq = lpSeq.run(c);
    ProgramReport rShuf = lpShuf.run(c);

    const rt::LoopReport *wSeq = findLoop(rSeq, "walk");
    const rt::LoopReport *wShuf = findLoop(rShuf, "walk");
    ASSERT_NE(wSeq, nullptr);
    ASSERT_NE(wShuf, nullptr);
    // The shuffled walk mispredicts materially more often.
    double missSeq = static_cast<double>(wSeq->regMispredicts) /
                     std::max<std::uint64_t>(wSeq->regPredictions, 1);
    double missShuf = static_cast<double>(wShuf->regMispredicts) /
                      std::max<std::uint64_t>(wShuf->regPredictions, 1);
    EXPECT_LT(missSeq, 0.05);
    EXPECT_GT(missShuf, 5 * missSeq + 0.05);
    EXPECT_GT(rSeq.speedup(), rShuf.speedup());
}

TEST(Pipeline, HelixSynchronizesPointerChase)
{
    auto mod = test::buildPointerChase(2000);
    Loopapalooza lp(*mod);
    // dep1 HELIX: the carried pointer is lowered to memory and served by
    // synchronization; the next-pointer loads early, so delta is small
    // and the walk parallelizes without any speculation.
    ProgramReport rep = lp.run(cfg("reduc1-dep1-fn2", ExecModel::Helix));
    const rt::LoopReport *walk = findLoop(rep, "walk");
    ASSERT_NE(walk, nullptr);
    EXPECT_EQ(walk->staticReason, SerialReason::None);
    EXPECT_GT(walk->speedup(), 2.0);
    EXPECT_EQ(walk->serializedInstances, 0u);

    // dep0 HELIX cannot pass register values between iterations.
    ProgramReport rep0 = lp.run(cfg("reduc1-dep0-fn2", ExecModel::Helix));
    const rt::LoopReport *walk0 = findLoop(rep0, "walk");
    ASSERT_NE(walk0, nullptr);
    EXPECT_EQ(walk0->staticReason, SerialReason::RegisterLcd);
}

TEST(Pipeline, HistogramConflictDensityDrivesPdoall)
{
    // Sparse histogram: few collisions -> PDOALL keeps most parallelism.
    auto sparse = test::buildHistogram(400, 4096);
    Loopapalooza lpSparse(*sparse);
    ProgramReport rs =
        lpSparse.run(cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll));
    const rt::LoopReport *ls = findLoop(rs, "i.hdr");
    ASSERT_NE(ls, nullptr);
    EXPECT_EQ(ls->staticReason, SerialReason::None);
    EXPECT_GT(ls->speedup(), 3.0);

    // Dense histogram: nearly every iteration conflicts -> the 80% rule
    // serializes the loop.
    auto dense = test::buildHistogram(400, 2);
    Loopapalooza lpDense(*dense);
    ProgramReport rd =
        lpDense.run(cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll));
    const rt::LoopReport *ld = findLoop(rd, "i.hdr");
    ASSERT_NE(ld, nullptr);
    EXPECT_GT(ld->serializedInstances, 0u);
    EXPECT_LT(rd.speedup(), 1.3);

    // HELIX handles the dense case through synchronization and does
    // better than PDOALL there.
    ProgramReport rh =
        lpDense.run(cfg("reduc0-dep0-fn2", ExecModel::Helix));
    EXPECT_GT(rh.speedup(), rd.speedup());
}

TEST(Pipeline, FnFlagsGateCalls)
{
    using test::CalleeKind;

    // Pure helper: serial under fn0, parallel from fn1 on.
    auto pure = test::buildLoopWithCalls(600, CalleeKind::Pure);
    Loopapalooza lpPure(*pure);
    ProgramReport f0 =
        lpPure.run(cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll));
    ProgramReport f1 =
        lpPure.run(cfg("reduc0-dep0-fn1", ExecModel::PartialDoAll));
    const rt::LoopReport *l0 = findLoop(f0, "main.i.hdr");
    const rt::LoopReport *l1 = findLoop(f1, "main.i.hdr");
    ASSERT_NE(l0, nullptr);
    ASSERT_NE(l1, nullptr);
    EXPECT_EQ(l0->staticReason, SerialReason::CallPolicy);
    EXPECT_EQ(l1->staticReason, SerialReason::None);
    EXPECT_GT(f1.speedup(), f0.speedup());

    // Helper that writes memory: fn1 rejects, fn2 instruments it.
    auto instr = test::buildLoopWithCalls(600, CalleeKind::Instrumented);
    Loopapalooza lpInstr(*instr);
    ProgramReport g1 =
        lpInstr.run(cfg("reduc0-dep0-fn1", ExecModel::PartialDoAll));
    ProgramReport g2 =
        lpInstr.run(cfg("reduc0-dep0-fn2", ExecModel::PartialDoAll));
    EXPECT_EQ(findLoop(g1, "main.i.hdr")->staticReason,
              SerialReason::CallPolicy);
    EXPECT_EQ(findLoop(g2, "main.i.hdr")->staticReason,
              SerialReason::None);
    // The helper writes disjoint out[] slots: no conflicts, full win.
    EXPECT_EQ(findLoop(g2, "main.i.hdr")->memConflicts, 0u);
    EXPECT_GT(g2.speedup(), g1.speedup());

    // Helper calling rand(): fn2 rejects, fn3 admits.
    auto unsafe = test::buildLoopWithCalls(600, CalleeKind::UnsafeExt);
    Loopapalooza lpUnsafe(*unsafe);
    ProgramReport h2 =
        lpUnsafe.run(cfg("reduc0-dep0-fn2", ExecModel::PartialDoAll));
    ProgramReport h3 =
        lpUnsafe.run(cfg("reduc0-dep0-fn3", ExecModel::PartialDoAll));
    EXPECT_EQ(findLoop(h2, "main.i.hdr")->staticReason,
              SerialReason::CallPolicy);
    EXPECT_EQ(findLoop(h3, "main.i.hdr")->staticReason,
              SerialReason::None);
    EXPECT_GT(h3.speedup(), h2.speedup());
}

TEST(Pipeline, DoallRejectsDepRelaxations)
{
    EXPECT_THROW(cfg("reduc0-dep2-fn0", ExecModel::DoAll), FatalError);
    EXPECT_THROW(cfg("reduc0-dep1-fn0", ExecModel::DoAll), FatalError);
    EXPECT_NO_THROW(cfg("reduc1-dep0-fn3", ExecModel::DoAll));
}

TEST(Pipeline, ReportsAreDeterministic)
{
    auto m1 = test::buildHistogram(300, 32);
    auto m2 = test::buildHistogram(300, 32);
    Loopapalooza a(*m1), b(*m2);
    LPConfig c = cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll);
    ProgramReport ra = a.run(c);
    ProgramReport rb = b.run(c);
    EXPECT_EQ(ra.serialCost, rb.serialCost);
    EXPECT_EQ(ra.parallelCost, rb.parallelCost);
    EXPECT_EQ(ra.coverage, rb.coverage);
}

TEST(Pipeline, RerunOnSameDriverIsIndependent)
{
    auto mod = test::buildSaxpy(500);
    Loopapalooza lp(*mod);
    LPConfig c = cfg("reduc0-dep0-fn0", ExecModel::DoAll);
    ProgramReport r1 = lp.run(c);
    ProgramReport r2 = lp.run(c);
    EXPECT_EQ(r1.serialCost, r2.serialCost);
    EXPECT_EQ(r1.parallelCost, r2.parallelCost);
}

TEST(Pipeline, ReportJsonRoundTripsCensusAndPerLoopNumbers)
{
    auto mod = test::buildSumReduction(2000);
    Loopapalooza lp(*mod);
    ProgramReport rep = lp.run(cfg("reduc0-dep2-fn0", ExecModel::Helix));

    std::string err;
    obs::Json json = obs::Json::parse(rep.toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    // Top-level numbers match the in-memory report exactly.
    EXPECT_EQ(json.at("program").asString(), rep.program);
    EXPECT_EQ(json.at("config").at("label").asString(),
              rep.config.str());
    EXPECT_EQ(json.at("serial_cost").asU64(), rep.serialCost);
    EXPECT_EQ(json.at("parallel_cost").asU64(), rep.parallelCost);
    EXPECT_DOUBLE_EQ(json.at("speedup").asDouble(), rep.speedup());
    EXPECT_DOUBLE_EQ(json.at("coverage").asDouble(), rep.coverage);

    // Census round-trips field by field.
    const obs::Json &census = json.at("census");
    EXPECT_EQ(census.at("static_loops").asU64(),
              rep.census.staticLoops);
    EXPECT_EQ(census.at("canonical_loops").asU64(),
              rep.census.canonicalLoops);
    EXPECT_EQ(census.at("computable_ivs").asU64(),
              rep.census.computableIvs);
    EXPECT_EQ(census.at("reductions").asU64(), rep.census.reductions);
    EXPECT_EQ(census.at("predictable_reg_lcds").asU64(),
              rep.census.predictableRegLcds);
    EXPECT_EQ(census.at("unpredictable_reg_lcds").asU64(),
              rep.census.unpredictableRegLcds);
    EXPECT_EQ(census.at("loops_with_calls").asU64(),
              rep.census.loopsWithCalls);

    // Per-loop reports, in the same order with the same numbers.
    ASSERT_EQ(json.at("loops").size(), rep.loops.size());
    for (std::size_t i = 0; i < rep.loops.size(); ++i) {
        const obs::Json &l = json.at("loops").at(i);
        const rt::LoopReport &lr = rep.loops[i];
        EXPECT_EQ(l.at("label").asString(), lr.label);
        EXPECT_EQ(l.at("depth").asU64(), lr.depth);
        EXPECT_EQ(l.at("instances").asU64(), lr.instances);
        EXPECT_EQ(l.at("iterations").asU64(), lr.iterations);
        EXPECT_EQ(l.at("serial_cost").asU64(), lr.serialCost);
        EXPECT_EQ(l.at("parallel_cost").asU64(), lr.parallelCost);
        EXPECT_EQ(l.at("mem_conflicts").asU64(), lr.memConflicts);
        EXPECT_DOUBLE_EQ(l.at("speedup").asDouble(), lr.speedup());
    }

    // The export is the report alone: no process-wide metrics or
    // phase-timing snapshot (run_study adds those when metrics are on).
    EXPECT_FALSE(json.contains("metrics"));
    EXPECT_FALSE(json.contains("phases"));
}

} // namespace
} // namespace lp

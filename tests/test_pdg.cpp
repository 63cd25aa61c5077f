/**
 * @file
 * Tests for the per-loop program-dependence graph, the SCC
 * condensation, and the static parallelism verdict lattice.
 */

#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "analysis/analyses.hpp"
#include "analysis/scc.hpp"
#include "helpers.hpp"
#include "interp/stdlib.hpp"
#include "ir/parser.hpp"
#include "lint/engine.hpp"
#include "obs/log.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

using analysis::DepEdge;
using analysis::DepKind;
using analysis::LoopPdg;
using analysis::VerdictKind;

class PdgTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::setLogLevel(obs::Level::Error); }
};

// ------------------------------------------------------------------ scc

TEST_F(PdgTest, SccCondensationFindsCyclesAndTopoOrder)
{
    // 0 -> 1 -> 2 -> 0 (cycle), 1 -> 3, 3 -> 4, 4 -> 3 (cycle),
    // 5 isolated, 6 -> 6 (self loop).
    std::vector<std::vector<unsigned>> succ(7);
    succ[0] = {1};
    succ[1] = {2, 3};
    succ[2] = {0};
    succ[3] = {4};
    succ[4] = {3};
    succ[6] = {6};
    analysis::SccGraph g(succ);

    EXPECT_EQ(g.numNodes(), 7u);
    EXPECT_EQ(g.numSccs(), 4u);
    EXPECT_EQ(g.sccOf(0), g.sccOf(1));
    EXPECT_EQ(g.sccOf(0), g.sccOf(2));
    EXPECT_EQ(g.sccOf(3), g.sccOf(4));
    EXPECT_NE(g.sccOf(0), g.sccOf(3));
    EXPECT_TRUE(g.hasCycle(g.sccOf(0)));
    EXPECT_TRUE(g.hasCycle(g.sccOf(3)));
    EXPECT_FALSE(g.hasCycle(g.sccOf(5)));
    EXPECT_TRUE(g.hasCycle(g.sccOf(6))); // self loop

    // Condensation-DAG edges always go from lower to higher SCC id.
    EXPECT_LT(g.sccOf(0), g.sccOf(3));
    for (unsigned s = 0; s < g.numSccs(); ++s)
        for (unsigned t : g.dagSuccessors(s))
            EXPECT_LT(s, t);

    // Members are recorded exactly once each.
    unsigned total = 0;
    for (unsigned s = 0; s < g.numSccs(); ++s)
        total += static_cast<unsigned>(g.members(s).size());
    EXPECT_EQ(total, 7u);
}

TEST_F(PdgTest, SccHandlesEmptyAndDeepGraphs)
{
    analysis::SccGraph empty({});
    EXPECT_EQ(empty.numSccs(), 0u);

    // A 10k-node chain must not blow the stack (iterative Tarjan).
    std::vector<std::vector<unsigned>> chain(10000);
    for (unsigned i = 0; i + 1 < chain.size(); ++i)
        chain[i] = {i + 1};
    analysis::SccGraph g(chain);
    EXPECT_EQ(g.numSccs(), 10000u);
}

// ------------------------------------------------- per-loop PDG fixture

/** A module's analysis bundle, viewed through one function's PDGs. */
struct PdgBundle
{
    analysis::ModuleAnalyses analyses;
    const std::vector<std::unique_ptr<LoopPdg>> &pdgs;

    PdgBundle(const ir::Module &m, const ir::Function &f)
        : analyses(m), pdgs(test::analysesOf(analyses, f).pdgs())
    {
    }

    /** The PDG of the loop whose header block is named @p header. */
    const LoopPdg &
    byHeader(const std::string &header) const
    {
        for (const auto &p : pdgs)
            if (p->loop()->header()->name() == header)
                return *p;
        throw std::runtime_error("no loop with header " + header);
    }
};

unsigned
countEdges(const LoopPdg &pdg, DepKind kind, bool carried, bool may)
{
    unsigned n = 0;
    for (const DepEdge &e : pdg.edges())
        if (e.kind == kind && e.carried == carried && e.may == may)
            ++n;
    return n;
}

// ------------------------------------------------------------- verdicts

TEST_F(PdgTest, DisjointStridedLoopIsDoAll)
{
    // b[i] = a[i] * 3 over distinct globals: no doomed edges at all.
    ir::Module mod("doall");
    ir::IRBuilder b(mod);
    auto *ga = mod.addGlobal("a", 64 * 8);
    auto *gb = mod.addGlobal("b", 64 * 8);
    b.createFunction("main", ir::Type::I64);
    ir::CountedLoop loop(b, b.i64(0), b.i64(64), b.i64(1), "i");
    auto *v = b.load(ir::Type::I64, b.elem(ga, loop.iv(), "lp"), "v");
    auto *v3 = b.mul(v, b.i64(3), "v3");
    b.store(v3, b.elem(gb, loop.iv(), "sp"));
    loop.finish();
    b.ret(b.i64(0));
    mod.finalize();

    PdgBundle bundle(mod, *mod.mainFunction());
    ASSERT_EQ(bundle.pdgs.size(), 1u);
    const LoopPdg &pdg = *bundle.pdgs[0];

    EXPECT_EQ(pdg.verdict().kind, VerdictKind::DoAll);
    EXPECT_TRUE(pdg.verdict().doomedEdges.empty());

    // The IV's carried register edge exists but is breakable.
    unsigned carriedReg = 0;
    for (const DepEdge &e : pdg.edges())
        if (e.kind == DepKind::Register && e.carried) {
            ++carriedReg;
            EXPECT_TRUE(e.breakable) << pdg.edgeStr(e);
        }
    EXPECT_EQ(carriedReg, 1u);
    // No cross-iteration memory edge: distinct identified objects.
    EXPECT_EQ(countEdges(pdg, DepKind::Memory, true, false), 0u);
    EXPECT_EQ(countEdges(pdg, DepKind::Memory, true, true), 0u);
    // The countable exit's carried control edges are all breakable.
    for (const DepEdge &e : pdg.edges()) {
        if (e.kind == DepKind::Control && e.carried) {
            EXPECT_TRUE(e.breakable) << pdg.edgeStr(e);
        }
    }

    // Header-phi classification: the IV is computable at depth 1.
    ASSERT_EQ(pdg.headerPhiInfo().size(), 1u);
    EXPECT_EQ(pdg.headerPhiInfo()[0].cls,
              analysis::PhiInfo::Cls::Computable);
    EXPECT_EQ(pdg.headerPhiInfo()[0].addrecDepth, 1u);
    EXPECT_NE(pdg.headerPhiInfo()[0].evolution, nullptr);
}

TEST_F(PdgTest, LoopCarriedArrayRecurrenceIsDoAcrossSync)
{
    // a[i] = a[i-1] + 1: one must memory RAW at distance 1.
    ir::Module mod("recur");
    ir::IRBuilder b(mod);
    auto *ga = mod.addGlobal("a", 64 * 8);
    b.createFunction("main", ir::Type::I64);
    ir::CountedLoop loop(b, b.i64(1), b.i64(64), b.i64(1), "i");
    auto *im1 = b.sub(loop.iv(), b.i64(1), "im1");
    auto *v = b.load(ir::Type::I64, b.elem(ga, im1, "lp"), "v");
    auto *v1 = b.add(v, b.i64(1), "v1");
    b.store(v1, b.elem(ga, loop.iv(), "sp"));
    loop.finish();
    b.ret(b.i64(0));
    mod.finalize();

    PdgBundle bundle(mod, *mod.mainFunction());
    const LoopPdg &pdg = *bundle.pdgs[0];

    EXPECT_EQ(pdg.verdict().kind, VerdictKind::DoAcrossSync);
    ASSERT_EQ(pdg.verdict().doomedEdges.size(), 1u);
    const DepEdge &doomed = pdg.edges()[pdg.verdict().doomedEdges[0]];
    EXPECT_EQ(doomed.kind, DepKind::Memory);
    EXPECT_TRUE(doomed.carried);
    EXPECT_FALSE(doomed.may);
    // Edge direction: the store feeds the next iteration's load.
    EXPECT_EQ(pdg.node(doomed.src)->opcode(), ir::Opcode::Store);
    EXPECT_EQ(pdg.node(doomed.dst)->opcode(), ir::Opcode::Load);
}

TEST_F(PdgTest, NonLinearRecurrenceIsDoAcrossSync)
{
    // x = x*x + 1: a register LCD no technique breaks, but a must
    // dependence — forwardable point-to-point.
    ir::Module mod("sq");
    ir::IRBuilder b(mod);
    b.createFunction("main", ir::Type::I64);
    ir::CountedLoop loop(b, b.i64(0), b.i64(32), b.i64(1), "i");
    auto *x = loop.addRecurrence(ir::Type::I64, b.i64(2), "x");
    auto *xx = b.mul(x, x, "xx");
    auto *xn = b.add(xx, b.i64(1), "xn");
    loop.setNext(x, xn);
    loop.finish();
    b.ret(b.i64(0));
    mod.finalize();

    PdgBundle bundle(mod, *mod.mainFunction());
    const LoopPdg &pdg = *bundle.pdgs[0];

    ASSERT_EQ(pdg.headerPhiInfo().size(), 2u); // iv + x
    EXPECT_EQ(pdg.headerPhiInfo()[1].cls, analysis::PhiInfo::Cls::Other);

    EXPECT_EQ(pdg.verdict().kind, VerdictKind::DoAcrossSync);
    for (unsigned ei : pdg.verdict().doomedEdges) {
        const DepEdge &e = pdg.edges()[ei];
        EXPECT_EQ(e.kind, DepKind::Register) << pdg.edgeStr(e);
        EXPECT_FALSE(e.may);
    }
}

TEST_F(PdgTest, PurePointerChaseIsSequential)
{
    // while (p) p = *p: the chase, the exit test and the branch are one
    // doomed SCC covering the whole body.
    ir::Module mod("chase");
    ir::IRBuilder b(mod);
    auto *arena = mod.addGlobal("arena", 128 * 8);
    b.createFunction("main", ir::Type::I64);
    ir::WhileLoop loop(b, "walk");
    auto *p = loop.addRecurrence(ir::Type::Ptr, arena, "p");
    loop.beginCond();
    auto *c = b.icmpNe(p, mod.constNullPtr(), "c");
    loop.beginBody(c);
    auto *next = b.load(ir::Type::Ptr, p, "next");
    loop.setNext(p, next);
    loop.finish();
    b.ret(b.i64(0));
    mod.finalize();

    PdgBundle bundle(mod, *mod.mainFunction());
    const LoopPdg &pdg = *bundle.pdgs[0];

    EXPECT_EQ(pdg.verdict().kind, VerdictKind::Sequential);
    // The carried control edges are doomed: the exit is not countable.
    bool doomedControl = false;
    for (unsigned ei : pdg.verdict().doomedEdges)
        if (pdg.edges()[ei].kind == DepKind::Control)
            doomedControl = true;
    EXPECT_TRUE(doomedControl);
}

TEST_F(PdgTest, PointerChaseWithSideWorkIsPipeline)
{
    // while (p) { sum += p[1]; p = *p; }: the chase SCC is doomed, the
    // reduction SCC is a parallel stage -> classic DSWP shape.
    ir::Module mod("chasework");
    ir::IRBuilder b(mod);
    auto *arena = mod.addGlobal("arena", 128 * 8);
    b.createFunction("main", ir::Type::I64);
    ir::WhileLoop loop(b, "walk");
    auto *p = loop.addRecurrence(ir::Type::Ptr, arena, "p");
    auto *sum = loop.addRecurrence(ir::Type::I64, b.i64(0), "sum");
    loop.beginCond();
    auto *c = b.icmpNe(p, mod.constNullPtr(), "c");
    loop.beginBody(c);
    auto *payload =
        b.load(ir::Type::I64, b.ptradd(p, b.i64(8), "pp"), "payload");
    auto *sumN = b.add(sum, payload, "sumn");
    auto *next = b.load(ir::Type::Ptr, p, "next");
    loop.setNext(p, next);
    loop.setNext(sum, sumN);
    loop.finish();
    b.ret(b.i64(0));
    mod.finalize();

    PdgBundle bundle(mod, *mod.mainFunction());
    const LoopPdg &pdg = *bundle.pdgs[0];

    // The sum phi is a recognized reduction; the chase phi is not.
    ASSERT_EQ(pdg.headerPhiInfo().size(), 2u);
    EXPECT_EQ(pdg.headerPhiInfo()[0].cls, analysis::PhiInfo::Cls::Other);
    EXPECT_EQ(pdg.headerPhiInfo()[1].cls,
              analysis::PhiInfo::Cls::Reduction);

    EXPECT_EQ(pdg.verdict().kind, VerdictKind::Pipeline);
    EXPECT_GE(pdg.verdict().sccCount, 2u);
    // At least one SCC is free of doomed edges (the parallel stage).
    bool freeStage = false;
    for (unsigned s = 0; s < pdg.condensation().numSccs(); ++s)
        if (!pdg.sccDoomed(s))
            freeStage = true;
    EXPECT_TRUE(freeStage);
}

TEST_F(PdgTest, InvariantAddressReadModifyWriteIsDoAcrossSync)
{
    // g[0] += i: every iteration reads and writes one fixed granule —
    // must carried dependences in both directions.
    ir::Module mod("inv");
    ir::IRBuilder b(mod);
    auto *g = mod.addGlobal("g", 8);
    b.createFunction("main", ir::Type::I64);
    ir::CountedLoop loop(b, b.i64(0), b.i64(16), b.i64(1), "i");
    auto *v = b.load(ir::Type::I64, g, "v");
    auto *vn = b.add(v, loop.iv(), "vn");
    b.store(vn, g);
    loop.finish();
    b.ret(b.i64(0));
    mod.finalize();

    PdgBundle bundle(mod, *mod.mainFunction());
    const LoopPdg &pdg = *bundle.pdgs[0];

    EXPECT_EQ(pdg.verdict().kind, VerdictKind::DoAcrossSync);
    // store->load, load->store, plus the store's own WAW self edge.
    EXPECT_EQ(countEdges(pdg, DepKind::Memory, true, false), 3u);
    EXPECT_EQ(countEdges(pdg, DepKind::Memory, false, false), 1u);
}

TEST_F(PdgTest, OpaqueIndexStoreMakesMayEdgesAndPipeline)
{
    // hist[h % n]++: the subscript defeats SCEV, so the RMW pair gets
    // may edges both ways and the loop drops out of DOALL/DOACROSS.
    auto mod = test::buildHistogram(256, 16);
    const ir::Function *fn = mod->findFunction("main");
    ASSERT_NE(fn, nullptr);
    PdgBundle bundle(*mod, *fn);

    const LoopPdg *hist = nullptr;
    for (const auto &p : bundle.pdgs) {
        unsigned mayCarried = 0;
        for (const DepEdge &e : p->edges())
            if (e.kind == DepKind::Memory && e.carried && e.may)
                ++mayCarried;
        if (mayCarried > 0)
            hist = p.get();
    }
    ASSERT_NE(hist, nullptr) << "no loop with may-carried memory edges";
    EXPECT_NE(hist->verdict().kind, VerdictKind::DoAll);
    EXPECT_NE(hist->verdict().kind, VerdictKind::DoAcrossSync);
    // Evidence names the store in at least one doomed may edge.
    bool namedStore = false;
    for (unsigned ei : hist->verdict().doomedEdges) {
        const DepEdge &e = hist->edges()[ei];
        if (e.may &&
            (hist->node(e.src)->opcode() == ir::Opcode::Store ||
             hist->node(e.dst)->opcode() == ir::Opcode::Store))
            namedStore = true;
    }
    EXPECT_TRUE(namedStore);
}

TEST_F(PdgTest, ImpureCallGetsConservativeMemoryEdges)
{
    // A loop calling an unsafe external: the call pairs with every
    // non-private access, forcing may edges.
    auto mod = test::buildLoopWithCalls(64, test::CalleeKind::UnsafeExt);
    const ir::Function *fn = mod->findFunction("main");
    ASSERT_NE(fn, nullptr);
    PdgBundle bundle(*mod, *fn);

    bool callMayEdge = false;
    for (const auto &p : bundle.pdgs)
        for (const DepEdge &e : p->edges()) {
            if (e.kind != DepKind::Memory || !e.may)
                continue;
            ir::Opcode so = p->node(e.src)->opcode();
            ir::Opcode dop = p->node(e.dst)->opcode();
            if (so == ir::Opcode::Call || so == ir::Opcode::CallExt ||
                dop == ir::Opcode::Call || dop == ir::Opcode::CallExt)
                callMayEdge = true;
        }
    EXPECT_TRUE(callMayEdge);
}

// ------------------------------------------------- module-level verdicts

TEST_F(PdgTest, SaxpyClassifiesEveryLoopDoAll)
{
    auto mod = test::buildSaxpy(64);
    const analysis::ModuleAnalyses analyses(*mod);
    const auto &verdicts = analyses.verdicts();
    ASSERT_FALSE(verdicts.empty());
    for (const auto &v : verdicts) {
        EXPECT_EQ(v.kind, VerdictKind::DoAll) << v.label;
        EXPECT_EQ(v.doomedEdges, 0u) << v.label;
        EXPECT_TRUE(v.evidence.empty()) << v.label;
    }
}

TEST_F(PdgTest, SumReductionStaysDoAllStatically)
{
    // The reduction's carried register edge is breakable (reduc1
    // decouples it), so the static verdict is DoAll.
    auto mod = test::buildSumReduction(64);
    const analysis::ModuleAnalyses analyses(*mod);
    const auto &verdicts = analyses.verdicts();
    ASSERT_FALSE(verdicts.empty());
    for (const auto &v : verdicts)
        EXPECT_EQ(v.kind, VerdictKind::DoAll) << v.label;
}

TEST_F(PdgTest, VerdictSummariesCarryEvidenceAndCosts)
{
    auto mod = test::buildPointerChase(64);
    const analysis::ModuleAnalyses analyses(*mod);
    const auto &verdicts = analyses.verdicts();
    bool sawDoomed = false;
    for (const auto &v : verdicts) {
        EXPECT_GE(v.sccCount, 1u) << v.label;
        EXPECT_GT(v.maxSccCost, 0u) << v.label;
        if (v.kind != VerdictKind::DoAll) {
            sawDoomed = true;
            EXPECT_GT(v.doomedEdges, 0u) << v.label;
            EXPECT_EQ(v.evidence.size(), v.doomedEdges) << v.label;
            for (const std::string &ev : v.evidence)
                EXPECT_NE(ev.find(" -> "), std::string::npos) << ev;
        }
    }
    EXPECT_TRUE(sawDoomed) << "pointer chase should not be all-DoAll";
}

TEST_F(PdgTest, VerdictsAreDeterministic)
{
    auto mod = test::buildHistogram(128, 8);
    const analysis::ModuleAnalyses first(*mod), second(*mod);
    const auto &a = first.verdicts();
    const auto &b = second.verdicts();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].doomedEdges, b[i].doomedEdges);
        EXPECT_EQ(a[i].evidence, b[i].evidence);
    }
}

TEST_F(PdgTest, SharedBundleServesConcurrentLintAndVerdicts)
{
    // Four threads share each suite program's bundle, two linting
    // before they ask for the verdicts and two after: every thread gets
    // the one verdict list, and every lint result equals a fresh
    // bundle's.
    for (const core::BenchProgram &prog : suites::allPrograms()) {
        SCOPED_TRACE(prog.name);
        auto mod = prog.build();
        const lint::LintResult fresh = lint::lintModule(*mod);
        const analysis::ModuleAnalyses shared(*mod);
        std::vector<const void *> lists(4);
        std::vector<lint::LintResult> results(4);
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < 4; ++t) {
            threads.emplace_back([&, t] {
                if (t % 2 == 0)
                    results[t] = lint::lintModule(shared);
                lists[t] = &shared.verdicts();
                if (t % 2 == 1)
                    results[t] = lint::lintModule(shared);
            });
        }
        for (std::thread &th : threads)
            th.join();
        for (unsigned t = 0; t < 4; ++t) {
            EXPECT_EQ(lists[t], lists[0]) << "thread " << t;
            EXPECT_EQ(results[t].deps.dump(), fresh.deps.dump())
                << "thread " << t;
            ASSERT_EQ(results[t].diags.size(), fresh.diags.size());
            for (std::size_t i = 0; i < fresh.diags.size(); ++i)
                EXPECT_EQ(results[t].diags[i].str(), fresh.diags[i].str());
        }
        EXPECT_EQ(shared.verdicts().size(),
                  fresh.deps.at("loops").size());
    }
}

// ------------------------------------------- parsed lint_corpus modules

/** Parse tests/lint_corpus/<name>.lir. */
std::unique_ptr<ir::Module>
parseCorpus(const std::string &name)
{
    std::string path =
        std::string(LP_SOURCE_DIR) + "/tests/lint_corpus/" + name + ".lir";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    return ir::parseModule(buf.str(), interp::stdlibImplFor);
}

TEST_F(PdgTest, ScatterStoreGetsCarriedSelfEdge)
{
    // may_lcd_store.lir: out[idx[i]] = i.  The scatter store is the
    // only writer, so without a self-edge the loop would read as
    // doall — which the dynamic tracker refutes whenever two
    // iterations hit the same cell.  Edge-level evidence: a carried
    // may WAW self-edge on the store.
    auto mod = parseCorpus("may_lcd_store");
    PdgBundle b(*mod, *mod->functions()[0]);
    const LoopPdg &pdg = b.byHeader("sc.hdr");

    bool sawSelf = false;
    for (const DepEdge &e : pdg.edges()) {
        if (e.kind != DepKind::Memory || e.src != e.dst)
            continue;
        sawSelf = true;
        EXPECT_TRUE(e.carried) << pdg.edgeStr(e);
        EXPECT_TRUE(e.may) << pdg.edgeStr(e);
        EXPECT_FALSE(e.breakable) << pdg.edgeStr(e);
        EXPECT_EQ(pdg.node(e.src)->opcode(), ir::Opcode::Store);
    }
    EXPECT_TRUE(sawSelf);
    EXPECT_NE(pdg.verdict().kind, VerdictKind::DoAll);
}

TEST_F(PdgTest, ImpureCallCycleCorpusHasConservativeCallEdges)
{
    // impure_call_cycle.lir: %v = call @bump (impure: loads and stores
    // @state).  The call must sit in a doomed SCC with a carried may
    // memory self-edge — repeated calls conflict with themselves.
    auto mod = parseCorpus("impure_call_cycle");
    const ir::Function *main = nullptr;
    for (const auto &fn : mod->functions())
        if (fn->name() == "main")
            main = fn.get();
    ASSERT_NE(main, nullptr);
    PdgBundle b(*mod, *main);
    const LoopPdg &pdg = b.byHeader("acc.hdr");

    const ir::Instruction *call = nullptr;
    for (unsigned i = 0; i < pdg.numNodes(); ++i)
        if (pdg.node(i)->opcode() == ir::Opcode::Call)
            call = pdg.node(i);
    ASSERT_NE(call, nullptr);
    int ci = pdg.indexOf(call);
    ASSERT_GE(ci, 0);

    bool sawCallSelf = false;
    for (const DepEdge &e : pdg.edges())
        if (e.kind == DepKind::Memory && e.carried && e.may &&
            e.src == unsigned(ci) && e.dst == unsigned(ci))
            sawCallSelf = true;
    EXPECT_TRUE(sawCallSelf);

    const analysis::StaticVerdict &v = pdg.verdict();
    EXPECT_NE(v.kind, VerdictKind::DoAll);
    bool callDoomed = false;
    for (unsigned ei : v.doomedEdges) {
        const DepEdge &e = pdg.edges()[ei];
        if (e.src == unsigned(ci) || e.dst == unsigned(ci))
            callDoomed = true;
    }
    EXPECT_TRUE(callDoomed);
}

TEST_F(PdgTest, ReductionAliasCorpusKeepsMayEdgeBetweenLoadAndStore)
{
    // reduction_alias.lir: s += a[i] while a[b[i]] = 0 scatters into
    // the same array — the affine load and the opaque store must be
    // joined by a may memory edge (either direction).
    auto mod = parseCorpus("reduction_alias");
    PdgBundle b(*mod, *mod->functions()[0]);
    const LoopPdg &pdg = b.byHeader("red.hdr");

    bool sawLoadStoreMay = false;
    for (const DepEdge &e : pdg.edges()) {
        if (e.kind != DepKind::Memory || !e.may || e.src == e.dst)
            continue;
        ir::Opcode a = pdg.node(e.src)->opcode();
        ir::Opcode c = pdg.node(e.dst)->opcode();
        if ((a == ir::Opcode::Load && c == ir::Opcode::Store) ||
            (a == ir::Opcode::Store && c == ir::Opcode::Load))
            sawLoadStoreMay = true;
    }
    EXPECT_TRUE(sawLoadStoreMay);
}

} // namespace
} // namespace lp

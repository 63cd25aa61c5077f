/**
 * @file
 * Unit tests for the compile-time analyses: dominators, loop forest,
 * SCEV, reduction descriptors, purity, SSA verification and the
 * tracker's static filter (analysis::untrackedAccesses).
 */

#include <gtest/gtest.h>

#include <limits>

#include "analysis/analyses.hpp"
#include "analysis/reduction.hpp"
#include "analysis/ssa_verify.hpp"
#include "helpers.hpp"
#include "ir/builder.hpp"

namespace lp {
namespace {

using namespace ir;
using analysis::DominatorTree;
using analysis::Loop;
using analysis::LoopInfo;
using analysis::ScalarEvolution;

/** Find a block by name. */
const BasicBlock *
block(const Function &fn, const std::string &name)
{
    for (const auto &bb : fn.blocks())
        if (bb->name() == name)
            return bb.get();
    return nullptr;
}

TEST(Dominators, DiamondCfg)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    BasicBlock *entry = b.insertBlock();
    BasicBlock *left = b.newBlock("left");
    BasicBlock *right = b.newBlock("right");
    BasicBlock *join = b.newBlock("join");
    b.br(b.i64(1), left, right);
    b.setInsertPoint(left);
    b.jmp(join);
    b.setInsertPoint(right);
    b.jmp(join);
    b.setInsertPoint(join);
    b.ret(b.i64(0));
    mod.finalize();

    DominatorTree dt(*mod.mainFunction());
    EXPECT_EQ(dt.idom(entry), nullptr);
    EXPECT_EQ(dt.idom(left), entry);
    EXPECT_EQ(dt.idom(right), entry);
    EXPECT_EQ(dt.idom(join), entry);
    EXPECT_TRUE(dt.dominates(entry, join));
    EXPECT_FALSE(dt.dominates(left, join));
    EXPECT_TRUE(dt.dominates(join, join));
}

TEST(Dominators, UnreachableBlockExcluded)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    b.ret(b.i64(0));
    BasicBlock *dead = b.newBlock("dead");
    b.setInsertPoint(dead);
    b.ret(b.i64(1));
    mod.finalize();
    DominatorTree dt(*mod.mainFunction());
    EXPECT_FALSE(dt.reachable(dead));
    EXPECT_EQ(dt.rpo().size(), 1u);
}

TEST(LoopInfoTest, SaxpyHasThreeCanonicalTopLevelLoops)
{
    auto mod = test::buildSaxpy(16);
    const Function &fn = *mod->mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    EXPECT_EQ(li.loops().size(), 3u);
    EXPECT_EQ(li.topLevel().size(), 3u);
    for (const auto &loop : li.loops()) {
        EXPECT_TRUE(loop->isCanonical()) << loop->label();
        EXPECT_EQ(loop->depth(), 1u);
        EXPECT_EQ(loop->latches().size(), 1u);
        ASSERT_NE(loop->preheader(), nullptr);
        EXPECT_EQ(loop->blocks().size(), 3u); // header, body, latch
    }
}

TEST(LoopInfoTest, NestedLoopsAreNested)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    CountedLoop outer(b, b.i64(0), b.i64(4), b.i64(1), "i");
    CountedLoop inner(b, b.i64(0), b.i64(4), b.i64(1), "j");
    inner.finish();
    outer.finish();
    b.ret(b.i64(0));
    mod.finalize();

    const Function &fn = *mod.mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ASSERT_EQ(li.loops().size(), 2u);
    ASSERT_EQ(li.topLevel().size(), 1u);
    Loop *out = li.topLevel()[0];
    ASSERT_EQ(out->subLoops().size(), 1u);
    Loop *in = out->subLoops()[0];
    EXPECT_EQ(in->parent(), out);
    EXPECT_EQ(in->depth(), 2u);
    EXPECT_TRUE(out->contains(in));
    EXPECT_FALSE(in->contains(out));
    EXPECT_TRUE(out->contains(in->header()));
}

TEST(LoopInfoTest, LoopForFindsInnermost)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    CountedLoop outer(b, b.i64(0), b.i64(4), b.i64(1), "i");
    CountedLoop inner(b, b.i64(0), b.i64(4), b.i64(1), "j");
    inner.finish();
    outer.finish();
    b.ret(b.i64(0));
    mod.finalize();

    const Function &fn = *mod.mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    const BasicBlock *innerBody = block(fn, "j.body");
    ASSERT_NE(innerBody, nullptr);
    EXPECT_EQ(li.loopFor(innerBody)->header()->name(), "j.hdr");
    const BasicBlock *outerLatch = block(fn, "i.latch");
    EXPECT_EQ(li.loopFor(outerLatch)->header()->name(), "i.hdr");
    EXPECT_EQ(li.loopFor(fn.entry()), nullptr);
}

TEST(Scev, SimpleIv)
{
    auto mod = test::buildSaxpy(16);
    const Function &fn = *mod->mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ScalarEvolution se(fn, li);

    for (const auto &loop : li.loops()) {
        auto phis = loop->headerPhis();
        ASSERT_EQ(phis.size(), 1u);
        const analysis::Scev *s = se.phiEvolution(phis[0]);
        ASSERT_TRUE(s->isAddRec()) << loop->label();
        EXPECT_TRUE(s->lhs->isConst());
        EXPECT_EQ(s->lhs->konst, 0);
        EXPECT_TRUE(s->rhs->isConst());
        EXPECT_EQ(s->rhs->konst, 1);
        EXPECT_TRUE(se.isComputablePhi(phis[0]));
    }
}

TEST(Scev, MutualInductionVariable)
{
    // i = 0, 1, 2, ...; q = 0, 0+0, 0+0+1, ... (q += i): a second-order
    // recurrence {0,+,{0,+,1}} — computable (MIV).
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(10), b.i64(1), "i");
    Instruction *q = l.addRecurrence(Type::I64, b.i64(0), "q");
    Value *qNext = b.add(q, l.iv(), "q.next");
    l.setNext(q, qNext);
    l.finish();
    b.ret(q);
    mod.finalize();

    const Function &fn = *mod.mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ScalarEvolution se(fn, li);
    const Loop *loop = li.topLevel()[0];
    auto phis = loop->headerPhis();
    ASSERT_EQ(phis.size(), 2u);
    EXPECT_TRUE(se.isComputablePhi(phis[0]));
    EXPECT_TRUE(se.isComputablePhi(phis[1]));

    // Evaluate q at n: q(n) = sum_{k<n} k = n(n-1)/2.
    const analysis::Scev *s = se.phiEvolution(phis[1]);
    auto v = se.evaluateAt(s, 6);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 15);
    EXPECT_EQ(se.str(s).substr(0, 1), "{");
}

TEST(Scev, NonComputableDataDependentPhi)
{
    // acc' = acc + load(...): not an induction variable.
    auto mod = test::buildSumReduction(16);
    const Function &fn = *mod->mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ScalarEvolution se(fn, li);
    const Loop *loop = nullptr;
    for (const auto &l : li.loops())
        if (l->header()->name() == "j.hdr")
            loop = l.get();
    ASSERT_NE(loop, nullptr);
    auto phis = loop->headerPhis();
    ASSERT_EQ(phis.size(), 2u); // j and acc
    EXPECT_TRUE(se.isComputablePhi(phis[0]));
    EXPECT_FALSE(se.isComputablePhi(phis[1]));
}

TEST(Scev, AffineAddressOfArrayWalk)
{
    auto mod = test::buildSaxpy(16);
    const Function &fn = *mod->mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ScalarEvolution se(fn, li);

    // In the third loop, the store address is {c, +, 8}.
    const Loop *loop = nullptr;
    for (const auto &l : li.loops())
        if (l->header()->name() == "i.hdr")
            loop = l.get();
    ASSERT_NE(loop, nullptr);
    const Instruction *store = nullptr;
    for (const BasicBlock *bb : loop->blocks())
        for (const auto &instr : bb->instructions())
            if (instr->opcode() == Opcode::Store)
                store = instr.get();
    ASSERT_NE(store, nullptr);
    const analysis::Scev *s = se.scevOf(store->operand(1), loop);
    ASSERT_TRUE(s->isAddRec());
    ASSERT_TRUE(s->rhs->isConst());
    EXPECT_EQ(s->rhs->konst, 8);
}

TEST(Scev, ConstantFoldsWrapModulo2To64)
{
    // %s = %o + %o with %o = i * INT64_MAX: the step folds INT64_MAX +
    // INT64_MAX, which wraps to -2 as the interpreter's Add does.
    Module mod("m");
    IRBuilder b(mod);
    Global *g = mod.addGlobal("g", 64);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(4), b.i64(1), "i");
    Value *o = b.mul(l.iv(), b.i64(std::numeric_limits<std::int64_t>::max()),
                     "o");
    Value *s = b.add(o, o, "s");
    b.load(Type::I64, b.ptradd(g, s), "v");
    l.finish();
    b.ret(b.i64(0));
    mod.finalize();

    const Function &fn = *mod.mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ScalarEvolution se(fn, li);
    const analysis::Scev *ev = se.scevOf(s, li.topLevel()[0]);
    ASSERT_TRUE(ev->isAddRec());
    ASSERT_TRUE(ev->lhs->isConst());
    ASSERT_TRUE(ev->rhs->isConst());
    EXPECT_EQ(ev->lhs->konst, 0);
    EXPECT_EQ(ev->rhs->konst, -2);
}

TEST(Scev, ShiftAmountsAreMaskedTo6Bits)
{
    // x = 1; x = x << 64: the interpreter shifts by 64 & 63 = 0, so x
    // stays 1, the add-recurrence {1,+,0}.
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(4), b.i64(1), "i");
    Instruction *x = l.addRecurrence(Type::I64, b.i64(1), "x");
    l.setNext(x, b.shl(x, b.i64(64), "x1"));
    l.finish();
    b.ret(x);
    mod.finalize();

    const Function &fn = *mod.mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ScalarEvolution se(fn, li);
    ASSERT_TRUE(se.isComputablePhi(x));
    const analysis::Scev *ev = se.phiEvolution(x);
    ASSERT_TRUE(ev->lhs->isConst());
    ASSERT_TRUE(ev->rhs->isConst());
    EXPECT_EQ(ev->lhs->konst, 1);
    EXPECT_EQ(ev->rhs->konst, 0);
}

TEST(Scev, LoopInvariance)
{
    auto mod = test::buildSaxpy(8);
    const Function &fn = *mod->mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    ScalarEvolution se(fn, li);
    const Loop *loop = li.topLevel()[0];
    // Constants and globals are invariant; the loop's own phi is not.
    EXPECT_TRUE(se.isLoopInvariant(mod->constI64(3), loop));
    EXPECT_TRUE(se.isLoopInvariant(mod->globals()[0].get(), loop));
    EXPECT_FALSE(se.isLoopInvariant(loop->headerPhis()[0], loop));
}

TEST(Reduction, SumChainDetected)
{
    auto mod = test::buildSumReduction(16);
    const Function &fn = *mod->mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    analysis::UseMap uses(fn);
    const Loop *loop = nullptr;
    for (const auto &l : li.loops())
        if (l->header()->name() == "j.hdr")
            loop = l.get();
    ASSERT_NE(loop, nullptr);
    auto phis = loop->headerPhis();
    auto red = analysis::matchReduction(phis[1], loop, uses);
    ASSERT_TRUE(red.has_value());
    EXPECT_EQ(red->kind, analysis::RecurKind::Sum);
    EXPECT_EQ(red->chain.size(), 1u);
}

TEST(Reduction, MinMaxDetected)
{
    Module mod("m");
    IRBuilder b(mod);
    Global *a = mod.addGlobal("a", 16 * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(16), b.i64(1), "i");
    Instruction *mn = l.addRecurrence(Type::I64, b.i64(1 << 30), "mn");
    Value *v = b.load(Type::I64, b.elem(a, l.iv()));
    Value *c = b.icmpLt(v, mn);
    Value *next = b.select(c, v, mn);
    l.setNext(mn, next);
    l.finish();
    b.ret(mn);
    mod.finalize();

    const Function &fn = *mod.mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    analysis::UseMap uses(fn);
    const Loop *loop = li.topLevel()[0];
    auto phis = loop->headerPhis();
    ASSERT_EQ(phis.size(), 2u);
    auto red = analysis::matchReduction(phis[1], loop, uses);
    ASSERT_TRUE(red.has_value());
    EXPECT_EQ(red->kind, analysis::RecurKind::SMin);
}

TEST(Reduction, EscapingAccumulatorRejected)
{
    // acc is also stored to memory each iteration: decoupling it would be
    // wrong, so the matcher must refuse.
    Module mod("m");
    IRBuilder b(mod);
    Global *a = mod.addGlobal("a", 16 * 8);
    Global *out = mod.addGlobal("out", 16 * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(16), b.i64(1), "i");
    Instruction *acc = l.addRecurrence(Type::I64, b.i64(0), "acc");
    Value *v = b.load(Type::I64, b.elem(a, l.iv()));
    Value *next = b.add(acc, v);
    b.store(next, b.elem(out, l.iv())); // escapes!
    l.setNext(acc, next);
    l.finish();
    b.ret(acc);
    mod.finalize();

    const Function &fn = *mod.mainFunction();
    DominatorTree dt(fn);
    LoopInfo li(fn, dt);
    analysis::UseMap uses(fn);
    const Loop *loop = li.topLevel()[0];
    auto red = analysis::matchReduction(loop->headerPhis()[1], loop, uses);
    EXPECT_FALSE(red.has_value());
}

TEST(Purity, Classification)
{
    auto pureMod = test::buildLoopWithCalls(8, test::CalleeKind::Pure);
    analysis::PurityAnalysis pa(*pureMod);
    EXPECT_EQ(pa.purity(pureMod->findFunction("helper")),
              analysis::Purity::Pure);

    auto instrMod =
        test::buildLoopWithCalls(8, test::CalleeKind::Instrumented);
    analysis::PurityAnalysis pb(*instrMod);
    EXPECT_EQ(pb.purity(instrMod->findFunction("helper")),
              analysis::Purity::Impure); // writes through a pointer arg

    // main writes globals in every variant.
    EXPECT_EQ(pa.purity(pureMod->mainFunction()),
              analysis::Purity::Impure);
}

TEST(Purity, TransitivePropagation)
{
    Module mod("m");
    IRBuilder b(mod);
    Global *g = mod.addGlobal("g", 8);

    Function *leaf = b.createFunction("leaf", Type::I64);
    b.ret(b.load(Type::I64, g)); // reads a global: ReadOnly

    Function *mid = b.createFunction("mid", Type::I64);
    b.ret(b.call(leaf, {}));

    b.createFunction("main", Type::I64);
    b.ret(b.call(mid, {}));
    mod.finalize();

    analysis::PurityAnalysis pa(mod);
    EXPECT_EQ(pa.purity(leaf), analysis::Purity::ReadOnly);
    EXPECT_EQ(pa.purity(mid), analysis::Purity::ReadOnly);
    EXPECT_EQ(pa.purity(mod.mainFunction()), analysis::Purity::ReadOnly);
}

TEST(SsaVerify, AcceptsWellFormed)
{
    auto mod = test::buildPointerChase(16);
    ir::VerifyResult r = analysis::verifySSA(*mod);
    EXPECT_TRUE(r.ok()) << r.message();
}

TEST(SsaVerify, RejectsUseBeforeDef)
{
    Module mod("bad");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    BasicBlock *other = b.newBlock("other");
    // Build the definition in `other`, but use it in entry, which does not
    // dominate... actually is not dominated: entry -> other; use in entry.
    b.setInsertPoint(other);
    Value *def = b.add(b.i64(1), b.i64(2), "d");
    b.ret(def);
    b.setInsertPoint(mod.mainFunction()->entry());
    Value *use = b.mul(def, b.i64(3)); // def does not dominate this
    (void)use;
    b.jmp(other);
    mod.finalize();

    ir::VerifyResult r = analysis::verifySSA(mod);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("does not dominate"), std::string::npos);
}

/** A module's analysis bundle, viewed through one function's loops and
 *  their untracked accesses, as rt::ModulePlan computes them. */
struct FilterBundle
{
    analysis::ModuleAnalyses analyses;
    const analysis::FunctionAnalyses &fa;
    const LoopInfo &li;
    const analysis::PurityAnalysis &purity;

    FilterBundle(const Module &m, const Function &fn)
        : analyses(m), fa(test::analysesOf(analyses, fn)), li(fa.li),
          purity(analyses.purity())
    {
    }

    std::unordered_set<const Instruction *>
    untracked(const Loop *loop) const
    {
        return analysis::untrackedAccesses(loop, fa);
    }
};

/** The accesses of @p loop with opcode @p op, in block order. */
std::vector<const Instruction *>
accesses(const Loop *loop, Opcode op)
{
    std::vector<const Instruction *> out;
    for (const BasicBlock *bb : loop->blocks())
        for (const auto &instr : bb->instructions())
            if (instr->opcode() == op)
                out.push_back(instr.get());
    return out;
}

TEST(UntrackedAccesses, SaxpyAccessesFiltered)
{
    auto mod = test::buildSaxpy(16);
    FilterBundle fb(*mod, *mod->mainFunction());

    for (const auto &loop : fb.li.loops()) {
        // Every access in every saxpy loop is a stride-8 walk of its own
        // global: all filtered.
        const auto untracked = fb.untracked(loop.get());
        for (Opcode op : {Opcode::Load, Opcode::Store})
            for (const Instruction *access : accesses(loop.get(), op))
                EXPECT_TRUE(untracked.count(access)) << loop->label();
    }
}

TEST(UntrackedAccesses, HistogramUpdateNotFiltered)
{
    auto mod = test::buildHistogram(64, 16);
    FilterBundle fb(*mod, *mod->mainFunction());

    const Loop *loop = fb.li.topLevel()[0];
    const auto untracked = fb.untracked(loop);
    bool sawTracked = false;
    for (Opcode op : {Opcode::Load, Opcode::Store})
        for (const Instruction *access : accesses(loop, op))
            sawTracked |= untracked.count(access) == 0;
    EXPECT_TRUE(sawTracked); // hist[slot] has no affine evolution
}

TEST(UntrackedAccesses, CrossIterationDistanceBlocksFilter)
{
    // a[i] and a[i+1] in the same loop: distance-1 dependence; neither
    // access may be filtered.
    Module mod("m");
    IRBuilder b(mod);
    Global *a = mod.addGlobal("a", 64 * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(63), b.i64(1), "i");
    Value *cur = b.load(Type::I64, b.elem(a, l.iv()));
    Value *nextAddr = b.elem(a, b.add(l.iv(), b.i64(1)));
    b.store(b.add(cur, b.i64(1)), nextAddr);
    l.finish();
    b.ret(b.i64(0));
    mod.finalize();

    FilterBundle fb(mod, *mod.mainFunction());
    EXPECT_EQ(fb.untracked(fb.li.topLevel()[0]).size(), 0u);
}

TEST(UntrackedAccesses, ReadOnlyTableFiltered)
{
    // Loads from a lookup table with a data-dependent index cannot be
    // affine, but a never-written base is still conflict-free.
    Module mod("m");
    IRBuilder b(mod);
    Global *table = mod.addGlobal("table", 64 * 8);
    Global *out = mod.addGlobal("out", 64 * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(64), b.i64(1), "i");
    Value *idx = b.and_(b.mul(l.iv(), b.i64(37)), b.i64(63));
    Value *t = b.load(Type::I64, b.elem(table, idx), "t");
    b.store(t, b.elem(out, l.iv()));
    l.finish();
    b.ret(b.i64(0));
    mod.finalize();

    FilterBundle fb(mod, *mod.mainFunction());
    // Both the table load and the out store are filtered.
    EXPECT_EQ(fb.untracked(fb.li.topLevel()[0]).size(), 2u);
}

TEST(UntrackedAccesses, ReadOnlyCalleeKeepsTheStoreTracked)
{
    // The loop stores a[i] and calls a read-only @get(i-1) that loads
    // a[i-1]: the callee reads what the previous iteration stored.
    auto mod = test::buildCalleeLoad();
    FilterBundle fb(*mod, *mod->mainFunction());
    ASSERT_EQ(fb.purity.purity(mod->findFunction("get")),
              analysis::Purity::ReadOnly);
    const Loop *loop = fb.li.topLevel()[0];
    const std::vector<const Instruction *> stores =
        accesses(loop, Opcode::Store);
    ASSERT_EQ(stores.size(), 1u);
    EXPECT_EQ(fb.untracked(loop).count(stores[0]), 0u);
}

TEST(UntrackedAccesses, UnreadScatterStoreFiltered)
{
    // A store with a data-dependent index that no load of the loop
    // reads back: its only carried edge is a WAW on itself.
    Module mod("m");
    IRBuilder b(mod);
    Global *a = mod.addGlobal("a", 64 * 8);
    Global *out = mod.addGlobal("out", 64 * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(64), b.i64(1), "i");
    Value *v = b.load(Type::I64, b.elem(a, l.iv()), "v");
    Value *idx = b.and_(b.mul(l.iv(), b.i64(37)), b.i64(63));
    b.store(v, b.elem(out, idx));
    l.finish();
    b.ret(b.i64(0));
    mod.finalize();

    FilterBundle fb(mod, *mod.mainFunction());
    const Loop *loop = fb.li.topLevel()[0];
    const std::vector<const Instruction *> stores =
        accesses(loop, Opcode::Store);
    ASSERT_EQ(stores.size(), 1u);
    const auto untracked = fb.untracked(loop);
    EXPECT_EQ(untracked.count(stores[0]), 1u);
    EXPECT_EQ(untracked.size(), 2u);
}

TEST(UntrackedAccesses, WarOnlyPairFiltered)
{
    // x = a[i+1]; a[i] = x: iteration i+1 overwrites what iteration i
    // read, and no iteration reads what an earlier one wrote.
    Module mod("m");
    IRBuilder b(mod);
    Global *a = mod.addGlobal("a", 65 * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(64), b.i64(1), "i");
    Value *x = b.load(Type::I64, b.elem(a, b.add(l.iv(), b.i64(1))), "x");
    b.store(x, b.elem(a, l.iv()));
    l.finish();
    b.ret(b.i64(0));
    mod.finalize();

    FilterBundle fb(mod, *mod.mainFunction());
    EXPECT_EQ(fb.untracked(fb.li.topLevel()[0]).size(), 2u);
}

TEST(UntrackedAccesses, NarrowStrideUpdateStaysTracked)
{
    // a[i] += 1 over a 4-byte stride: the load and the store use the
    // same address in one iteration only, but iteration i+1's load
    // shares the granule iteration i stored whenever i is even.
    auto mod = test::buildNarrowStrideUpdate();
    FilterBundle fb(*mod, *mod->mainFunction());
    const Loop *loop = fb.li.topLevel()[0];
    ASSERT_EQ(accesses(loop, Opcode::Load).size(), 1u);
    ASSERT_EQ(accesses(loop, Opcode::Store).size(), 1u);
    EXPECT_EQ(fb.untracked(loop).size(), 0u);
}

TEST(UntrackedAccesses, FarOffsetsAreUnanalyzable)
{
    // Offsets of 2^62 bytes or more from the base are unknown
    // subscripts to the relation (may edges), which therefore never
    // computes -8 - INT64_MAX, a difference that does not fit in 64
    // bits.
    Module mod("m");
    IRBuilder b(mod);
    Global *g = mod.addGlobal("g", 64);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(4), b.i64(1), "i");
    Value *v = b.load(Type::I64, b.ptradd(g, b.i64(-8)), "v");
    b.store(v, b.ptradd(g, b.i64(std::numeric_limits<std::int64_t>::max())));
    l.finish();
    b.ret(b.i64(0));
    mod.finalize();

    FilterBundle fb(mod, *mod.mainFunction());
    EXPECT_EQ(fb.untracked(fb.li.topLevel()[0]).size(), 0u);
}

} // namespace
} // namespace lp

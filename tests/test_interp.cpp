/**
 * @file
 * Unit tests for the interpreter: semantics, costs, determinism, events.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "helpers.hpp"
#include "interp/execute.hpp"
#include "interp/machine.hpp"
#include "interp/memory.hpp"
#include "interp/stdlib.hpp"
#include "ir/builder.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

using namespace ir;
using interp::Machine;

std::uint64_t
runModule(Module &mod)
{
    Machine m(mod);
    return m.run();
}

TEST(Interp, SaxpyResult)
{
    // c[i] = a[i]*3 + b[i], a[i]=i, b[i]=2i => c[n-1] = 5(n-1).
    auto mod = test::buildSaxpy(100);
    EXPECT_EQ(runModule(*mod), 5u * 99u);
}

TEST(Interp, SumReductionResult)
{
    auto mod = test::buildSumReduction(100);
    EXPECT_EQ(runModule(*mod), 100u * 99u / 2u);
}

TEST(Interp, PointerChaseResults)
{
    auto seq = test::buildPointerChase(64);
    auto shuf = test::buildPointerChaseShuffled(64);
    // Both visit all nodes once; the per-node work is a function of the
    // payload alone, so both orders produce the same total.
    EXPECT_EQ(runModule(*seq), runModule(*shuf));
}

TEST(Interp, HistogramCountsSumToN)
{
    // Return hist[0]; we independently compute the expectation here.
    std::int64_t n = 64, buckets = 16;
    std::uint64_t expect = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t key = (i * 2654435761LL) >> 8;
        if (key % buckets == 0)
            ++expect;
    }
    auto mod = test::buildHistogram(n, buckets);
    EXPECT_EQ(runModule(*mod), expect);
}

TEST(Interp, Deterministic)
{
    auto a = test::buildPointerChaseShuffled(64);
    auto b = test::buildPointerChaseShuffled(64);
    Machine ma(*a), mb(*b);
    EXPECT_EQ(ma.run(), mb.run());
    EXPECT_EQ(ma.cost(), mb.cost());
}

TEST(Interp, CostGrowsWithN)
{
    auto small = test::buildSaxpy(10);
    auto large = test::buildSaxpy(1000);
    Machine ms(*small), ml(*large);
    ms.run();
    ml.run();
    EXPECT_GT(ml.cost(), 50 * ms.cost());
}

TEST(Interp, ArithmeticSemantics)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    Value *x = b.sub(b.i64(3), b.i64(10));       // -7
    Value *y = b.sdiv(x, b.i64(2));              // -3 (trunc toward zero)
    Value *z = b.srem(b.i64(-7), b.i64(3));      // -1
    Value *s = b.ashr(b.i64(-16), b.i64(2));     // -4
    Value *sel = b.select(b.icmpLt(y, z), s, x); // y<z: -3<-1 -> s = -4
    b.ret(b.add(sel, b.i64(4)));                 // 0
    mod.finalize();
    EXPECT_EQ(runModule(mod), 0u);
}

TEST(Interp, FloatSemantics)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    Value *x = b.fmul(b.f64(1.5), b.f64(4.0)); // 6.0
    Value *y = b.fdiv(x, b.f64(2.0));          // 3.0
    Value *c = b.fcmp(Opcode::FCmpGt, y, b.f64(2.5)); // 1
    Value *i = b.ftoi(y);                      // 3
    b.ret(b.add(i, c));                        // 4
    mod.finalize();
    EXPECT_EQ(runModule(mod), 4u);
}

TEST(Interp, DivisionByZeroIsFatal)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    b.ret(b.sdiv(b.i64(1), b.i64(0)));
    mod.finalize();
    Machine m(mod);
    EXPECT_THROW(m.run(), FatalError);
}

/** main() { return <op>(1 << 63, 0 - 1) }: the one overflowing quotient. */
void
expectOverflowTrap(Opcode op)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    Value *m = b.shl(b.i64(1), b.i64(63), "m");
    Value *n = b.sub(b.i64(0), b.i64(1), "n");
    b.ret(op == Opcode::SDiv ? b.sdiv(m, n) : b.srem(m, n));
    mod.finalize();
    Machine machine(mod);
    try {
        machine.run();
        ADD_FAILURE() << opcodeName(op) << " INT64_MIN, -1 did not trap";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Trap) << e.what();
    }
}

TEST(Interp, DivisionOverflowTraps)
{
    expectOverflowTrap(Opcode::SDiv);
    expectOverflowTrap(Opcode::SRem);
}

/** main() { return ftoi(<v>) } */
std::uint64_t
ftoiOf(double v)
{
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    b.ret(b.ftoi(b.f64(v)));
    mod.finalize();
    return runModule(mod);
}

TEST(Interp, FToIOutOfRangeGivesInt64Min)
{
    const std::uint64_t int64Min = std::uint64_t{1} << 63;
    EXPECT_EQ(ftoiOf(std::nan("")), int64Min);
    EXPECT_EQ(ftoiOf(-std::nan("")), int64Min);
    EXPECT_EQ(ftoiOf(INFINITY), int64Min);
    EXPECT_EQ(ftoiOf(-INFINITY), int64Min);
    EXPECT_EQ(ftoiOf(0x1p63), int64Min);
    EXPECT_EQ(ftoiOf(1e304), int64Min);
    EXPECT_EQ(ftoiOf(-1e304), int64Min);
    // In range: truncation toward zero, both ends included.
    EXPECT_EQ(ftoiOf(-0x1p63), int64Min);
    EXPECT_EQ(ftoiOf(0x1p63 - 1024), int64Min - 1024);
    EXPECT_EQ(ftoiOf(-2.9), static_cast<std::uint64_t>(-2));
}

TEST(Interp, CostLimitAborts)
{
    auto mod = test::buildSaxpy(100000);
    Machine m(*mod);
    m.setCostLimit(1000);
    EXPECT_THROW(m.run(), FatalError);
}

TEST(Interp, AllocaIsFrameLocal)
{
    // Callee writes its own scratch; two sequential calls reuse the same
    // simulated stack addresses without interference.
    Module mod("m");
    IRBuilder b(mod);
    Function *f =
        b.createFunction("f", Type::I64, {{Type::I64, "x"}});
    Value *buf = b.allocaBytes(16, "buf");
    b.store(f->args()[0].get(), buf);
    b.ret(b.load(Type::I64, buf));

    b.createFunction("main", Type::I64);
    Value *a = b.call(f, {b.i64(7)});
    Value *c = b.call(f, {b.i64(35)});
    b.ret(b.add(a, c));
    mod.finalize();
    EXPECT_EQ(runModule(mod), 42u);
}

/** f(n) = n == 0 ? 0 : f(n - 1) + 1, called as main() { f(@p n) }. */
std::unique_ptr<Module>
buildRecursion(std::int64_t n)
{
    auto mod = std::make_unique<Module>("m");
    IRBuilder b(*mod);
    Function *f = b.createFunction("f", Type::I64, {{Type::I64, "n"}});
    Value *arg = f->args()[0].get();
    BasicBlock *base = b.newBlock("base");
    BasicBlock *rec = b.newBlock("rec");
    b.br(b.icmpEq(arg, b.i64(0)), base, rec);
    b.setInsertPoint(base);
    b.ret(b.i64(0));
    b.setInsertPoint(rec);
    b.ret(b.add(b.call(f, {b.sub(arg, b.i64(1))}), b.i64(1)));

    b.createFunction("main", Type::I64);
    b.ret(b.call(f, {b.i64(n)}));
    mod->finalize();
    return mod;
}

/** Run @p mod and expect it to fail with @p code. */
void
expectRunFails(Module &mod, ErrorCode code, const std::string &what)
{
    Machine m(mod);
    try {
        m.run();
        ADD_FAILURE() << what << " did not fail";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), code) << what << ": " << e.what();
    }
}

TEST(Interp, AccessesWrappingPastTheTopAddressTrap)
{
    // @g is the first global (kGlobalBase): offsets -4104..-4097 reach
    // the top 8 addresses, where address + 8 wraps around to 0.
    for (std::int64_t off = -4104; off <= -4097; ++off) {
        for (bool isStore : {true, false}) {
            Module mod("m");
            IRBuilder b(mod);
            Global *g = mod.addGlobal("g", 8);
            b.createFunction("main", Type::I64);
            Value *p = b.ptradd(g, b.i64(off), "p");
            if (isStore) {
                b.store(b.i64(77), p);
                b.ret(b.i64(0));
            } else {
                b.ret(b.load(Type::I64, p));
            }
            mod.finalize();
            expectRunFails(mod, ErrorCode::Trap,
                           (isStore ? "store at @g" : "load at @g") +
                               std::to_string(off));
        }
    }
}

TEST(Interp, AllocaPastTheStackLimitOverflows)
{
    // A negative size would move the stack pointer below kStackBase; a
    // size within 7 of 2^64 would round up to 0 bytes.
    for (std::uint64_t size :
         {~std::uint64_t{0} - 7, ~std::uint64_t{0},
          interp::Memory::kStackLimit - interp::Memory::kStackBase + 1}) {
        Module mod("m");
        IRBuilder b(mod);
        b.createFunction("main", Type::I64);
        b.allocaBytes(size, "p");
        b.ret(b.i64(0));
        mod.finalize();
        expectRunFails(mod, ErrorCode::Stack,
                       "alloca " + std::to_string(size));
    }
}

TEST(Interp, AllocationsRoundingToZeroBytesFail)
{
    // malloc(-1) and a global of 2^64 - 1 bytes would round up to 0
    // bytes and trap at their first access instead.
    {
        Module mod("m");
        IRBuilder b(mod);
        interp::Stdlib lib = interp::registerStdlib(mod);
        b.createFunction("main", Type::I64);
        Value *p = b.callExt(lib.malloc, {b.i64(-1)});
        b.store(b.i64(5), p);
        b.ret(b.i64(0));
        mod.finalize();
        expectRunFails(mod, ErrorCode::Heap, "malloc(-1)");
    }
    {
        Module mod("m");
        IRBuilder b(mod);
        Global *g = mod.addGlobal("big", ~std::uint64_t{0});
        mod.addGlobal("after", 8);
        b.createFunction("main", Type::I64);
        b.store(b.i64(5), g);
        b.ret(b.i64(0));
        mod.finalize();
        expectRunFails(mod, ErrorCode::Heap, "a 2^64 - 1 byte global");
    }
}

TEST(Interp, CallDepthLimit)
{
    // main plus f(9998)..f(0) is 10,000 frames: the deepest allowed.
    auto deepest = buildRecursion(9998);
    EXPECT_EQ(runModule(*deepest), 9998u);

    // One more frame overflows the simulated call stack.
    auto over = buildRecursion(9999);
    Machine m(*over);
    try {
        m.run();
        ADD_FAILURE() << "10,001 frames did not overflow";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Stack) << e.what();
    }
}

TEST(Interp, ExternalCallsChargeCost)
{
    Module mod("m");
    IRBuilder b(mod);
    interp::Stdlib lib = interp::registerStdlib(mod);
    b.createFunction("main", Type::I64);
    Value *r = b.callExt(lib.sqrt, {b.f64(144.0)});
    b.ret(b.ftoi(r));
    mod.finalize();

    Machine m(mod);
    EXPECT_EQ(m.run(), 12u);
    // Cost must include the external's declared 20 units.
    EXPECT_GE(m.cost(), 20u);
}

TEST(Interp, StdlibMallocReturnsDistinctChunks)
{
    Module mod("m");
    IRBuilder b(mod);
    interp::Stdlib lib = interp::registerStdlib(mod);
    b.createFunction("main", Type::I64);
    Value *p = b.callExt(lib.malloc, {b.i64(64)});
    Value *q = b.callExt(lib.malloc, {b.i64(64)});
    b.store(b.i64(1), p);
    b.store(b.i64(2), q);
    Value *sum = b.add(b.load(Type::I64, p), b.load(Type::I64, q));
    b.ret(sum);
    mod.finalize();
    EXPECT_EQ(runModule(mod), 3u);
}

TEST(Interp, StdlibRandDeterministicSequence)
{
    auto build = []() {
        auto mod = std::make_unique<Module>("m");
        IRBuilder b(*mod);
        interp::Stdlib lib = interp::registerStdlib(*mod);
        b.createFunction("main", Type::I64);
        Value *a = b.callExt(lib.rand, {});
        Value *c = b.callExt(lib.rand, {});
        b.ret(b.xor_(a, c));
        mod->finalize();
        return mod;
    };
    auto m1 = build();
    auto m2 = build();
    EXPECT_EQ(runModule(*m1), runModule(*m2));
}

/** Counts events fired by the interpreter. */
class CountingListener : public interp::ExecListener
{
  public:
    std::uint64_t blocks = 0, phis = 0, loads = 0, stores = 0, calls = 0,
                  enters = 0, exits = 0;
    void onBlockEnter(const BasicBlock *) override { ++blocks; }
    void onPhiResolved(const Instruction *, std::uint64_t) override
    {
        ++phis;
    }
    void onLoad(const Instruction *, std::uint64_t) override { ++loads; }
    void onStore(const Instruction *, std::uint64_t) override { ++stores; }
    void onCallSite(const Instruction *) override { ++calls; }
    void onFunctionEnter(const Function *) override { ++enters; }
    void onFunctionExit(const Function *) override { ++exits; }
};

TEST(Interp, EventStreamShape)
{
    std::int64_t n = 10;
    auto mod = test::buildLoopWithCalls(n, test::CalleeKind::Pure);
    CountingListener listener;
    Machine m(*mod, &listener);
    m.run();

    EXPECT_EQ(listener.enters, listener.exits);
    EXPECT_EQ(listener.enters, 1u + n); // main + n helper calls
    EXPECT_EQ(listener.calls, static_cast<std::uint64_t>(n));
    // init loop: n stores; main loop: n stores; helper: none.
    EXPECT_EQ(listener.stores, 2u * n);
    // init loop: 0 loads; main loop: 1 load per iteration + final load.
    EXPECT_EQ(listener.loads, n + 1u);
    // Two counted loops: one phi resolution per header visit.
    EXPECT_EQ(listener.phis, 2u * (n + 1u));
    EXPECT_GT(listener.blocks, 4u * n);
}

TEST(Interp, PhiValuesObserved)
{
    // The induction variable's observed sequence must be 0..n.
    struct IvListener : interp::ExecListener
    {
        std::vector<std::uint64_t> values;
        void
        onPhiResolved(const Instruction *phi, std::uint64_t bits) override
        {
            if (phi->name() == "i")
                values.push_back(bits);
        }
    };
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(5), b.i64(1), "i");
    l.finish();
    b.ret(b.i64(0));
    mod.finalize();

    IvListener listener;
    Machine m(mod, &listener);
    m.run();
    ASSERT_EQ(listener.values.size(), 6u);
    for (std::uint64_t k = 0; k <= 5; ++k)
        EXPECT_EQ(listener.values[k], k);
}

/** Every phi value the interpreter reports, by phi name, in order. */
struct PhiLog : interp::ExecListener
{
    std::map<std::string, std::vector<std::uint64_t>> values;
    void
    onPhiResolved(const Instruction *phi, std::uint64_t bits) override
    {
        values[phi->name()].push_back(bits);
    }
};

/**
 * A self-looping header @p h entered from @p entry, counting n from 0
 * while n + 1 < @p trips; returns the exit block (insert point is left
 * there).  @p body adds the loop's own phis and their latch values.
 */
template <typename Body>
BasicBlock *
selfLoop(IRBuilder &b, std::int64_t trips, Body body)
{
    BasicBlock *entry = b.insertBlock();
    BasicBlock *h = b.newBlock("h");
    BasicBlock *exit = b.newBlock("exit");
    b.jmp(h);
    b.setInsertPoint(h);
    Instruction *n = b.phi(Type::I64, "n");
    body(entry, h);
    Value *n2 = b.add(n, b.i64(1));
    IRBuilder::addIncoming(n, b.i64(0), entry);
    IRBuilder::addIncoming(n, n2, h);
    b.br(b.icmpLt(n2, b.i64(trips)), h, exit);
    b.setInsertPoint(exit);
    return exit;
}

TEST(Interp, PhisSwapInParallel)
{
    // a and b trade values on every back edge.  Copying them one at a
    // time would leave both holding b's value from the second visit on.
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    Instruction *pa = nullptr, *pb = nullptr;
    selfLoop(b, 5, [&](BasicBlock *entry, BasicBlock *h) {
        pa = b.phi(Type::I64, "a");
        pb = b.phi(Type::I64, "b");
        IRBuilder::addIncoming(pa, b.i64(1), entry);
        IRBuilder::addIncoming(pa, pb, h);
        IRBuilder::addIncoming(pb, b.i64(2), entry);
        IRBuilder::addIncoming(pb, pa, h);
    });
    b.ret(b.add(b.mul(pa, b.i64(10)), pb));
    mod.finalize();

    PhiLog log;
    Machine m(mod, &log);
    EXPECT_EQ(m.run(), 12u);
    EXPECT_EQ(log.values["a"],
              (std::vector<std::uint64_t>{1, 2, 1, 2, 1}));
    EXPECT_EQ(log.values["b"],
              (std::vector<std::uint64_t>{2, 1, 2, 1, 2}));
}

TEST(Interp, PhiReadsPreviousValueOfSameBlockPhi)
{
    // y takes x's value from the previous visit, not x's new value.
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    Instruction *px = nullptr, *py = nullptr;
    selfLoop(b, 4, [&](BasicBlock *entry, BasicBlock *h) {
        px = b.phi(Type::I64, "x");
        py = b.phi(Type::I64, "y");
        IRBuilder::addIncoming(px, b.i64(0), entry);
        IRBuilder::addIncoming(px, b.add(px, b.i64(1)), h);
        IRBuilder::addIncoming(py, b.i64(100), entry);
        IRBuilder::addIncoming(py, px, h);
    });
    b.ret(py);
    mod.finalize();

    PhiLog log;
    Machine m(mod, &log);
    EXPECT_EQ(m.run(), 2u);
    EXPECT_EQ(log.values["x"], (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_EQ(log.values["y"], (std::vector<std::uint64_t>{100, 0, 1, 2}));
}

TEST(Interp, PhiIncomingConstantsAndGlobals)
{
    // p starts at a global's address, k at a constant, and z takes a
    // constant on both edges.
    Module mod("m");
    Global *g = mod.addGlobal("g", 16);
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    b.store(b.i64(7), g);
    b.store(b.i64(9), b.ptradd(g, b.i64(8)));
    Instruction *pk = nullptr;
    Value *k2 = nullptr;
    selfLoop(b, 2, [&](BasicBlock *entry, BasicBlock *h) {
        Instruction *pp = b.phi(Type::Ptr, "p");
        pk = b.phi(Type::I64, "k");
        Instruction *pz = b.phi(Type::I64, "z");
        k2 = b.add(pk, b.load(Type::I64, pp));
        IRBuilder::addIncoming(pp, g, entry);
        IRBuilder::addIncoming(pp, b.ptradd(pp, b.i64(8)), h);
        IRBuilder::addIncoming(pk, b.i64(5), entry);
        IRBuilder::addIncoming(pk, k2, h);
        IRBuilder::addIncoming(pz, b.i64(0), entry);
        IRBuilder::addIncoming(pz, b.i64(-1), h);
    });
    b.ret(k2);
    mod.finalize();

    PhiLog log;
    Machine m(mod, &log);
    EXPECT_EQ(m.run(), 5u + 7u + 9u);
    const std::uint64_t base = interp::Memory::kGlobalBase + g->offsetBytes();
    EXPECT_EQ(log.values["p"], (std::vector<std::uint64_t>{base, base + 8}));
    EXPECT_EQ(log.values["k"], (std::vector<std::uint64_t>{5, 12}));
    EXPECT_EQ(log.values["z"],
              (std::vector<std::uint64_t>{0, ~std::uint64_t{0}}));
}

TEST(Interp, BranchWithBothEdgesIntoOnePhiBlock)
{
    // `br %odd, join, join`: whichever edge is taken, v resolves to the
    // value flowing in from the loop block.
    Module mod("m");
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    BasicBlock *entry = b.insertBlock();
    BasicBlock *loop = b.newBlock("loop");
    BasicBlock *join = b.newBlock("join");
    BasicBlock *exit = b.newBlock("exit");
    b.jmp(loop);

    b.setInsertPoint(loop);
    Instruction *i = b.phi(Type::I64, "i");
    Instruction *acc = b.phi(Type::I64, "acc");
    Value *i2 = b.add(i, b.i64(1));
    b.br(b.and_(i, b.i64(1)), join, join);

    b.setInsertPoint(join);
    Instruction *v = b.phi(Type::I64, "v");
    IRBuilder::addIncoming(v, i2, loop);
    Value *acc2 = b.add(acc, v);
    b.br(b.icmpLt(i2, b.i64(5)), loop, exit);

    IRBuilder::addIncoming(i, b.i64(0), entry);
    IRBuilder::addIncoming(i, i2, join);
    IRBuilder::addIncoming(acc, b.i64(0), entry);
    IRBuilder::addIncoming(acc, acc2, join);
    b.setInsertPoint(exit);
    b.ret(acc2);
    mod.finalize();

    PhiLog log;
    Machine m(mod, &log);
    EXPECT_EQ(m.run(), 1u + 2u + 3u + 4u + 5u);
    EXPECT_EQ(log.values["v"], (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

/** Every load: its address and the Machine's clocks when it fired. */
struct LoadClocks : interp::ExecListener
{
    const Machine *m = nullptr;
    std::vector<std::uint64_t> addrs, precise, entry;
    void
    onLoad(const Instruction *, std::uint64_t addr) override
    {
        addrs.push_back(addr);
        precise.push_back(m->preciseCost());
        entry.push_back(m->blockEntryCost());
    }
};

TEST(Interp, CallReturnsIntoAFusedRun)
{
    // The op after the call starts the mul -> ptradd -> load run that
    // IRBuilder::elem and load emit; the return resumes at that run's
    // first op, which must run the whole run.
    Module mod("m");
    Global *g = mod.addGlobal("g", 32);
    IRBuilder b(mod);
    Function *f = b.createFunction("f", Type::I64, {{Type::I64, "x"}});
    b.ret(f->args()[0].get());
    b.createFunction("main", Type::I64);
    b.store(b.i64(42), b.ptradd(g, b.i64(8)));          // ops 0, 1
    Value *i = b.call(f, {b.i64(1)});                   // op 2
    b.ret(b.load(Type::I64, b.elem(g, i)));             // ops 3-6
    mod.finalize();

    LoadClocks log;
    Machine m(mod, &log);
    log.m = &m;
    EXPECT_EQ(m.run(), 42u);
    const std::uint64_t at = interp::Memory::kGlobalBase + g->offsetBytes();
    ASSERT_EQ(log.addrs, (std::vector<std::uint64_t>{at + 8}));
    // The load is op 5 of main's block; f's one op ran before it.
    EXPECT_EQ(log.entry[0], 1u);
    EXPECT_EQ(log.precise[0], log.entry[0] + 5 + 1);
    EXPECT_EQ(m.cost(), 7u + 1u);
}

TEST(Interp, InvalidAddressAtAFusedLoadTraps)
{
    // elem(@g, 2^20) is far past @g: the fused run fires its load event,
    // then traps, with the whole block charged as at any trap.
    Module mod("m");
    Global *g = mod.addGlobal("g", 8);
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    b.ret(b.load(Type::I64, b.elem(g, b.i64(1 << 20))));
    mod.finalize();

    LoadClocks log;
    Machine m(mod, &log);
    log.m = &m;
    const std::uint64_t addr =
        interp::Memory::kGlobalBase + g->offsetBytes() + (8u << 20);
    try {
        m.run();
        ADD_FAILURE() << "the load did not trap";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Trap) << e.what();
        char want[64];
        std::snprintf(want, sizeof want, "invalid memory access at 0x%llx",
                      static_cast<unsigned long long>(addr));
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(m.cost(), 4u);
    ASSERT_EQ(log.addrs, (std::vector<std::uint64_t>{addr}));
    EXPECT_EQ(log.precise[0], 3u);
}

TEST(Interp, FusedIntermediatesStayReadable)
{
    // Each fused run writes its mul's product and its ptradd's sum: the
    // later ops of the block read them again.
    Module mod("m");
    Global *g = mod.addGlobal("g", 32);
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    b.store(b.i64(5), b.ptradd(g, b.i64(24)));
    Value *three = b.add(b.i64(1), b.i64(2));
    Value *off = b.mul(three, b.i64(8));                // mul -> ptradd
    Value *p = b.ptradd(g, off);                        // -> load
    Value *v = b.load(Type::I64, p);
    Value *off2 = b.mul(b.i64(2), b.i64(8));            // mul -> ptradd
    Value *p2 = b.ptradd(g, off2);
    b.store(off2, p2);                                  // not fused
    Value *sum = b.add(b.add(off, v), b.add(off2, b.load(Type::I64, p2)));
    Value *span = b.sub(p, p2);
    b.ret(b.add(sum, span));
    mod.finalize();
    // (24 + 5) + (16 + 16) + (24 - 16)
    EXPECT_EQ(runModule(mod), 69u);
}

/**
 * An Instrumentation of @p mod without loops: every function but those
 * @p quiet names, main's block entries, and every phi, load and store
 * when @p accesses (none otherwise).
 */
struct Selection
{
    Selection(const Module &mod, const std::set<std::string> &quiet,
              bool accesses = true)
    {
        const interp::EventIds ids(mod);
        forest.blockLoop.assign(ids.blocks.size(), -1);
        events.loops = &forest;
        for (const auto &fn : mod.functions())
            events.functions.push_back(!quiet.count(fn->name()));
        for (const BasicBlock *bb : ids.blocks)
            events.blocks.push_back(bb->parent()->name() == "main");
        events.phis.assign(ids.phis.size(), accesses);
        events.memOps.assign(ids.memOps.size(), accesses);
    }
    Selection(const Selection &) = delete; // events.loops points here

    interp::LoopForest forest;
    interp::Instrumentation events;
};

/** Every event of a run, one line each with the clock sampled there. */
struct EventLog
{
    const Machine *m = nullptr;
    std::vector<std::string> lines;

    void
    add(const std::string &what, std::uint64_t clock)
    {
        lines.push_back(what + " @" + std::to_string(clock));
    }
    void
    functionEnter(const Function *fn)
    {
        add("enter " + fn->name(), m->cost());
    }
    void
    functionExit(const Function *fn)
    {
        add("exit " + fn->name(), m->cost());
    }
    void
    loopExit(std::uint32_t k)
    {
        add("x" + std::to_string(k), m->blockEntryCost());
    }
    void
    loopEnter(std::uint32_t loop)
    {
        add("e" + std::to_string(loop), m->blockEntryCost());
    }
    void loopIterate() { add("i", m->blockEntryCost()); }
    void
    blockEnter(std::uint32_t block)
    {
        add("block " + std::to_string(block), m->blockEntryCost());
    }
    void
    phiResolved(std::uint32_t phi, std::uint64_t bits)
    {
        add("phi " + std::to_string(phi) + " = " + std::to_string(bits),
            m->cost());
    }
    void
    load(std::uint32_t i, std::uint64_t addr)
    {
        add("load " + std::to_string(i) + " " + std::to_string(addr),
            m->preciseCost());
    }
    void
    store(std::uint32_t i, std::uint64_t addr)
    {
        add("store " + std::to_string(i) + " " + std::to_string(addr),
            m->preciseCost());
    }
    void callSite(const Instruction *) { add("call", m->preciseCost()); }
};

/** How a run ended ("returned N" or the error), its events and cost. */
struct Outcome
{
    std::string end;
    std::vector<std::string> events;
    std::uint64_t cost = 0;
};

/** Run @p mod compiled with @p sel, within @p fuel instructions if set. */
Outcome
runSelected(const Module &mod, const interp::Instrumentation &sel,
            std::uint64_t fuel = 0)
{
    Machine m(mod, sel);
    if (fuel)
        m.setCostLimit(fuel);
    EventLog log;
    log.m = &m;
    Outcome out;
    try {
        out.end = "returned " + std::to_string(m.run(log));
    } catch (const Error &e) {
        out.end = std::string(e.codeName()) + ": " + e.what();
    }
    out.events = std::move(log.lines);
    out.cost = m.cost();
    return out;
}

/**
 * @p mod run with every function selected and with @p leaves not: the
 * same end and cost, and the same events but the leaves' entries and
 * returns (which the first run must fire).
 */
void
expectLeavesRunInline(const Module &mod, const std::set<std::string> &leaves,
                      std::uint64_t fuel = 0)
{
    const Selection all(mod, {}), quiet(mod, leaves);
    const Outcome every = runSelected(mod, all.events, fuel);
    const Outcome inlined = runSelected(mod, quiet.events, fuel);
    std::vector<std::string> want;
    for (const std::string &e : every.events) {
        bool leafEvent = false;
        for (const std::string &leaf : leaves)
            leafEvent |= e.starts_with("enter " + leaf + " @") ||
                         e.starts_with("exit " + leaf + " @");
        if (!leafEvent)
            want.push_back(e);
    }
    if (every.end.starts_with("returned")) {
        EXPECT_LT(want.size(), every.events.size());
    }
    EXPECT_EQ(inlined.end, every.end);
    EXPECT_EQ(inlined.cost, every.cost);
    EXPECT_EQ(inlined.events, want);
}

/**
 * main's loop calls leaves that return an argument (@id), a constant
 * (@seven), nothing (@touch) and an instruction (@mix, the generator's
 * helper), between masked-index accesses.
 */
std::unique_ptr<Module>
buildLeafCalls()
{
    auto mod = std::make_unique<Module>("m");
    Global *g = mod->addGlobal("g", 64);
    IRBuilder b(*mod);
    Function *id = b.createFunction("id", Type::I64, {{Type::I64, "x"}});
    b.ret(id->args()[0].get());
    Function *seven =
        b.createFunction("seven", Type::I64, {{Type::I64, "x"}});
    b.ret(b.i64(7));
    Function *touch =
        b.createFunction("touch", Type::Void, {{Type::I64, "x"}});
    b.add(touch->args()[0].get(), b.i64(1));
    b.retVoid();
    Function *mix = b.createFunction("mix", Type::I64, {{Type::I64, "x"}});
    Value *x = mix->args()[0].get();
    b.ret(b.and_(b.add(b.mul(x, b.i64(37)), b.ashr(x, b.i64(3))),
                 b.i64(0xffff)));

    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(6), b.i64(1), "i");
    Instruction *acc = l.addRecurrence(Type::I64, b.i64(0), "acc");
    Value *k = b.call(id, {b.call(mix, {l.iv()})});
    b.store(k, b.elem(g, b.and_(l.iv(), b.i64(7))));
    b.call(touch, {k});
    Value *s = b.call(seven, {k});
    Value *v = b.load(Type::I64,
                      b.elem(g, b.and_(b.add(l.iv(), b.i64(5)), b.i64(7))));
    l.setNext(acc, b.add(acc, b.add(v, s)));
    l.finish();
    b.ret(acc);
    mod->finalize();
    return mod;
}

TEST(Interp, UnselectedLeavesRunInline)
{
    auto mod = buildLeafCalls();
    expectLeavesRunInline(*mod, {"id", "seven", "touch", "mix"});
    expectLeavesRunInline(*mod, {"mix"});
    // The leaves' values reach main: the same result as a plain run.
    const Selection quiet(*mod, {"id", "seven", "touch", "mix"});
    EXPECT_EQ(runSelected(*mod, quiet.events).end,
              "returned " + std::to_string(runModule(*mod)));
}

TEST(Interp, InlinedLeafTrapsAndRunsOutOfFuelAsItsCall)
{
    // @div(0) divides by zero inside the inlined body: the same trap
    // and cost as the call.  Then every fuel limit up to the run's cost
    // ends the same way; the ones that fall in @div's block name it.
    Module mod("m");
    IRBuilder b(mod);
    Function *div = b.createFunction("div", Type::I64, {{Type::I64, "x"}});
    b.ret(b.add(b.sdiv(b.i64(100), div->args()[0].get()), b.i64(1)));
    b.createFunction("main", Type::I64);
    Value *q = b.call(div, {b.i64(4)});
    b.ret(b.add(q, b.call(div, {b.sub(q, b.i64(26))})));
    mod.finalize();
    expectLeavesRunInline(mod, {"div"});
    const Selection quiet(mod, {"div"});
    const Outcome trap = runSelected(mod, quiet.events);
    EXPECT_TRUE(trap.end.starts_with("LP_TRAP")) << trap.end;
    EXPECT_NE(trap.end.find("division by zero"), std::string::npos);

    bool namesDiv = false;
    for (std::uint64_t fuel = 1; fuel <= trap.cost; ++fuel) {
        SCOPED_TRACE("fuel " + std::to_string(fuel));
        expectLeavesRunInline(mod, {"div"}, fuel);
        const std::string end = runSelected(mod, quiet.events, fuel).end;
        namesDiv |= end.starts_with("LP_FUEL") &&
                    end.find("in @div:") != std::string::npos;
    }
    EXPECT_TRUE(namesDiv);
}

TEST(Interp, InlinedLeafAtTheCallDepthLimitOverflows)
{
    // f(n) = n == 0 ? leaf() : f(n - 1) + 1.  main plus f(9998)..f(0)
    // is 10,000 frames, so the leaf's call overflows; one level less
    // and it is the 10,000th.
    for (std::int64_t n : {9997, 9998}) {
        Module mod("m");
        IRBuilder b(mod);
        Function *leaf = b.createFunction("leaf", Type::I64);
        b.ret(b.i64(5));
        Function *f = b.createFunction("f", Type::I64, {{Type::I64, "n"}});
        Value *arg = f->args()[0].get();
        BasicBlock *base = b.newBlock("base");
        BasicBlock *rec = b.newBlock("rec");
        b.br(b.icmpEq(arg, b.i64(0)), base, rec);
        b.setInsertPoint(base);
        b.ret(b.call(leaf, {}));
        b.setInsertPoint(rec);
        b.ret(b.add(b.call(f, {b.sub(arg, b.i64(1))}), b.i64(1)));
        b.createFunction("main", Type::I64);
        b.ret(b.call(f, {b.i64(n)}));
        mod.finalize();

        const Selection quiet(mod, {"leaf"});
        const std::string end = runSelected(mod, quiet.events).end;
        if (n == 9997) {
            EXPECT_EQ(end, "returned " + std::to_string(5 + n));
        } else {
            EXPECT_TRUE(end.starts_with("LP_STACK") &&
                        end.find("calling @leaf") != std::string::npos)
                << end;
        }
        const Selection all(mod, {});
        EXPECT_EQ(runSelected(mod, all.events).end, end);
    }
}

/**
 * main() { store 3, @g + 8 * (k & mask) } with the index run fused
 * (@p fused: the store's value is computed first) or broken up (its
 * value is computed between the mul and the ptradd, at the same
 * position), the and present when @p masked.
 */
std::unique_ptr<Module>
buildIndexedStore(std::int64_t k, bool masked, bool fused)
{
    auto mod = std::make_unique<Module>("m");
    Global *g = mod->addGlobal("g", 64);
    IRBuilder b(*mod);
    b.createFunction("main", Type::I64);
    Value *v = fused ? b.add(b.i64(1), b.i64(2)) : nullptr;
    Value *idx = masked ? b.and_(b.i64(k), b.i64(-1)) : b.i64(k);
    Value *off = b.mul(idx, b.i64(8));
    if (!fused)
        v = b.add(b.i64(1), b.i64(2));
    b.store(v, b.ptradd(g, off));
    b.ret(b.load(Type::I64, b.ptradd(g, off)));
    mod->finalize();
    return mod;
}

TEST(Interp, FusedStoresTrapAsUnfused)
{
    // Each fused store (mul -> ptradd -> store and its masked form,
    // with and without its event) ends as the unfused program does: a
    // store far past @g traps after its event, one in @g returns.
    for (bool masked : {false, true}) {
        for (bool event : {true, false}) {
            for (std::int64_t k : {std::int64_t{1} << 20, std::int64_t{3}}) {
                SCOPED_TRACE(std::string(masked ? "masked" : "plain") +
                             (event ? ", event" : ", quiet") + ", index " +
                             std::to_string(k));
                auto fused = buildIndexedStore(k, masked, true);
                auto unfused = buildIndexedStore(k, masked, false);
                const Selection fs(*fused, {}, event), us(*unfused, {}, event);
                const Outcome got = runSelected(*fused, fs.events);
                const Outcome want = runSelected(*unfused, us.events);
                EXPECT_EQ(got.end, want.end);
                EXPECT_EQ(got.cost, want.cost);
                EXPECT_EQ(got.events, want.events);
                EXPECT_EQ(got.end.starts_with("LP_TRAP"), k != 3) << got.end;
            }
        }
    }
}

TEST(Interp, MaskedIndexIntermediatesStayReadable)
{
    // Each fused masked-index run writes its and, mul and ptradd
    // results: later ops read them again, with and without events.
    Module mod("m");
    Global *g = mod.addGlobal("g", 64);
    IRBuilder b(mod);
    b.createFunction("main", Type::I64);
    b.store(b.i64(4), b.ptradd(g, b.i64(16)));
    Value *k = b.and_(b.i64(13), b.i64(7));             // and -> mul
    Value *o = b.mul(k, b.i64(8));                      // -> ptradd
    Value *p = b.ptradd(g, o);                          // -> store
    b.store(k, p);
    Value *k2 = b.and_(b.i64(6), b.i64(3));             // and -> ... load
    Value *o2 = b.mul(k2, b.i64(8));
    Value *v2 = b.load(Type::I64, b.ptradd(g, o2));
    Value *o3 = b.mul(b.i64(5), b.i64(8));              // mul -> ... store
    Value *p3 = b.ptradd(g, o3);
    b.store(o3, p3);
    Value *v3 = b.load(Type::I64, p);
    Value *sum = b.add(b.add(k, o), b.add(k2, o2));
    b.ret(b.add(b.add(sum, b.add(v2, v3)), b.sub(p3, p)));
    mod.finalize();
    // 5 + 40 + 2 + 16 + 4 + 40 + 0
    EXPECT_EQ(runModule(mod), 107u);
    for (bool accesses : {true, false}) {
        const Selection sel(mod, {}, accesses);
        EXPECT_EQ(runSelected(mod, sel.events).end, "returned 107");
    }
}

} // namespace
} // namespace lp

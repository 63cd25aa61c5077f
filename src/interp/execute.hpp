/**
 * @file
 * The interpreter loop, for instantiating Machine::run with a sink.
 *
 * Machine::run(Sink &, ...) is a template so that every sink's
 * per-event calls are direct and inline into the loop.  This header
 * holds the lowered code the loop executes and the loop itself.  The
 * interpreter's own sinks (null and listener) are instantiated in
 * machine.cpp; a layer above that drives the interpreter with a sink
 * of its own includes this header where it calls run().  Lowering
 * stays in machine.cpp: a Machine lowers its module when constructed.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "interp/machine.hpp"
#include "support/error.hpp"

namespace lp::interp {

/**
 * Operations of the lowered form: ir::Opcode's, in the same order so
 * lowering converts with a cast, Panic for malformed IR reached at run
 * time, the loads and stores whose events the Instrumentation does not
 * select, the entry of an inlined leaf call and the superinstructions.
 * PtrAdd runs as Add; Phi never runs (phis are edge copies).
 *
 * InlineCall stands where a call into an inlined leaf was (see
 * Instrumentation): it does what entering the leaf's block did, and the
 * leaf's ops follow it in the caller's block, renamed into registers of
 * the caller, the last of them writing the call's register.
 *
 * A superinstruction replaces the code of the first op of a run of
 * adjacent ops in one block (fuseBlock in machine.cpp): MulPtrAdd is
 * `mul` then the `ptradd` adding its product (what IRBuilder::elem
 * emits), MulPtrAddLoad that and the `load` of the sum, MulPtrAddStore
 * that and a `store` to the sum, each AndMulPtrAdd code an `and` whose
 * result the `mul` of that load's or store's run multiplies (a masked
 * index), ICmpLtBr an `icmp.lt` and the `br` on it, AddJmp an `add`
 * and a `jmp`.  The later ops keep their own slots and codes: the
 * handler reads their operands there and steps over them.
 */
enum class LoweredCode : std::uint8_t {
    Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr,
    FAdd, FSub, FMul, FDiv,
    ICmpEq, ICmpNe, ICmpLt, ICmpLe, ICmpGt, ICmpGe,
    FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
    Select, IToF, FToI, Alloca, Load, Store, PtrAdd, Phi,
    Call, CallExt, Br, Jmp, Ret,
    Panic, QuietLoad, QuietStore, InlineCall,
    MulPtrAdd, MulPtrAddLoad, MulPtrAddQuietLoad, MulPtrAddStore,
    MulPtrAddQuietStore,
    AndMulPtrAddLoad, AndMulPtrAddQuietLoad, AndMulPtrAddStore,
    AndMulPtrAddQuietStore,
    ICmpLtBr, AddJmp,
};

/**
 * The number of LoweredCodes (AddJmp stays last): one handler each in
 * Machine::execute.
 */
constexpr std::size_t kLoweredCodes =
    static_cast<std::size_t>(LoweredCode::AddJmp) + 1;

/**
 * One lowered instruction.  a and b are the source registers the
 * dispatch reads before jumping to the op's handler (register 0 when
 * unused: every frame has one), dst the result register.  c is
 * Select's third source; Load, Store, Call, CallExt, InlineCall and Ret
 * keep their in-block position there instead, which is what
 * preciseCost() counts (a load or store inside a fused run too).  aux
 * is Jmp's edge, Br's taken edge (c its fall-through edge), a call's
 * call site, InlineCall's callee (a function index), a load's or
 * store's memory-op id or a Panic's message.  Store reads its value
 * from a and its address from b; Ret returns a (a zero register for a
 * void return).
 */
struct LoweredOp
{
    LoweredCode code = LoweredCode::Panic;
    std::uint32_t dst = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t aux = 0;
    const ir::Instruction *instr = nullptr; ///< a call's, for callSite
};

/**
 * One function lowered to flat register code.  The register file of a
 * call is its locals (by localId; the arguments first), the registers
 * its inlined leaves' ops write (shared by every inlined call), one
 * scratch register for breaking phi-copy cycles, then the constants.
 */
struct LoweredFunction
{
    /** An edge's loop call-back after its exits (Instrumentation). */
    enum class LoopEvent : std::uint8_t { None, Enter, Iterate };
    /**
     * Entering a block along one CFG edge; edge 0 is the function
     * entry.  The edge fires its loop events and the block entry, the
     * phis' parallel copy (ordered into moves) runs, then the selected
     * phis fire in order.  An edge that reaches malformed phis resumes
     * at a Panic op and fires no phi.
     */
    struct Edge
    {
        std::uint32_t blockId = 0; ///< EventIds block id
        std::uint32_t size = 0;    ///< block's IR size: its clock charge
        std::uint32_t resume = 0;  ///< first op after the phis
        std::uint32_t movesBegin = 0, movesEnd = 0;
        std::uint32_t phisBegin = 0, phisEnd = 0; ///< the phis that fire
        std::uint32_t loop = 0;    ///< the loop a LoopEvent::Enter enters
        std::uint16_t exits = 0;   ///< loops the edge leaves
        LoopEvent loopEvent = LoopEvent::None;
        bool announce = false;     ///< fires blockEnter
    };
    struct Move
    {
        std::uint32_t dst, src;
    };
    struct Phi
    {
        std::uint32_t reg;
        std::uint32_t id; ///< EventIds phi id
    };
    /** Callee (function or ExternalFunction::index()) and arguments. */
    struct Call
    {
        std::uint32_t target;
        std::uint32_t argsBegin, argsEnd; ///< into callArgs
    };

    const ir::Function *fn = nullptr;
    std::uint32_t numArgs = 0;
    std::uint32_t numLocals = 0;
    std::uint32_t frameSize = 0;
    std::vector<std::uint64_t> consts; ///< registers numLocals + 1 on
    std::vector<LoweredOp> ops;
    std::vector<Edge> edges;
    std::vector<Move> moves;
    std::vector<Phi> phis;
    std::vector<Call> calls;
    std::vector<std::uint32_t> callArgs;
    std::vector<std::string> panics;
    /** Calls into it fire functionEnter and its returns functionExit. */
    bool announce = true;
};

/** Simulated call depth (main() included) past which a call fails. */
constexpr std::size_t kMaxCallDepth = 10'000;

namespace detail {

inline double
asF64(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

inline std::uint64_t
asBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

inline std::int64_t
asI64(std::uint64_t bits)
{
    return static_cast<std::int64_t>(bits);
}

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();

inline std::uint64_t
sdiv(std::uint64_t a, std::uint64_t b)
{
    if (b == 0)
        throw InterpreterTrap("division by zero");
    if (asI64(a) == kI64Min && asI64(b) == -1)
        throw InterpreterTrap("division overflow: INT64_MIN / -1");
    return static_cast<std::uint64_t>(asI64(a) / asI64(b));
}

inline std::uint64_t
srem(std::uint64_t a, std::uint64_t b)
{
    if (b == 0)
        throw InterpreterTrap("remainder by zero");
    if (asI64(a) == kI64Min && asI64(b) == -1)
        throw InterpreterTrap("remainder overflow: INT64_MIN % -1");
    return static_cast<std::uint64_t>(asI64(a) % asI64(b));
}

/**
 * ftoi truncates toward zero.  NaN and values outside [-2^63, 2^63)
 * give INT64_MIN, what the x86-64 conversion instruction returns, so
 * every input has one defined result on every host.
 */
inline std::uint64_t
ftoi(double v)
{
    if (v >= -0x1p63 && v < 0x1p63)
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    return static_cast<std::uint64_t>(kI64Min);
}

} // namespace detail

template <typename Sink>
std::uint64_t
Machine::run(Sink &sink)
{
    const LoweredFunction &main = beginRun();
    const std::uint64_t result = execute(main, sink);
    endRun();
    return result;
}

/*
 * The loop is direct-threaded: every handler ends in its own
 * LP_DISPATCH, which fetches the next op, reads its two sources and
 * jumps through kHandlers to that op's handler (labels as values, a
 * GNU extension GCC and Clang implement), so each handler's jump is
 * predicted on its own.  A handler that leaves the block sets e and
 * jumps to enter.  Every handler's locals sit in its own braces: a
 * jump never enters the scope of a declaration.
 */
#define LP_DISPATCH()                                                     \
    do {                                                                  \
        op = pc++;                                                        \
        x = regs[op->a];                                                  \
        y = regs[op->b];                                                  \
        goto *kHandlers[static_cast<std::size_t>(op->code)];              \
    } while (0)

template <typename Sink>
std::uint64_t
Machine::execute(const LoweredFunction &main, Sink &sink)
{
    using namespace detail;
    static const void *const kHandlers[] = {
        &&Add, &&Sub, &&Mul, &&SDiv, &&SRem, &&And, &&Or, &&Xor, &&Shl,
        &&AShr,
        &&FAdd, &&FSub, &&FMul, &&FDiv,
        &&ICmpEq, &&ICmpNe, &&ICmpLt, &&ICmpLe, &&ICmpGt, &&ICmpGe,
        &&FCmpEq, &&FCmpNe, &&FCmpLt, &&FCmpLe, &&FCmpGt, &&FCmpGe,
        &&Select, &&IToF, &&FToI, &&Alloca, &&Load, &&Store, &&PtrAdd,
        &&Phi,
        &&Call, &&CallExt, &&Br, &&Jmp, &&Ret,
        &&Panic, &&QuietLoad, &&QuietStore, &&InlineCall,
        &&MulPtrAdd, &&MulPtrAddLoad, &&MulPtrAddQuietLoad,
        &&MulPtrAddStore, &&MulPtrAddQuietStore,
        &&AndMulPtrAddLoad, &&AndMulPtrAddQuietLoad, &&AndMulPtrAddStore,
        &&AndMulPtrAddQuietStore,
        &&ICmpLtBr, &&AddJmp,
    };
    static_assert(std::size(kHandlers) == kLoweredCodes);

    const LoweredFunction *f = &main;
    std::size_t base = 0;
    std::uint64_t *regs = pushRegisters(main, base);
    frames_.push_back({nullptr, nullptr, 0, sp_, curBlockSize_, ipInBlock_});
    sink.functionEnter(main.fn);
    const LoweredFunction::Edge *e = &main.edges[0];
    const LoweredOp *pc = nullptr;
    const LoweredOp *op = nullptr;
    std::uint64_t x = 0, y = 0;

enter:
    // Enter e's block: charge all of it, check the budgets, fire the
    // edge's events, then resolve its phis (the copy runs before any
    // phi fires).
    cost_ += e->size;
    curBlockSize_ = e->size;
    ipInBlock_ = 0;
    if (cost_ > costLimit_) [[unlikely]]
        throwFuelExhausted(f->fn);
    if (cost_ >= nextPollCost_) [[unlikely]]
        pollBudgets(f->fn);
    if (e->exits)
        sink.loopExit(e->exits);
    if (e->loopEvent == LoweredFunction::LoopEvent::Enter)
        sink.loopEnter(e->loop);
    else if (e->loopEvent == LoweredFunction::LoopEvent::Iterate)
        sink.loopIterate();
    if (e->announce)
        sink.blockEnter(e->blockId);
    for (std::uint32_t i = e->movesBegin; i < e->movesEnd; ++i)
        regs[f->moves[i].dst] = regs[f->moves[i].src];
    for (std::uint32_t i = e->phisBegin; i < e->phisEnd; ++i)
        sink.phiResolved(f->phis[i].id, regs[f->phis[i].reg]);
    pc = f->ops.data() + e->resume;
    LP_DISPATCH();

Add:
PtrAdd: regs[op->dst] = x + y; LP_DISPATCH();
Sub: regs[op->dst] = x - y; LP_DISPATCH();
Mul: regs[op->dst] = x * y; LP_DISPATCH();
SDiv: regs[op->dst] = sdiv(x, y); LP_DISPATCH();
SRem: regs[op->dst] = srem(x, y); LP_DISPATCH();
And: regs[op->dst] = x & y; LP_DISPATCH();
Or: regs[op->dst] = x | y; LP_DISPATCH();
Xor: regs[op->dst] = x ^ y; LP_DISPATCH();
Shl: regs[op->dst] = x << (y & 63); LP_DISPATCH();
AShr:
    regs[op->dst] = static_cast<std::uint64_t>(asI64(x) >> (y & 63));
    LP_DISPATCH();
FAdd: regs[op->dst] = asBits(asF64(x) + asF64(y)); LP_DISPATCH();
FSub: regs[op->dst] = asBits(asF64(x) - asF64(y)); LP_DISPATCH();
FMul: regs[op->dst] = asBits(asF64(x) * asF64(y)); LP_DISPATCH();
FDiv: regs[op->dst] = asBits(asF64(x) / asF64(y)); LP_DISPATCH();
ICmpEq: regs[op->dst] = x == y; LP_DISPATCH();
ICmpNe: regs[op->dst] = x != y; LP_DISPATCH();
ICmpLt: regs[op->dst] = asI64(x) < asI64(y); LP_DISPATCH();
ICmpLe: regs[op->dst] = asI64(x) <= asI64(y); LP_DISPATCH();
ICmpGt: regs[op->dst] = asI64(x) > asI64(y); LP_DISPATCH();
ICmpGe: regs[op->dst] = asI64(x) >= asI64(y); LP_DISPATCH();
FCmpEq: regs[op->dst] = asF64(x) == asF64(y); LP_DISPATCH();
FCmpNe: regs[op->dst] = asF64(x) != asF64(y); LP_DISPATCH();
FCmpLt: regs[op->dst] = asF64(x) < asF64(y); LP_DISPATCH();
FCmpLe: regs[op->dst] = asF64(x) <= asF64(y); LP_DISPATCH();
FCmpGt: regs[op->dst] = asF64(x) > asF64(y); LP_DISPATCH();
FCmpGe: regs[op->dst] = asF64(x) >= asF64(y); LP_DISPATCH();
Select: regs[op->dst] = x ? y : regs[op->c]; LP_DISPATCH();
IToF: regs[op->dst] = asBits(static_cast<double>(asI64(x))); LP_DISPATCH();
FToI: regs[op->dst] = ftoi(asF64(x)); LP_DISPATCH();

Alloca:
    regs[op->dst] = sp_;
    sp_ = mem_.pushStack(sp_, x);
    LP_DISPATCH();
Load:
    ipInBlock_ = op->c;
    sink.load(op->aux, x);
    regs[op->dst] = mem_.load64(x);
    LP_DISPATCH();
QuietLoad: regs[op->dst] = mem_.load64(x); LP_DISPATCH();
Store:
    ipInBlock_ = op->c;
    sink.store(op->aux, y);
    mem_.store64(y, x);
    LP_DISPATCH();
QuietStore: mem_.store64(y, x); LP_DISPATCH();

Call: {
    ipInBlock_ = op->c;
    sink.callSite(op->instr);
    const LoweredFunction::Call &call = f->calls[op->aux];
    const LoweredFunction &callee = fns_[call.target];
    const std::uint32_t argc = call.argsEnd - call.argsBegin;
    if (argc != callee.numArgs) [[unlikely]]
        fatal("argument count mismatch calling @" + callee.fn->name());
    if (frames_.size() >= kMaxCallDepth) [[unlikely]]
        throwStackOverflow(callee.fn);
    frames_.push_back({f, pc, base, sp_, curBlockSize_, ipInBlock_});
    if (callee.announce)
        sink.functionEnter(callee.fn);
    // pushRegisters may move regs_ (Ret stores the result through the
    // fresh pointer).
    const std::size_t calleeBase = base + f->frameSize;
    std::uint64_t *args = pushRegisters(callee, calleeBase);
    regs = regs_.data() + base;
    for (std::uint32_t i = 0; i < argc; ++i)
        args[i] = regs[f->callArgs[call.argsBegin + i]];
    f = &callee;
    base = calleeBase;
    regs = args;
    e = &callee.edges[0];
    goto enter;
}
CallExt: {
    ipInBlock_ = op->c;
    sink.callSite(op->instr);
    const LoweredFunction::Call &call = f->calls[op->aux];
    extArgs_.clear();
    for (std::uint32_t i = call.argsBegin; i < call.argsEnd; ++i)
        extArgs_.push_back(regs[f->callArgs[i]]);
    cost_ += op->instr->externalCallee()->cost();
    regs[op->dst] = extImpls_[call.target](*this, extArgs_);
    LP_DISPATCH();
}
InlineCall: {
    // What entering the leaf's block did.  No frame is pushed:
    // curBlockSize_ stays the caller's and ipInBlock_ the call's
    // position, what the leaf's return restored.
    ipInBlock_ = op->c;
    sink.callSite(op->instr);
    const LoweredFunction &leaf = fns_[op->aux];
    if (frames_.size() >= kMaxCallDepth) [[unlikely]]
        throwStackOverflow(leaf.fn);
    cost_ += leaf.edges[0].size;
    if (cost_ > costLimit_) [[unlikely]]
        throwFuelExhausted(leaf.fn);
    if (cost_ >= nextPollCost_) [[unlikely]]
        pollBudgets(leaf.fn);
    LP_DISPATCH();
}

Br:
    e = &f->edges[x ? op->aux : op->c];
    goto enter;
Jmp:
    e = &f->edges[op->aux];
    goto enter;
Ret: {
    ipInBlock_ = op->c;
    if (f->announce)
        sink.functionExit(f->fn);
    const Frame fr = frames_.back();
    frames_.pop_back();
    sp_ = fr.sp;
    curBlockSize_ = fr.blockSize;
    ipInBlock_ = fr.ip;
    if (!fr.caller)
        return x;
    f = fr.caller;
    pc = fr.resume;
    base = fr.base;
    regs = regs_.data() + base;
    regs[pc[-1].dst] = x;
    LP_DISPATCH();
}
Phi:
Panic:
    panic(f->panics[op->aux]);

    // The superinstructions: each writes every component's result,
    // reading a later component's operands from its own slot after the
    // earlier results are written, and fires a load's or store's event
    // at that op's in-block position.  An and -> mul run masks the
    // mul's first operand, then runs the mul's superinstruction.
#define LP_MASK_THEN(run)                                                 \
    do {                                                                  \
        x &= y;                                                           \
        regs[op->dst] = x;                                                \
        op = pc++;                                                        \
        y = regs[op->b];                                                  \
        goto run;                                                         \
    } while (0)
AndMulPtrAddLoad: LP_MASK_THEN(MulPtrAddLoad);
AndMulPtrAddQuietLoad: LP_MASK_THEN(MulPtrAddQuietLoad);
AndMulPtrAddStore: LP_MASK_THEN(MulPtrAddStore);
AndMulPtrAddQuietStore: LP_MASK_THEN(MulPtrAddQuietStore);
#undef LP_MASK_THEN
MulPtrAdd: {
    const std::uint64_t product = x * y;
    regs[op->dst] = product;
    const LoweredOp &add = *pc++;
    regs[add.dst] = regs[add.a] + product;
    LP_DISPATCH();
}
MulPtrAddLoad: {
    const std::uint64_t product = x * y;
    regs[op->dst] = product;
    const LoweredOp &add = pc[0], &load = pc[1];
    pc += 2;
    const std::uint64_t addr = regs[add.a] + product;
    regs[add.dst] = addr;
    ipInBlock_ = load.c;
    sink.load(load.aux, addr);
    regs[load.dst] = mem_.load64(addr);
    LP_DISPATCH();
}
MulPtrAddQuietLoad: {
    const std::uint64_t product = x * y;
    regs[op->dst] = product;
    const LoweredOp &add = pc[0], &load = pc[1];
    pc += 2;
    const std::uint64_t addr = regs[add.a] + product;
    regs[add.dst] = addr;
    regs[load.dst] = mem_.load64(addr);
    LP_DISPATCH();
}
MulPtrAddStore: {
    const std::uint64_t product = x * y;
    regs[op->dst] = product;
    const LoweredOp &add = pc[0], &store = pc[1];
    pc += 2;
    const std::uint64_t addr = regs[add.a] + product;
    regs[add.dst] = addr;
    ipInBlock_ = store.c;
    sink.store(store.aux, addr);
    mem_.store64(addr, regs[store.a]);
    LP_DISPATCH();
}
MulPtrAddQuietStore: {
    const std::uint64_t product = x * y;
    regs[op->dst] = product;
    const LoweredOp &add = pc[0], &store = pc[1];
    pc += 2;
    const std::uint64_t addr = regs[add.a] + product;
    regs[add.dst] = addr;
    mem_.store64(addr, regs[store.a]);
    LP_DISPATCH();
}
ICmpLtBr: {
    const bool taken = asI64(x) < asI64(y);
    regs[op->dst] = taken;
    e = &f->edges[taken ? pc->aux : pc->c];
    goto enter;
}
AddJmp:
    regs[op->dst] = x + y;
    e = &f->edges[pc->aux];
    goto enter;
}

#undef LP_DISPATCH

} // namespace lp::interp

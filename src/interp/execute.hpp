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
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "interp/machine.hpp"
#include "support/error.hpp"

namespace lp::interp {

/**
 * Operations of the lowered form: ir::Opcode's, in the same order so
 * lowering converts with a cast, and Panic for malformed IR reached at
 * run time.  PtrAdd runs as Add; Phi never runs (phis are edge copies).
 */
enum class LoweredCode : std::uint8_t {
    Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, AShr,
    FAdd, FSub, FMul, FDiv,
    ICmpEq, ICmpNe, ICmpLt, ICmpLe, ICmpGt, ICmpGe,
    FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
    Select, IToF, FToI, Alloca, Load, Store, PtrAdd, Phi,
    Call, CallExt, Br, Jmp, Ret,
    Panic,
};

/**
 * One lowered instruction.  a and b are the source registers every op
 * reads before dispatch (register 0 when unused: every frame has one),
 * dst the result register.  c is Select's third source; Load, Store,
 * Call, CallExt and Ret keep their in-block position there instead,
 * which is what preciseCost() counts.  aux is Jmp's edge, Br's taken
 * edge (c its fall-through edge), a call's call site or a Panic's
 * message.  Store reads its value from a and its address from b; Ret
 * returns a (a zero register for a void return).
 */
struct LoweredOp
{
    LoweredCode code = LoweredCode::Panic;
    std::uint32_t dst = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t aux = 0;
    const ir::Instruction *instr = nullptr; ///< event payload
};

/**
 * One function lowered to flat register code.  The register file of a
 * call is its locals (by localId; the arguments first), one scratch
 * register for breaking phi-copy cycles, then the constants.
 */
struct LoweredFunction
{
    /**
     * Entering a block along one CFG edge; edge 0 is the function
     * entry.  The phis' parallel copy is ordered into moves, after
     * which the block's phis fire in order.  An edge that reaches
     * malformed phis resumes at a Panic op and fires none.
     */
    struct Edge
    {
        const ir::BasicBlock *block = nullptr;
        std::uint32_t blockId = 0; ///< module-wide (see Machine::run)
        std::uint32_t size = 0;    ///< block's IR size: its clock charge
        std::uint32_t resume = 0;  ///< first op after the phis
        std::uint32_t movesBegin = 0, movesEnd = 0;
        std::uint32_t phisBegin = 0, phisEnd = 0;
    };
    struct Move
    {
        std::uint32_t dst, src;
    };
    struct Phi
    {
        std::uint32_t reg;
        const ir::Instruction *instr;
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
Machine::run(Sink &sink, prof::EpochKind kind, std::uint64_t lanes)
{
    const LoweredFunction &main = beginRun(kind, lanes);
    const std::uint64_t result = execute(main, sink);
    endRun();
    return result;
}

template <typename Sink>
std::uint64_t
Machine::execute(const LoweredFunction &main, Sink &sink)
{
    using namespace detail;
    const LoweredFunction *f = &main;
    std::size_t base = 0;
    std::uint64_t *regs = pushRegisters(main, base);
    frames_.push_back({nullptr, nullptr, 0, sp_, curBlockSize_, ipInBlock_});
    sink.functionEnter(main.fn);
    const LoweredFunction::Edge *e = &main.edges[0];

    for (;;) {
        // Enter e's block: charge all of it, check the budgets, then
        // resolve its phis (the copy runs before any phi fires).
        cost_ += e->size;
        curBlockSize_ = e->size;
        ipInBlock_ = 0;
        if (cost_ > costLimit_) [[unlikely]]
            throwFuelExhausted(f->fn);
        if (cost_ >= nextPollCost_) [[unlikely]]
            pollBudgets(f->fn);
        sink.blockEnter(e->block, e->blockId);
        for (std::uint32_t i = e->movesBegin; i < e->movesEnd; ++i)
            regs[f->moves[i].dst] = regs[f->moves[i].src];
        for (std::uint32_t i = e->phisBegin; i < e->phisEnd; ++i)
            sink.phiResolved(f->phis[i].instr, regs[f->phis[i].reg]);
        const LoweredOp *pc = f->ops.data() + e->resume;

        // Run ops until control leaves the block: each case either
        // continues with the next op or sets e and breaks.
        for (;;) {
            const LoweredOp &op = *pc++;
            const std::uint64_t x = regs[op.a], y = regs[op.b];
            const std::int64_t ix = asI64(x), iy = asI64(y);
            const double fx = asF64(x), fy = asF64(y);
            std::uint64_t &out = regs[op.dst];
            using enum LoweredCode;
            switch (op.code) {
              case Add: case PtrAdd: out = x + y; continue;
              case Sub: out = x - y; continue;
              case Mul: out = x * y; continue;
              case SDiv: out = sdiv(x, y); continue;
              case SRem: out = srem(x, y); continue;
              case And: out = x & y; continue;
              case Or: out = x | y; continue;
              case Xor: out = x ^ y; continue;
              case Shl: out = x << (y & 63); continue;
              case AShr:
                out = static_cast<std::uint64_t>(ix >> (y & 63));
                continue;
              case FAdd: out = asBits(fx + fy); continue;
              case FSub: out = asBits(fx - fy); continue;
              case FMul: out = asBits(fx * fy); continue;
              case FDiv: out = asBits(fx / fy); continue;
              case ICmpEq: out = x == y; continue;
              case ICmpNe: out = x != y; continue;
              case ICmpLt: out = ix < iy; continue;
              case ICmpLe: out = ix <= iy; continue;
              case ICmpGt: out = ix > iy; continue;
              case ICmpGe: out = ix >= iy; continue;
              case FCmpEq: out = fx == fy; continue;
              case FCmpNe: out = fx != fy; continue;
              case FCmpLt: out = fx < fy; continue;
              case FCmpLe: out = fx <= fy; continue;
              case FCmpGt: out = fx > fy; continue;
              case FCmpGe: out = fx >= fy; continue;
              case Select: out = x ? y : regs[op.c]; continue;
              case IToF: out = asBits(static_cast<double>(ix)); continue;
              case FToI: out = ftoi(fx); continue;

              case Alloca:
                out = sp_;
                sp_ += (x + 7) & ~std::uint64_t{7};
                mem_.ensureStack(sp_);
                continue;
              case Load:
                ipInBlock_ = op.c;
                sink.load(op.instr, x);
                out = mem_.load64(x);
                continue;
              case Store:
                ipInBlock_ = op.c;
                sink.store(op.instr, y);
                mem_.store64(y, x);
                continue;

              case Call: {
                ipInBlock_ = op.c;
                sink.callSite(op.instr);
                const LoweredFunction::Call &call = f->calls[op.aux];
                const LoweredFunction &callee = fns_[call.target];
                const std::uint32_t argc = call.argsEnd - call.argsBegin;
                if (argc != callee.numArgs) [[unlikely]]
                    fatal("argument count mismatch calling @" +
                          callee.fn->name());
                if (frames_.size() >= kMaxCallDepth) [[unlikely]]
                    throwStackOverflow(callee.fn);
                frames_.push_back(
                    {f, pc, base, sp_, curBlockSize_, ipInBlock_});
                sink.functionEnter(callee.fn);
                // pushRegisters may move regs_ (out dangles from here
                // on; Ret stores the result through the fresh pointer).
                const std::size_t calleeBase = base + f->frameSize;
                std::uint64_t *args = pushRegisters(callee, calleeBase);
                regs = regs_.data() + base;
                for (std::uint32_t i = 0; i < argc; ++i)
                    args[i] = regs[f->callArgs[call.argsBegin + i]];
                f = &callee;
                base = calleeBase;
                regs = args;
                e = &callee.edges[0];
                break;
              }
              case CallExt: {
                ipInBlock_ = op.c;
                sink.callSite(op.instr);
                const LoweredFunction::Call &call = f->calls[op.aux];
                extArgs_.clear();
                for (std::uint32_t i = call.argsBegin; i < call.argsEnd; ++i)
                    extArgs_.push_back(regs[f->callArgs[i]]);
                cost_ += op.instr->externalCallee()->cost();
                out = extImpls_[call.target](*this, extArgs_);
                continue;
              }

              case Br:
                e = &f->edges[x ? op.aux : op.c];
                break;
              case Jmp:
                e = &f->edges[op.aux];
                break;
              case Ret: {
                ipInBlock_ = op.c;
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
                continue;
              }
              case Phi:
              case Panic:
                panic(f->panics[op.aux]);
            }
            break;
        }
    }
}

} // namespace lp::interp

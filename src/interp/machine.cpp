#include "interp/machine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <string>
#include <unordered_map>

#include "guard/fault.hpp"
#include "obs/metrics.hpp"
#include "prof/collector.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "trace/recorder.hpp"

namespace lp::interp {

using ir::Instruction;
using ir::Opcode;
using ir::ValueKind;

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
constexpr bool
mirrors(LoweredCode l, Opcode o)
{
    return static_cast<int>(l) == static_cast<int>(o);
}
static_assert(mirrors(LoweredCode::FCmpGe, Opcode::FCmpGe) &&
              mirrors(LoweredCode::Phi, Opcode::Phi) &&
              mirrors(LoweredCode::Ret, Opcode::Ret));

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
    const Instruction *instr = nullptr; ///< event payload
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
        std::uint32_t size = 0;   ///< block's IR size: its clock charge
        std::uint32_t resume = 0; ///< first op after the phis
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
        const Instruction *instr;
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

namespace {

double
asF64(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
asBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

std::int64_t
asI64(std::uint64_t bits)
{
    return static_cast<std::int64_t>(bits);
}

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();

std::uint64_t
sdiv(std::uint64_t a, std::uint64_t b)
{
    if (b == 0)
        throw InterpreterTrap("division by zero");
    if (asI64(a) == kI64Min && asI64(b) == -1)
        throw InterpreterTrap("division overflow: INT64_MIN / -1");
    return static_cast<std::uint64_t>(asI64(a) / asI64(b));
}

std::uint64_t
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
std::uint64_t
ftoi(double v)
{
    if (v >= -0x1p63 && v < 0x1p63)
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    return static_cast<std::uint64_t>(kI64Min);
}

/**
 * Instructions between wall-clock deadline polls.  A clock read every
 * ~262k instructions is a few hundred reads per simulated second —
 * invisible next to the interpreter loop — while bounding deadline
 * overshoot to a few milliseconds.  The profiler piggybacks on the
 * same poll (prof::kEpochStrideInstructions matches this stride) to
 * flush interp/record time epochs without adding a hot-loop branch.
 */
constexpr std::uint64_t kDeadlineStride = 1ULL << 18;

/** Simulated call depth (main() included) past which a call fails. */
constexpr std::size_t kMaxCallDepth = 10'000;

ErrorContext
fnContext(const ir::Function *fn)
{
    ErrorContext ctx;
    ctx.function = fn->name();
    return ctx;
}

[[noreturn]] void
throwStackOverflow(const ir::Function *fn)
{
    throw ResourceExhausted(ErrorCode::Stack,
                            "simulated call stack overflow calling @" +
                                fn->name(),
                            fnContext(fn));
}

/**
 * Order the parallel copy @p copies (distinct destinations) into
 * sequential moves appended to @p out.  A copy is emitted once no
 * other pending copy reads its destination; when only cycles remain,
 * one destination is saved in @p scratch and its readers redirected.
 */
void
sequentialize(std::vector<LoweredFunction::Move> copies,
              std::uint32_t scratch,
              std::vector<LoweredFunction::Move> &out)
{
    using Move = LoweredFunction::Move;
    std::erase_if(copies, [](const Move &m) { return m.dst == m.src; });
    while (!copies.empty()) {
        auto ready = std::find_if(
            copies.begin(), copies.end(), [&](const Move &m) {
                return std::none_of(
                    copies.begin(), copies.end(),
                    [&](const Move &o) { return o.src == m.dst; });
            });
        if (ready != copies.end()) {
            out.push_back(*ready);
            copies.erase(ready);
            continue;
        }
        const std::uint32_t saved = copies.front().dst;
        out.push_back({scratch, saved});
        for (Move &m : copies)
            if (m.src == saved)
                m.src = scratch;
    }
}

/** As Instruction::incomingFor, but null where that panics. */
const ir::Value *
incomingFrom(const Instruction &phi, const ir::BasicBlock *from)
{
    for (unsigned i = 0; i < phi.blocks().size(); ++i)
        if (phi.blocks()[i] == from)
            return phi.operand(i);
    return nullptr;
}

using FunctionIndex = std::unordered_map<const ir::Function *, std::uint32_t>;

/**
 * Lower @p fn (finalized, with a body) once.  Blocks are lowered in
 * order; branch edges are numbered as they appear and built afterwards,
 * when every block's first op is known.
 */
LoweredFunction
lowerFunction(const ir::Function &fn, const FunctionIndex &fnIndex)
{
    fatalIf(fn.blocks().empty(), "@" + fn.name() + " has no body");
    LoweredFunction lf;
    lf.fn = &fn;
    lf.numArgs = static_cast<std::uint32_t>(fn.args().size());
    lf.numLocals = fn.numLocals();
    const std::uint32_t scratch = lf.numLocals;

    std::unordered_map<std::uint64_t, std::uint32_t> constRegs;
    auto constant = [&](std::uint64_t bits) {
        const std::uint32_t next =
            scratch + 1 + static_cast<std::uint32_t>(lf.consts.size());
        auto [it, fresh] = constRegs.try_emplace(bits, next);
        if (fresh)
            lf.consts.push_back(bits);
        return it->second;
    };
    auto reg = [&](const ir::Value *v) -> std::uint32_t {
        switch (v->kind()) {
          case ValueKind::ConstInt:
            return constant(static_cast<std::uint64_t>(
                static_cast<const ir::ConstInt *>(v)->value()));
          case ValueKind::ConstFloat:
            return constant(
                asBits(static_cast<const ir::ConstFloat *>(v)->value()));
          case ValueKind::Global:
            return constant(
                Memory::kGlobalBase +
                static_cast<const ir::Global *>(v)->offsetBytes());
          case ValueKind::Argument:
          case ValueKind::Instruction:
            return v->localId();
        }
        panic("unreachable value kind");
    };
    auto panicOp = [&](std::string msg) {
        LoweredOp op;
        op.aux = static_cast<std::uint32_t>(lf.panics.size());
        lf.panics.push_back(std::move(msg));
        lf.ops.push_back(op);
        return static_cast<std::uint32_t>(lf.ops.size() - 1);
    };
    std::vector<std::pair<const ir::BasicBlock *, const ir::BasicBlock *>>
        edgeEnds{{nullptr, fn.entry()}};
    auto edgeTo = [&](const ir::BasicBlock *from, const ir::BasicBlock *to) {
        edgeEnds.emplace_back(from, to);
        return static_cast<std::uint32_t>(edgeEnds.size() - 1);
    };

    const std::size_t numBlocks = fn.blocks().size();
    std::vector<std::uint32_t> firstOp(numBlocks), phisBegin(numBlocks),
        phisEnd(numBlocks);
    for (std::size_t b = 0; b < numBlocks; ++b) {
        const ir::BasicBlock &bb = *fn.blocks()[b];
        const auto &instrs = bb.instructions();
        std::size_t ip = 0;
        phisBegin[b] = static_cast<std::uint32_t>(lf.phis.size());
        for (; ip < instrs.size() && instrs[ip]->isPhi(); ++ip)
            lf.phis.push_back({instrs[ip]->localId(), instrs[ip].get()});
        phisEnd[b] = static_cast<std::uint32_t>(lf.phis.size());
        firstOp[b] = static_cast<std::uint32_t>(lf.ops.size());

        for (; ip < instrs.size(); ++ip) {
            const Instruction &instr = *instrs[ip];
            const unsigned n = instr.numOperands();
            auto r = [&](unsigned i) { return reg(instr.operand(i)); };
            LoweredOp op;
            op.code = static_cast<LoweredCode>(instr.opcode());
            op.dst = instr.localId();
            op.c = static_cast<std::uint32_t>(ip);
            op.instr = &instr;
            switch (instr.opcode()) {
              case Opcode::Phi:
                panicOp("phi after non-phi in block " + bb.name());
                continue;
              case Opcode::Call:
              case Opcode::CallExt: {
                LoweredFunction::Call call;
                call.target = instr.opcode() == Opcode::CallExt
                                  ? instr.externalCallee()->index()
                                  : fnIndex.at(instr.callee());
                call.argsBegin =
                    static_cast<std::uint32_t>(lf.callArgs.size());
                for (unsigned i = 0; i < n; ++i)
                    lf.callArgs.push_back(r(i));
                call.argsEnd = static_cast<std::uint32_t>(lf.callArgs.size());
                op.aux = static_cast<std::uint32_t>(lf.calls.size());
                lf.calls.push_back(call);
                break;
              }
              case Opcode::Br:
                op.a = r(0);
                op.aux = edgeTo(&bb, instr.blocks()[0]);
                op.c = edgeTo(&bb, instr.blocks()[1]);
                break;
              case Opcode::Jmp:
                op.aux = edgeTo(&bb, instr.blocks()[0]);
                break;
              case Opcode::Ret:
                op.a = n == 1 ? r(0) : constant(0);
                break;
              default:
                if (n > 0)
                    op.a = r(0);
                if (n > 1)
                    op.b = r(1);
                if (n > 2)
                    op.c = r(2);
                break;
            }
            lf.ops.push_back(op);
        }
        if (!bb.terminator())
            panicOp("block fell through without terminator");
    }

    for (const auto &[from, to] : edgeEnds) {
        fatalIf(to->parent() != &fn,
                "@" + fn.name() + " branches to another function's block");
        const std::size_t b = to->index();
        LoweredFunction::Edge e;
        e.block = to;
        e.size = static_cast<std::uint32_t>(to->instructions().size());
        e.resume = firstOp[b];
        e.movesBegin = static_cast<std::uint32_t>(lf.moves.size());
        e.phisBegin = phisBegin[b];
        e.phisEnd = phisEnd[b];
        std::vector<LoweredFunction::Move> copies;
        std::string bad;
        for (std::uint32_t k = phisBegin[b]; k < phisEnd[b] && bad.empty();
             ++k) {
            const LoweredFunction::Phi &phi = lf.phis[k];
            if (!from)
                bad = "phi in entry block of @" + fn.name();
            else if (const ir::Value *in = incomingFrom(*phi.instr, from))
                copies.push_back({phi.reg, reg(in)});
            else
                bad = "phi has no incoming value for block " + from->name();
        }
        if (bad.empty()) {
            sequentialize(std::move(copies), scratch, lf.moves);
        } else {
            e.resume = panicOp(std::move(bad));
            e.phisEnd = e.phisBegin;
        }
        e.movesEnd = static_cast<std::uint32_t>(lf.moves.size());
        lf.edges.push_back(e);
    }
    lf.frameSize =
        scratch + 1 + static_cast<std::uint32_t>(lf.consts.size());
    return lf;
}

/**
 * Instrumentation sinks for the templated interpreter loop.  Each event
 * is a direct call the compiler can inline (and, for NullSink, erase),
 * so instrumentation costs nothing unless a sink actually consumes it.
 */
struct NullSink
{
    void functionEnter(const ir::Function *) {}
    void functionExit(const ir::Function *) {}
    void blockEnter(const ir::BasicBlock *) {}
    void phiResolved(const Instruction *, std::uint64_t) {}
    void load(const Instruction *, std::uint64_t) {}
    void store(const Instruction *, std::uint64_t) {}
    void callSite(const Instruction *) {}
};

/** Classic virtual-dispatch path for external ExecListener observers. */
struct ListenerSink
{
    ExecListener *l;

    void functionEnter(const ir::Function *fn) { l->onFunctionEnter(fn); }
    void functionExit(const ir::Function *fn) { l->onFunctionExit(fn); }
    void blockEnter(const ir::BasicBlock *bb) { l->onBlockEnter(bb); }
    void phiResolved(const Instruction *phi, std::uint64_t bits)
    {
        l->onPhiResolved(phi, bits);
    }
    void load(const Instruction *i, std::uint64_t a) { l->onLoad(i, a); }
    void store(const Instruction *i, std::uint64_t a) { l->onStore(i, a); }
    void callSite(const Instruction *i) { l->onCallSite(i); }
};

/**
 * Trace-recording path: forwards each event to the Recorder together
 * with the machine-clock sample taken at the call-back point, all as
 * direct calls.
 */
struct RecorderSink
{
    trace::Recorder *r;
    const Machine *m;

    void functionEnter(const ir::Function *fn) { r->functionEnter(fn); }
    void functionExit(const ir::Function *) { r->functionExit(m->cost()); }
    void blockEnter(const ir::BasicBlock *bb)
    {
        r->blockEnter(bb, m->cost(), m->stackPointer());
    }
    void phiResolved(const Instruction *, std::uint64_t bits)
    {
        r->phiResolved(bits);
    }
    void load(const Instruction *i, std::uint64_t a)
    {
        r->load(i, a, m->preciseCost());
    }
    void store(const Instruction *i, std::uint64_t a)
    {
        r->store(i, a, m->preciseCost());
    }
    void callSite(const Instruction *i) { r->callSite(i); }
};

} // namespace

Machine::Machine(const ir::Module &mod, ExecListener *listener)
    : mod_(mod), listener_(listener)
{
    FunctionIndex index;
    for (const auto &fn : mod.functions()) {
        fatalIf(!fn->finalized(),
                "module not finalized before interpretation");
        index.emplace(fn.get(), static_cast<std::uint32_t>(index.size()));
    }
    fns_.reserve(mod.functions().size());
    for (const auto &fn : mod.functions())
        fns_.push_back(lowerFunction(*fn, index));
    // Copy the external impls so stateful ones (rand's LCG) restart per
    // run and never share mutable state across concurrent Machines.
    extImpls_.reserve(mod.externals().size());
    for (const auto &ext : mod.externals())
        extImpls_.push_back(ext->impl());
    setBudget(guard::defaultBudget());
}

Machine::~Machine() = default;

void
Machine::setBudget(const guard::RunBudget &b)
{
    costLimit_ = b.maxInstructions == 0 ? UINT64_MAX : b.maxInstructions;
    wallLimitMs_ = b.maxWallMs;
    mem_.setHeapLimit(b.maxHeapBytes);
}

void
Machine::throwFuelExhausted(const ir::Function *fn) const
{
    throw ResourceExhausted(
        ErrorCode::Fuel,
        strf("dynamic instruction limit exceeded in @%s: %llu "
             "instructions > budget %llu",
             fn->name().c_str(), static_cast<unsigned long long>(cost_),
             static_cast<unsigned long long>(costLimit_)),
        fnContext(fn));
}

void
Machine::flushEpoch()
{
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t instructions = cost_ - epochStartCost_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - epochStartTime_)
            .count();
    if (instructions > 0 || ns > 0)
        prof::Collector::instance().addEpoch(
            recorder_ ? prof::EpochKind::Record : prof::EpochKind::Interp,
            instructions, static_cast<std::uint64_t>(ns));
    epochStartCost_ = cost_;
    epochStartTime_ = now;
}

void
Machine::pollBudgets(const ir::Function *fn)
{
    nextPollCost_ = cost_ + kDeadlineStride;
    // Attribute before any deadline throw: an aborted run's time is
    // still time spent.
    if (profiling_)
        flushEpoch();
    if (wallLimitMs_ == 0 ||
        std::chrono::steady_clock::now() <= deadline_)
        return;
    throw ResourceExhausted(
        ErrorCode::Deadline,
        strf("wall-clock budget of %llu ms exceeded in @%s after %llu "
             "instructions",
             static_cast<unsigned long long>(wallLimitMs_),
             fn->name().c_str(), static_cast<unsigned long long>(cost_)),
        fnContext(fn));
}

std::uint64_t
Machine::run()
{
    fatalIf(ran_, "Machine::run may only be called once");
    ran_ = true;
    guard::faultPoint("interp");
    profiling_ = prof::profilingOn();
    if (wallLimitMs_ != 0)
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(wallLimitMs_);
    if (wallLimitMs_ != 0 || profiling_) {
        nextPollCost_ = 0; // first block reaches the cold poll
        epochStartCost_ = cost_;
        epochStartTime_ = std::chrono::steady_clock::now();
    }

    for (const auto &g : mod_.globals()) {
        [[maybe_unused]] std::uint64_t addr =
            mem_.allocGlobal(g->sizeBytes());
        assert(addr == Memory::kGlobalBase + g->offsetBytes() &&
               "module global layout disagrees with Memory::allocGlobal");
    }

    const ir::Function *main = mod_.mainFunction();
    fatalIf(!main, "module has no main()");
    fatalIf(!main->args().empty(), "main() must take no arguments");
    const LoweredFunction &entry = *std::find_if(
        fns_.begin(), fns_.end(),
        [&](const LoweredFunction &lf) { return lf.fn == main; });
    std::uint64_t result;
    if (recorder_)
        result = execute(entry, RecorderSink{recorder_, this});
    else if (listener_)
        result = execute(entry, ListenerSink{listener_});
    else
        result = execute(entry, NullSink{});

    if (profiling_)
        flushEpoch(); // attribute the tail of the final epoch
    if (obs::metricsOn()) {
        obs::Registry &reg = obs::Registry::instance();
        reg.counter("interp.instructions").add(cost_);
        reg.counter("interp.runs").add(1);
    }
    return result;
}

std::uint64_t *
Machine::pushRegisters(const LoweredFunction &fn, std::size_t base)
{
    const std::size_t top = base + fn.frameSize;
    if (regs_.size() < top)
        regs_.resize(std::max(top, 2 * regs_.size()));
    std::uint64_t *r = regs_.data() + base;
    std::fill_n(r, fn.numLocals, std::uint64_t{0});
    std::copy(fn.consts.begin(), fn.consts.end(), r + fn.numLocals + 1);
    return r;
}

template <typename Sink>
std::uint64_t
Machine::execute(const LoweredFunction &main, Sink sink)
{
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
        sink.blockEnter(e->block);
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

#include "interp/execute.hpp"

#include <cassert>
#include <unordered_map>

#include "guard/fault.hpp"
#include "obs/metrics.hpp"
#include "support/text.hpp"

namespace lp::interp {

using ir::Instruction;
using ir::Opcode;
using ir::ValueKind;

namespace {

constexpr bool
mirrors(LoweredCode l, Opcode o)
{
    return static_cast<int>(l) == static_cast<int>(o);
}
static_assert(mirrors(LoweredCode::FCmpGe, Opcode::FCmpGe) &&
              mirrors(LoweredCode::Phi, Opcode::Phi) &&
              mirrors(LoweredCode::Ret, Opcode::Ret));

/**
 * Instructions between wall-clock deadline polls.  A clock read every
 * ~262k instructions is a few hundred reads per simulated second —
 * invisible next to the interpreter loop — while bounding deadline
 * overshoot to a few milliseconds.  The profiler piggybacks on the
 * same poll to flush its time epochs without adding a hot-loop branch.
 */
constexpr std::uint64_t kDeadlineStride = 1ULL << 18;

ErrorContext
fnContext(const ir::Function *fn)
{
    ErrorContext ctx;
    ctx.function = fn->name();
    return ctx;
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
lowerFunction(const ir::Function &fn, const FunctionIndex &fnIndex,
              std::uint32_t blockBase)
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
                detail::asBits(
                    static_cast<const ir::ConstFloat *>(v)->value()));
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
        e.blockId = blockBase + static_cast<std::uint32_t>(b);
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

/** The null sink: every event compiles away. */
struct NullSink
{
    void functionEnter(const ir::Function *) {}
    void functionExit(const ir::Function *) {}
    void blockEnter(const ir::BasicBlock *, std::uint32_t) {}
    void phiResolved(const Instruction *, std::uint64_t) {}
    void load(const Instruction *, std::uint64_t) {}
    void store(const Instruction *, std::uint64_t) {}
    void callSite(const Instruction *) {}
};

/** Virtual dispatch to an ExecListener, one call per event. */
struct ListenerSink
{
    ExecListener *l;

    void functionEnter(const ir::Function *fn) { l->onFunctionEnter(fn); }
    void functionExit(const ir::Function *fn) { l->onFunctionExit(fn); }
    void blockEnter(const ir::BasicBlock *bb, std::uint32_t)
    {
        l->onBlockEnter(bb);
    }
    void phiResolved(const Instruction *phi, std::uint64_t bits)
    {
        l->onPhiResolved(phi, bits);
    }
    void load(const Instruction *i, std::uint64_t a) { l->onLoad(i, a); }
    void store(const Instruction *i, std::uint64_t a) { l->onStore(i, a); }
    void callSite(const Instruction *i) { l->onCallSite(i); }
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
    std::uint32_t blockBase = 0;
    for (const auto &fn : mod.functions()) {
        fns_.push_back(lowerFunction(*fn, index, blockBase));
        blockBase += static_cast<std::uint32_t>(fn->blocks().size());
    }
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
Machine::throwStackOverflow(const ir::Function *callee)
{
    throw ResourceExhausted(ErrorCode::Stack,
                            "simulated call stack overflow calling @" +
                                callee->name(),
                            fnContext(callee));
}

void
Machine::flushEpoch()
{
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t instructions =
        (cost_ - epochStartCost_) * epochLanes_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - epochStartTime_)
            .count();
    if (instructions > 0 || ns > 0)
        prof::Collector::instance().addEpoch(
            epochKind_, instructions, static_cast<std::uint64_t>(ns));
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

const LoweredFunction &
Machine::beginRun(prof::EpochKind kind, std::uint64_t lanes)
{
    fatalIf(ran_, "Machine::run may only be called once");
    ran_ = true;
    guard::faultPoint("interp");
    profiling_ = prof::profilingOn();
    epochKind_ = kind;
    epochLanes_ = lanes;
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
    return *std::find_if(
        fns_.begin(), fns_.end(),
        [&](const LoweredFunction &lf) { return lf.fn == main; });
}

void
Machine::endRun()
{
    if (profiling_)
        flushEpoch(); // attribute the tail of the final epoch
    if (obs::metricsOn()) {
        obs::Registry &reg = obs::Registry::instance();
        reg.counter("interp.instructions").add(cost_);
        reg.counter("interp.runs").add(1);
    }
}

std::uint64_t
Machine::run()
{
    if (listener_) {
        ListenerSink sink{listener_};
        return run(sink, prof::EpochKind::Interp);
    }
    NullSink sink;
    return run(sink, prof::EpochKind::Interp);
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

} // namespace lp::interp

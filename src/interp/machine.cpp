#include "interp/execute.hpp"

#include <cassert>
#include <span>
#include <unordered_map>
#include <unordered_set>

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
 * overshoot to a few milliseconds.
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

/**
 * The superinstruction of a `mul` -> `ptradd` run at @p i among @p ops,
 * taking in the `load` or `store` of its sum that follows it, or Panic
 * when no run starts there.  @p later receives the run's ops after the
 * first.
 */
LoweredCode
mulRun(std::span<const LoweredOp> ops, std::size_t i, std::size_t &later)
{
    using enum LoweredCode;
    if (i + 1 >= ops.size() || ops[i].code != Mul ||
        ops[i + 1].code != PtrAdd || ops[i + 1].b != ops[i].dst)
        return Panic;
    later = 2;
    const std::uint32_t sum = ops[i + 1].dst;
    const LoweredOp *access = i + 2 < ops.size() ? &ops[i + 2] : nullptr;
    if (access && access->a == sum && access->code == Load)
        return MulPtrAddLoad;
    if (access && access->a == sum && access->code == QuietLoad)
        return MulPtrAddQuietLoad;
    if (access && access->b == sum && access->code == Store)
        return MulPtrAddStore;
    if (access && access->b == sum && access->code == QuietStore)
        return MulPtrAddQuietStore;
    later = 1;
    return MulPtrAdd;
}

/**
 * The `and` -> @p run form of a mul run that takes in its load or
 * store (the codes are laid out alike).
 */
constexpr LoweredCode
masked(LoweredCode run)
{
    using enum LoweredCode;
    return static_cast<LoweredCode>(static_cast<int>(run) -
                                    static_cast<int>(MulPtrAddLoad) +
                                    static_cast<int>(AndMulPtrAddLoad));
}
static_assert(masked(LoweredCode::MulPtrAddQuietStore) ==
              LoweredCode::AndMulPtrAddQuietStore);

/**
 * Rewrite the first op of each fusable run among one block's @p ops to
 * its superinstruction (see LoweredCode).  A run is adjacent ops whose
 * later component reads the earlier one's result where the handler
 * passes it on: the mul's first operand is the and's result (in a run
 * that ends in a load or store), the ptradd's offset is the mul's
 * product, the load's or store's address is the ptradd's sum, the br's
 * condition is the icmp's result.  No
 * run holds a call, so no call returns into the middle of one, and a
 * block is entered only at its first op after the phis.
 */
void
fuseBlock(std::span<LoweredOp> ops)
{
    using enum LoweredCode;
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
        LoweredOp &op = ops[i];
        const LoweredOp &next = ops[i + 1];
        std::size_t later = 1; // ops of the run after the first
        LoweredCode run = Panic;
        if (op.code == And && next.code == Mul && next.a == op.dst &&
            (run = mulRun(ops, i + 1, later)) != Panic && run != MulPtrAdd) {
            op.code = masked(run);
            ++later;
        } else if ((run = mulRun(ops, i, later)) != Panic) {
            op.code = run;
        } else if (op.code == ICmpLt && next.code == Br && next.a == op.dst) {
            op.code = ICmpLtBr;
        } else if (op.code == Add && next.code == Jmp) {
            op.code = AddJmp;
        } else {
            continue;
        }
        i += later; // the run's later ops run inside its handler
    }
}

using FunctionIndex = std::unordered_map<const ir::Function *, std::uint32_t>;

/**
 * Classify the edge into block @p to from block @p from (-1: the
 * function's entry) against @p loops, the way the block stream's rule
 * does: every open loop that does not hold @p to closes, then reaching
 * a header iterates its loop if that loop is still open, else enters
 * it.  The open loops at a block are exactly the loops holding it
 * (natural loops are entered through their headers), so the loops that
 * close are those between @p from's innermost loop and the innermost
 * loop holding both ends.
 */
void
classifyEdge(const LoopForest &loops, std::int64_t from, std::uint32_t to,
             LoweredFunction::Edge &e)
{
    auto depth = [&](std::int32_t l) { return l < 0 ? 0u : loops.depth[l]; };
    const std::int32_t target = loops.blockLoop[to];
    std::int32_t common = from < 0 ? -1 : loops.blockLoop[from];
    const std::uint32_t fromDepth = depth(common);
    for (std::int32_t other = target; common != other;) {
        if (depth(common) >= depth(other))
            common = loops.parent[common];
        else
            other = loops.parent[other];
    }
    const std::uint32_t exits = fromDepth - depth(common);
    panicIf(exits > UINT16_MAX, "loop nest too deep to instrument");
    e.exits = static_cast<std::uint16_t>(exits);
    if (target >= 0 && loops.header[target] == to) {
        e.loopEvent = common == target ? LoweredFunction::LoopEvent::Iterate
                                       : LoweredFunction::LoopEvent::Enter;
        e.loop = static_cast<std::uint32_t>(target);
    }
}

/**
 * Can calls into @p fn (function @p fi, unselected in @p events) run
 * inline?  It must be a leaf of one block that fires nothing: no phi,
 * call, alloca, load or store, its block neither selected nor in a
 * loop, and a `ret` its only terminator.  Every operand must be a
 * constant, a global, an argument or an earlier instruction of the
 * block, so its ops read in the caller's registers what they read in
 * a frame of their own.
 */
bool
inlineableLeaf(const ir::Function &fn, std::uint32_t fi, const EventIds &ids,
               const Instrumentation &events)
{
    const std::uint32_t block = ids.blockBase[fi];
    if (fn.blocks().size() != 1 || events.blocks[block] ||
        events.loops->blockLoop[block] >= 0)
        return false;
    const auto &body = fn.entry()->instructions();
    if (body.empty() || body.back()->opcode() != Opcode::Ret)
        return false;
    std::unordered_set<const ir::Value *> defined;
    for (const auto &instr : body) {
        switch (instr->opcode()) {
          case Opcode::Phi: case Opcode::Call: case Opcode::CallExt:
          case Opcode::Alloca: case Opcode::Load: case Opcode::Store:
          case Opcode::Br: case Opcode::Jmp:
            return false;
          case Opcode::Ret:
            if (instr != body.back())
                return false;
            break;
          default:
            break;
        }
        for (unsigned i = 0; i < instr->numOperands(); ++i) {
            const ir::Value *v = instr->operand(i);
            if (v->kind() == ValueKind::Argument
                    ? static_cast<const ir::Argument *>(v)->parent() != &fn
                    : v->kind() == ValueKind::Instruction && !defined.count(v))
                return false;
        }
        defined.insert(instr.get());
    }
    return true;
}

/**
 * Lower @p fn (finalized, with a body; function @p fi of the module)
 * once.  Blocks are lowered in order; branch edges are numbered as they
 * appear and built afterwards, when every block's first op is known.
 * Without @p events every block entry, phi, load and store fires and
 * no loop event does.  A call into a function @p leaves marks, with as
 * many operands as it has arguments, runs inline.
 */
LoweredFunction
lowerFunction(const ir::Function &fn, std::uint32_t fi,
              const FunctionIndex &fnIndex, const EventIds &ids,
              const Instrumentation *events, const std::vector<bool> &leaves)
{
    fatalIf(fn.blocks().empty(), "@" + fn.name() + " has no body");
    LoweredFunction lf;
    lf.fn = &fn;
    lf.numArgs = static_cast<std::uint32_t>(fn.args().size());
    auto inlined = [&](const Instruction &call) {
        return call.opcode() == Opcode::Call &&
               leaves[fnIndex.at(call.callee())] &&
               call.numOperands() == call.callee()->args().size();
    };
    // Every inlined call's leaf writes the same registers, after the
    // function's own locals: all but its ret write one each.
    std::uint32_t leafRegs = 0;
    for (const auto &bb : fn.blocks())
        for (const auto &instr : bb->instructions())
            if (inlined(*instr))
                leafRegs = std::max(
                    leafRegs,
                    static_cast<std::uint32_t>(
                        instr->callee()->entry()->instructions().size() - 1));
    lf.numLocals = fn.numLocals() + leafRegs;
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
    // While an inlined leaf's ops are lowered: its values' registers in
    // this function, by the leaf's local ids (empty otherwise).
    std::vector<std::uint32_t> leafReg;
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
            return leafReg.empty() ? v->localId() : leafReg[v->localId()];
        }
        panic("unreachable value kind");
    };
    // A plain op: its sources in a, b and c, its result in dst.
    auto plainOp = [&](const Instruction &instr, std::uint32_t dst) {
        LoweredOp op;
        op.code = static_cast<LoweredCode>(instr.opcode());
        op.dst = dst;
        op.instr = &instr;
        const unsigned n = instr.numOperands();
        if (n > 0)
            op.a = reg(instr.operand(0));
        if (n > 1)
            op.b = reg(instr.operand(1));
        if (n > 2)
            op.c = reg(instr.operand(2));
        return op;
    };
    // A call into a leaf: InlineCall, then the leaf's ops.  The
    // returned instruction writes the call's register unless the call
    // reads an argument from it; a returned argument or constant (or
    // that instruction) is moved there, as an add of zero.
    auto inlineLeaf = [&](const Instruction &call, std::uint32_t ip) {
        const ir::Function &leaf = *call.callee();
        const auto &body = leaf.entry()->instructions();
        LoweredOp entry;
        entry.code = LoweredCode::InlineCall;
        entry.c = ip;
        entry.aux = fnIndex.at(&leaf);
        entry.instr = &call;
        lf.ops.push_back(entry);

        std::vector<std::uint32_t> regs(leaf.numLocals());
        for (unsigned i = 0; i < call.numOperands(); ++i)
            regs[i] = reg(call.operand(i));
        const Instruction &ret = *body.back();
        const ir::Value *value = ret.numOperands() ? ret.operand(0) : nullptr;
        const std::uint32_t dst = call.localId();
        const bool direct =
            value && value->kind() == ValueKind::Instruction &&
            std::find(regs.begin(), regs.begin() + call.numOperands(), dst) ==
                regs.begin() + call.numOperands();
        std::uint32_t extra = fn.numLocals();
        for (std::size_t k = 0; k + 1 < body.size(); ++k)
            regs[body[k]->localId()] =
                direct && body[k].get() == value ? dst : extra++;
        leafReg = std::move(regs);
        for (std::size_t k = 0; k + 1 < body.size(); ++k)
            lf.ops.push_back(plainOp(*body[k], leafReg[body[k]->localId()]));
        if (value && !direct) {
            LoweredOp move;
            move.code = LoweredCode::Add;
            move.dst = dst;
            move.a = reg(value);
            move.b = constant(0);
            move.instr = &ret;
            lf.ops.push_back(move);
        }
        leafReg.clear();
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

    // Every phi of each block, for the edge copies; lf.phis keeps the
    // ones that fire.
    std::vector<const Instruction *> blockPhis;
    std::uint32_t phiId = ids.phiBase[fi], memId = ids.memBase[fi];
    const std::size_t numBlocks = fn.blocks().size();
    std::vector<std::uint32_t> firstOp(numBlocks), phisBegin(numBlocks),
        phisEnd(numBlocks), firedBegin(numBlocks), firedEnd(numBlocks);
    for (std::size_t b = 0; b < numBlocks; ++b) {
        const ir::BasicBlock &bb = *fn.blocks()[b];
        const auto &instrs = bb.instructions();
        std::size_t ip = 0;
        phisBegin[b] = static_cast<std::uint32_t>(blockPhis.size());
        firedBegin[b] = static_cast<std::uint32_t>(lf.phis.size());
        for (; ip < instrs.size() && instrs[ip]->isPhi(); ++ip, ++phiId) {
            assert(ids.phis[phiId] == instrs[ip].get());
            blockPhis.push_back(instrs[ip].get());
            if (!events || events->phis[phiId])
                lf.phis.push_back({instrs[ip]->localId(), phiId});
        }
        phisEnd[b] = static_cast<std::uint32_t>(blockPhis.size());
        firedEnd[b] = static_cast<std::uint32_t>(lf.phis.size());
        firstOp[b] = static_cast<std::uint32_t>(lf.ops.size());

        for (; ip < instrs.size(); ++ip) {
            const Instruction &instr = *instrs[ip];
            if (inlined(instr)) {
                inlineLeaf(instr, static_cast<std::uint32_t>(ip));
                continue;
            }
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
                ++phiId;
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
              case Opcode::Load:
              case Opcode::Store:
                assert(ids.memOps[memId] == &instr);
                op.a = r(0);
                if (n > 1)
                    op.b = r(1);
                op.aux = memId;
                if (events && !events->memOps[memId])
                    op.code = instr.opcode() == Opcode::Load
                                  ? LoweredCode::QuietLoad
                                  : LoweredCode::QuietStore;
                ++memId;
                break;
              default:
                op = plainOp(instr, op.dst);
                break;
            }
            lf.ops.push_back(op);
        }
        fuseBlock(std::span(lf.ops).subspan(firstOp[b]));
        if (!bb.terminator())
            panicOp("block fell through without terminator");
    }

    for (const auto &[from, to] : edgeEnds) {
        fatalIf(to->parent() != &fn,
                "@" + fn.name() + " branches to another function's block");
        const std::size_t b = to->index();
        LoweredFunction::Edge e;
        e.blockId = ids.blockBase[fi] + static_cast<std::uint32_t>(b);
        e.size = static_cast<std::uint32_t>(to->instructions().size());
        e.resume = firstOp[b];
        e.movesBegin = static_cast<std::uint32_t>(lf.moves.size());
        e.phisBegin = firedBegin[b];
        e.phisEnd = firedEnd[b];
        e.announce = !events || events->blocks[e.blockId];
        if (events) {
            const std::int64_t fromId =
                from ? static_cast<std::int64_t>(ids.blockBase[fi] +
                                                 from->index())
                     : -1;
            classifyEdge(*events->loops, fromId, e.blockId, e);
        }
        std::vector<LoweredFunction::Move> copies;
        std::string bad;
        for (std::uint32_t k = phisBegin[b]; k < phisEnd[b] && bad.empty();
             ++k) {
            const Instruction &phi = *blockPhis[k];
            if (!from)
                bad = "phi in entry block of @" + fn.name();
            else if (const ir::Value *in = incomingFrom(phi, from))
                copies.push_back({phi.localId(), reg(in)});
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
    void loopExit(std::uint32_t) {}
    void loopEnter(std::uint32_t) {}
    void loopIterate() {}
    void blockEnter(std::uint32_t) {}
    void phiResolved(std::uint32_t, std::uint64_t) {}
    void load(std::uint32_t, std::uint64_t) {}
    void store(std::uint32_t, std::uint64_t) {}
    void callSite(const Instruction *) {}
};

/**
 * Virtual dispatch to an ExecListener, one call per event.  A
 * listener's Machine has no Instrumentation, so no loop event fires.
 */
struct ListenerSink
{
    ExecListener *l;
    const EventIds &ids;

    void functionEnter(const ir::Function *fn) { l->onFunctionEnter(fn); }
    void functionExit(const ir::Function *fn) { l->onFunctionExit(fn); }
    void loopExit(std::uint32_t) {}
    void loopEnter(std::uint32_t) {}
    void loopIterate() {}
    void blockEnter(std::uint32_t b) { l->onBlockEnter(ids.blocks[b]); }
    void phiResolved(std::uint32_t phi, std::uint64_t bits)
    {
        l->onPhiResolved(ids.phis[phi], bits);
    }
    void load(std::uint32_t i, std::uint64_t a) { l->onLoad(ids.memOps[i], a); }
    void store(std::uint32_t i, std::uint64_t a)
    {
        l->onStore(ids.memOps[i], a);
    }
    void callSite(const Instruction *i) { l->onCallSite(i); }
};

} // namespace

EventIds::EventIds(const ir::Module &mod)
{
    for (const auto &fn : mod.functions()) {
        blockBase.push_back(static_cast<std::uint32_t>(blocks.size()));
        phiBase.push_back(static_cast<std::uint32_t>(phis.size()));
        memBase.push_back(static_cast<std::uint32_t>(memOps.size()));
        for (const auto &bb : fn->blocks()) {
            blocks.push_back(bb.get());
            for (const auto &instr : bb->instructions()) {
                if (instr->isPhi())
                    phis.push_back(instr.get());
                else if (instr->opcode() == Opcode::Load ||
                         instr->opcode() == Opcode::Store)
                    memOps.push_back(instr.get());
            }
        }
    }
}

Machine::Machine(const ir::Module &mod, ExecListener *listener)
    : mod_(mod), listener_(listener), ids_(mod)
{
    lower(nullptr);
}

Machine::Machine(const ir::Module &mod, const Instrumentation &events)
    : mod_(mod), ids_(mod)
{
    panicIf(!events.loops ||
                events.loops->blockLoop.size() != ids_.blocks.size() ||
                events.functions.size() != mod.functions().size() ||
                events.blocks.size() != ids_.blocks.size() ||
                events.phis.size() != ids_.phis.size() ||
                events.memOps.size() != ids_.memOps.size(),
            "instrumentation does not match the module");
    lower(&events);
}

void
Machine::lower(const Instrumentation *events)
{
    FunctionIndex index;
    for (const auto &fn : mod_.functions()) {
        fatalIf(!fn->finalized(),
                "module not finalized before interpretation");
        index.emplace(fn.get(), static_cast<std::uint32_t>(index.size()));
    }
    // With an Instrumentation only main's and the selected functions'
    // calls announce themselves, and calls into the inlineable leaves
    // among the rest run inline.
    const ir::Function *main = mod_.mainFunction();
    std::vector<bool> announce(index.size(), true), leaves(index.size());
    for (std::uint32_t fi = 0; events && fi < index.size(); ++fi) {
        const ir::Function &fn = *mod_.functions()[fi];
        announce[fi] = events->functions[fi] || &fn == main;
        leaves[fi] = !announce[fi] && inlineableLeaf(fn, fi, ids_, *events);
    }
    fns_.reserve(index.size());
    for (const auto &fn : mod_.functions()) {
        const auto fi = static_cast<std::uint32_t>(fns_.size());
        fns_.push_back(lowerFunction(*fn, fi, index, ids_, events, leaves));
        fns_.back().announce = announce[fi];
    }
    // Copy the external impls so stateful ones (rand's LCG) restart per
    // run and never share mutable state across concurrent Machines.
    extImpls_.reserve(mod_.externals().size());
    for (const auto &ext : mod_.externals())
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
Machine::pollBudgets(const ir::Function *fn)
{
    nextPollCost_ = cost_ + kDeadlineStride;
    if (std::chrono::steady_clock::now() <= deadline_)
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
Machine::beginRun()
{
    fatalIf(ran_, "Machine::run may only be called once");
    ran_ = true;
    guard::faultPoint("interp");
    if (wallLimitMs_ != 0) {
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(wallLimitMs_);
        nextPollCost_ = 0; // first block reaches the cold poll
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
    // Counted before main() starts, so a run that a trap or a budget
    // aborts counts too.
    if (obs::metricsOn())
        obs::Registry::instance().counter("interp.runs").add(1);
    return *std::find_if(
        fns_.begin(), fns_.end(),
        [&](const LoweredFunction &lf) { return lf.fn == main; });
}

void
Machine::endRun()
{
    if (obs::metricsOn())
        obs::Registry::instance().counter("interp.instructions").add(cost_);
}

std::uint64_t
Machine::run()
{
    if (listener_) {
        ListenerSink sink{listener_, ids_};
        return run(sink);
    }
    NullSink sink;
    return run(sink);
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

#include "analysis/scev.hpp"

#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::analysis {

using ir::Instruction;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

namespace {

// Constant folds wrap modulo 2^64, as the interpreter's Add and Mul do.
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

} // namespace

ScalarEvolution::ScalarEvolution(const ir::Function &fn, const LoopInfo &li)
    : fn_(fn), li_(li)
{
    cannot_ = alloc({.kind = ScevKind::CannotCompute});
}

const Scev *
ScalarEvolution::alloc(Scev node)
{
    arena_.push_back(std::make_unique<Scev>(node));
    return arena_.back().get();
}

const Scev *
ScalarEvolution::getConst(std::int64_t v)
{
    return alloc({.kind = ScevKind::Const, .konst = v});
}

const Scev *
ScalarEvolution::getInvariant(const Value *v)
{
    if (v->kind() == ValueKind::ConstInt)
        return getConst(static_cast<const ir::ConstInt *>(v)->value());
    return alloc({.kind = ScevKind::Invariant, .value = v});
}

const Scev *
ScalarEvolution::getAddRec(const Loop *loop, const Scev *start,
                           const Scev *step)
{
    if (!start->known() || !step->known())
        return cannot_;
    return alloc(
        {.kind = ScevKind::AddRec, .loop = loop, .lhs = start, .rhs = step});
}

const Scev *
ScalarEvolution::getCannotCompute()
{
    return cannot_;
}

const Scev *
ScalarEvolution::addScev(const Scev *a, const Scev *b)
{
    if (!a->known() || !b->known())
        return cannot_;
    if (a->isConst() && b->isConst())
        return getConst(wrapAdd(a->konst, b->konst));
    if (a->isConst() && a->konst == 0)
        return b;
    if (b->isConst() && b->konst == 0)
        return a;
    if (a->isAddRec() && b->isAddRec()) {
        if (a->loop != b->loop)
            return cannot_;
        return getAddRec(a->loop, addScev(a->lhs, b->lhs),
                         addScev(a->rhs, b->rhs));
    }
    if (b->isAddRec())
        std::swap(a, b);
    if (a->isAddRec()) {
        // AddRec + invariant expression: folds into the start.
        return getAddRec(a->loop, addScev(a->lhs, b), a->rhs);
    }
    return alloc({.kind = ScevKind::Add, .lhs = a, .rhs = b});
}

const Scev *
ScalarEvolution::mulScev(const Scev *a, const Scev *b)
{
    if (!a->known() || !b->known())
        return cannot_;
    if (a->isConst() && b->isConst())
        return getConst(wrapMul(a->konst, b->konst));
    if (a->isConst() && a->konst == 0)
        return getConst(0);
    if (b->isConst() && b->konst == 0)
        return getConst(0);
    if (a->isConst() && a->konst == 1)
        return b;
    if (b->isConst() && b->konst == 1)
        return a;
    if (a->isAddRec() && b->isAddRec())
        return cannot_; // non-affine
    if (b->isAddRec())
        std::swap(a, b);
    if (a->isAddRec()) {
        // AddRec * invariant: distributes over start and step.
        return getAddRec(a->loop, mulScev(a->lhs, b), mulScev(a->rhs, b));
    }
    return alloc({.kind = ScevKind::Mul, .lhs = a, .rhs = b});
}

const Scev *
ScalarEvolution::negScev(const Scev *a)
{
    return mulScev(a, getConst(-1));
}

bool
ScalarEvolution::isLoopInvariant(const Value *v, const Loop *loop) const
{
    switch (v->kind()) {
      case ValueKind::ConstInt:
      case ValueKind::ConstFloat:
      case ValueKind::Argument:
      case ValueKind::Global:
        return true;
      case ValueKind::Instruction:
        return !loop->contains(
            static_cast<const Instruction *>(v)->parent());
    }
    return false;
}

namespace {

/** Is every leaf of @p s a Const, an Invariant, or an AddRec of @p loop? */
bool
affineAvailable(const Scev *s, const Loop *loop)
{
    switch (s->kind) {
      case ScevKind::Const:
      case ScevKind::Invariant:
        return true;
      case ScevKind::AddRec:
        return s->loop == loop && affineAvailable(s->lhs, loop) &&
               affineAvailable(s->rhs, loop);
      case ScevKind::Add:
      case ScevKind::Mul:
        return affineAvailable(s->lhs, loop) &&
               affineAvailable(s->rhs, loop);
      case ScevKind::CannotCompute:
        return false;
    }
    return false;
}

} // namespace

const Scev *
ScalarEvolution::phiEvolution(const Instruction *phi)
{
    auto it = phiMemo_.find(phi);
    if (it != phiMemo_.end())
        return it->second;
    if (phiInProgress_[phi])
        return cannot_; // recurrence cycle; not a simple MIV chain
    phiInProgress_[phi] = true;
    const Scev *result = computePhiEvolution(phi);
    phiInProgress_[phi] = false;
    phiMemo_[phi] = result;
    return result;
}

const Scev *
ScalarEvolution::computePhiEvolution(const Instruction *phi)
{
    if (!phi->isPhi())
        return cannot_;
    const Loop *loop = li_.loopAtHeader(phi->parent());
    if (!loop || !loop->isCanonical() || phi->numOperands() != 2)
        return cannot_;

    const ir::BasicBlock *preheader = loop->preheader();
    const ir::BasicBlock *latch = loop->latches().front();
    const Value *start = phi->incomingFor(preheader);
    const Value *next = phi->incomingFor(latch);

    if (!isLoopInvariant(start, loop))
        return cannot_;
    const Scev *startScev = getInvariant(start);

    // Express `next` as k*phi + rest, with rest free of phi (k modulo
    // 2^64, like the values it scales).
    struct Lin
    {
        std::uint64_t k;
        const Scev *rest;
    };
    // Recursive linear-form extraction.
    auto linear = [&](auto &&self, const Value *v) -> std::optional<Lin> {
        if (v == phi)
            return Lin{1, getConst(0)};
        if (isLoopInvariant(v, loop))
            return Lin{0, getInvariant(v)};
        const auto *instr = static_cast<const Instruction *>(v);
        switch (instr->opcode()) {
          case Opcode::Add: {
            auto a = self(self, instr->operand(0));
            auto b = self(self, instr->operand(1));
            if (!a || !b)
                return std::nullopt;
            return Lin{a->k + b->k, addScev(a->rest, b->rest)};
          }
          case Opcode::Sub: {
            auto a = self(self, instr->operand(0));
            auto b = self(self, instr->operand(1));
            if (!a || !b)
                return std::nullopt;
            return Lin{a->k - b->k, addScev(a->rest, negScev(b->rest))};
          }
          case Opcode::Mul: {
            auto a = self(self, instr->operand(0));
            auto b = self(self, instr->operand(1));
            if (!a || !b)
                return std::nullopt;
            if (a->k == 0 && a->rest->isConst())
                return Lin{b->k * a->rest->konst,
                           mulScev(b->rest, a->rest)};
            if (b->k == 0 && b->rest->isConst())
                return Lin{a->k * b->rest->konst,
                           mulScev(a->rest, b->rest)};
            if (a->k == 0 && b->k == 0)
                return Lin{0, mulScev(a->rest, b->rest)};
            return std::nullopt;
          }
          case Opcode::Shl: {
            auto a = self(self, instr->operand(0));
            auto b = self(self, instr->operand(1));
            if (!a || !b || !b->rest->isConst() || b->k != 0)
                return std::nullopt;
            // The interpreter shifts by the amount's low 6 bits.
            const std::uint64_t m = std::uint64_t{1}
                                    << (b->rest->konst & 63);
            return Lin{a->k * m,
                       mulScev(a->rest,
                               getConst(static_cast<std::int64_t>(m)))};
          }
          case Opcode::Phi: {
            // A different header phi of the same loop: a mutual induction
            // variable if it has its own add-recurrence.
            if (li_.loopAtHeader(instr->parent()) == loop) {
                const Scev *rec = phiEvolution(instr);
                if (rec->isAddRec())
                    return Lin{0, rec};
            }
            return std::nullopt;
          }
          default:
            return std::nullopt;
        }
    };

    auto lin = linear(linear, next);
    if (!lin || lin->k != 1)
        return cannot_;
    if (!affineAvailable(lin->rest, loop))
        return cannot_;
    return getAddRec(loop, startScev, lin->rest);
}

bool
ScalarEvolution::isComputablePhi(const Instruction *phi)
{
    return phiEvolution(phi)->isAddRec();
}

const Scev *
ScalarEvolution::scevOf(const Value *v, const Loop *loop)
{
    return computeScevOf(v, loop);
}

const Scev *
ScalarEvolution::computeScevOf(const Value *v, const Loop *loop)
{
    if (v->kind() == ValueKind::ConstInt)
        return getConst(static_cast<const ir::ConstInt *>(v)->value());
    if (isLoopInvariant(v, loop))
        return getInvariant(v);

    const auto *instr = static_cast<const Instruction *>(v);
    switch (instr->opcode()) {
      case Opcode::Phi: {
        const Loop *atHeader = li_.loopAtHeader(instr->parent());
        if (atHeader == loop) {
            const Scev *rec = phiEvolution(instr);
            return rec->isAddRec() ? rec : cannot_;
        }
        // Phis of subloops vary within one iteration of `loop`; phis of
        // ancestor loops were handled by the invariance check above.
        return cannot_;
      }
      case Opcode::Add:
      case Opcode::PtrAdd:
        return addScev(computeScevOf(instr->operand(0), loop),
                       computeScevOf(instr->operand(1), loop));
      case Opcode::Sub:
        return addScev(computeScevOf(instr->operand(0), loop),
                       negScev(computeScevOf(instr->operand(1), loop)));
      case Opcode::Mul:
        return mulScev(computeScevOf(instr->operand(0), loop),
                       computeScevOf(instr->operand(1), loop));
      case Opcode::Shl: {
        const Scev *amt = computeScevOf(instr->operand(1), loop);
        if (!amt->isConst() || amt->konst < 0 || amt->konst > 62)
            return cannot_;
        return mulScev(computeScevOf(instr->operand(0), loop),
                       getConst(std::int64_t{1} << amt->konst));
      }
      default:
        return cannot_;
    }
}

std::optional<std::int64_t>
ScalarEvolution::evaluateAt(
    const Scev *s, std::uint64_t n,
    const std::unordered_map<const Value *, std::int64_t> &invariants) const
{
    switch (s->kind) {
      case ScevKind::Const:
        return s->konst;
      case ScevKind::Invariant: {
        auto it = invariants.find(s->value);
        if (it == invariants.end())
            return std::nullopt;
        return it->second;
      }
      case ScevKind::Add: {
        auto a = evaluateAt(s->lhs, n, invariants);
        auto b = evaluateAt(s->rhs, n, invariants);
        if (!a || !b)
            return std::nullopt;
        return *a + *b;
      }
      case ScevKind::Mul: {
        auto a = evaluateAt(s->lhs, n, invariants);
        auto b = evaluateAt(s->rhs, n, invariants);
        if (!a || !b)
            return std::nullopt;
        return *a * *b;
      }
      case ScevKind::AddRec: {
        // value(n) = start + sum_{i<n} step(i); higher-order steps are
        // themselves AddRecs, so iterate (testing hook, small n only).
        auto acc = evaluateAt(s->lhs, 0, invariants);
        if (!acc)
            return std::nullopt;
        for (std::uint64_t i = 0; i < n; ++i) {
            auto step = evaluateAt(s->rhs, i, invariants);
            if (!step)
                return std::nullopt;
            *acc += *step;
        }
        return acc;
      }
      case ScevKind::CannotCompute:
        return std::nullopt;
    }
    return std::nullopt;
}

std::string
ScalarEvolution::str(const Scev *s) const
{
    switch (s->kind) {
      case ScevKind::Const:
        return std::to_string(s->konst);
      case ScevKind::Invariant:
        return s->value->name().empty() ? "%inv" : "%" + s->value->name();
      case ScevKind::AddRec:
        return "{" + str(s->lhs) + ",+," + str(s->rhs) + "}<" +
               s->loop->label() + ">";
      case ScevKind::Add:
        return "(" + str(s->lhs) + " + " + str(s->rhs) + ")";
      case ScevKind::Mul:
        return "(" + str(s->lhs) + " * " + str(s->rhs) + ")";
      case ScevKind::CannotCompute:
        return "<<cannot-compute>>";
    }
    return "?";
}

} // namespace lp::analysis

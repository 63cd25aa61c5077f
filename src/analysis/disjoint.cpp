#include "analysis/disjoint.hpp"

#include <cstdlib>
#include <vector>

namespace lp::analysis {

using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/** An access with affine address {base + start, +, step} in the loop. */
struct AffineAccess
{
    const Instruction *instr;
    std::int64_t start; ///< constant byte offset from the base object
    std::int64_t step;  ///< constant byte stride per iteration
};

/**
 * Decompose an address SCEV into (constant start offset, constant step),
 * requiring the start to be Invariant(base) + constants.  @p base is the
 * ptradd-resolved object, which appears as the single pointer-typed
 * invariant leaf.
 */
bool
decompose(const Scev *s, const Value *base, std::int64_t &start,
          std::int64_t &step)
{
    // Accept either an AddRec (strided walk) or a loop-invariant address
    // (step 0 is handled by the caller as "same address every iteration").
    const Scev *startExpr = s;
    const Scev *stepExpr = nullptr;
    if (s->isAddRec()) {
        startExpr = s->lhs;
        stepExpr = s->rhs;
        if (stepExpr->isAddRec())
            return false; // non-constant (higher-order) stride
    }

    if (stepExpr) {
        if (!stepExpr->isConst())
            return false;
        step = stepExpr->konst;
    } else {
        step = 0;
    }

    // start must be base + const: walk the Add tree, expect exactly one
    // Invariant leaf equal to `base`, everything else Const.
    std::int64_t offset = 0;
    int baseSeen = 0;
    auto walk = [&](auto &&self, const Scev *e) -> bool {
        switch (e->kind) {
          case ScevKind::Const:
            offset += e->konst;
            return true;
          case ScevKind::Invariant:
            if (e->value == base) {
                ++baseSeen;
                return true;
            }
            return false;
          case ScevKind::Add:
            return self(self, e->lhs) && self(self, e->rhs);
          default:
            return false;
        }
    };
    if (!walk(walk, startExpr) || baseSeen != 1)
        return false;
    start = offset;
    return true;
}

} // namespace

DisjointFilter::DisjointFilter(const ir::Function &fn, const LoopInfo &li,
                               ScalarEvolution &se, const UseMap &uses,
                               const PurityAnalysis &purity)
{
    auto escaped = escapedAllocas(fn, uses);
    for (const auto &loop : li.loops())
        analyzeLoop(loop.get(), se, escaped, purity);
}

void
DisjointFilter::analyzeLoop(
    const Loop *loop, ScalarEvolution &se,
    const std::unordered_set<const Instruction *> &escaped,
    const PurityAnalysis &purity)
{
    // Collect every access in the loop, grouped by base object.
    struct Group
    {
        std::vector<AffineAccess> affine;
        std::vector<const Instruction *> opaque; ///< base known, addr not
        bool anyStore = false;
        bool anyOpaqueAccess = false;
    };
    std::unordered_map<const Value *, Group> groups;
    bool haveUnknownBase = false;
    bool haveUnknownBaseStore = false;

    for (const ir::BasicBlock *bb : loop->blocks()) {
        for (const auto &instr : bb->instructions()) {
            const Value *addr = nullptr;
            bool isStore = false;
            if (instr->opcode() == Opcode::Load) {
                addr = instr->operand(0);
            } else if (instr->opcode() == Opcode::Store) {
                addr = instr->operand(1);
                isStore = true;
            } else {
                // An impure callee may store to any non-local object,
                // and its stores happen inside this loop's iterations.
                if (instr->opcode() == Opcode::Call &&
                    purity.purity(instr->callee()) == Purity::Impure)
                    haveUnknownBase = haveUnknownBaseStore = true;
                continue;
            }

            const Value *base = resolveBaseObject(addr);
            if (!base) {
                haveUnknownBase = true;
                haveUnknownBaseStore |= isStore;
                continue;
            }
            Group &g = groups[base];
            g.anyStore |= isStore;
            std::int64_t start = 0, step = 0;
            const Scev *s = se.scevOf(addr, loop);
            if (!s->known() || !decompose(s, base, start, step)) {
                // Base identified, but the address has no affine
                // evolution (data-dependent index).
                g.opaque.push_back(instr.get());
                g.anyOpaqueAccess = true;
                continue;
            }
            g.affine.push_back({instr.get(), start, step});
        }
    }

    auto &out = untracked_[loop];
    for (auto &[base, g] : groups) {
        bool isAlloca = base->kind() == ir::ValueKind::Instruction;
        if (isAlloca &&
            escaped.count(static_cast<const Instruction *>(base))) {
            continue; // escaped alloca: unknown pointers may alias it
        }
        // In the presence of unresolvable pointers in the loop, only
        // non-escaped allocas are provably unaliased.  (A read-only
        // group is still safe when the unresolved accesses are all
        // loads.)
        bool unaliased = isAlloca || !haveUnknownBase;
        bool unaliasedForReads = isAlloca || !haveUnknownBaseStore;

        // A base that is never stored to inside the loop cannot source a
        // RAW conflict at all (lookup tables, read-only inputs) — even
        // accesses with data-dependent indices are conflict-free.
        if (!g.anyStore && unaliasedForReads) {
            for (const AffineAccess &a : g.affine)
                out.insert(a.instr);
            for (const Instruction *i : g.opaque)
                out.insert(i);
            continue;
        }
        if (!unaliased || g.anyOpaqueAccess)
            continue;

        const std::vector<AffineAccess> &accs = g.affine;
        if (accs.empty())
            continue;

        // All accesses must share one constant stride that is a whole
        // number of granules, and all offsets must be granule-aligned.
        std::int64_t step = accs.front().step;
        bool ok = step != 0 && std::llabs(step) >= 8 && step % 8 == 0;
        for (const AffineAccess &a : accs) {
            if (a.step != step || a.start % 8 != 0)
                ok = false;
        }
        if (!ok)
            continue;

        // No two accesses may be a whole number of strides apart (that
        // would be a cross-iteration dependence at that distance).
        for (std::size_t i = 0; ok && i < accs.size(); ++i) {
            for (std::size_t j = i + 1; ok && j < accs.size(); ++j) {
                std::int64_t d = accs[i].start - accs[j].start;
                if (d != 0 && d % step == 0)
                    ok = false;
            }
        }
        if (!ok)
            continue;

        for (const AffineAccess &a : accs)
            out.insert(a.instr);
    }
}

bool
DisjointFilter::untracked(const Loop *loop,
                          const Instruction *access) const
{
    auto it = untracked_.find(loop);
    return it != untracked_.end() && it->second.count(access) != 0;
}

std::size_t
DisjointFilter::filteredCount(const Loop *loop) const
{
    auto it = untracked_.find(loop);
    return it == untracked_.end() ? 0 : it->second.size();
}

} // namespace lp::analysis

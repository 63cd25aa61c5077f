/**
 * @file
 * Scalar evolution analysis.
 *
 * The paper uses LLVM's SCEV pass to decide which register loop-carried
 * dependencies are *computable*: header phis whose per-iteration value is a
 * pure function of the iteration index (induction variables and mutual
 * induction variables).  Computable LCDs are regenerated thread-locally in
 * an SpMT machine and never serialize iterations.
 *
 * This is a faithful, reduced reimplementation: affine add-recurrences
 * {start, +, step} with loop-invariant operands, including higher-order
 * recurrences where the step is itself an add-recurrence of the same loop
 * (mutual induction variables).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/loop_info.hpp"

namespace lp::analysis {

/** Kinds of SCEV expressions. */
enum class ScevKind {
    Const,         ///< integer literal
    Invariant,     ///< opaque loop-invariant value
    AddRec,        ///< {start, +, step} over a loop
    Add,           ///< lhs + rhs
    Mul,           ///< lhs * rhs
    CannotCompute, ///< no static evolution found
};

/** Immutable SCEV expression node (arena-owned by ScalarEvolution). */
struct Scev
{
    ScevKind kind;
    std::int64_t konst = 0;              ///< Const payload
    const ir::Value *value = nullptr;    ///< Invariant payload
    const Loop *loop = nullptr;          ///< AddRec payload
    const Scev *lhs = nullptr;           ///< AddRec start / Add / Mul
    const Scev *rhs = nullptr;           ///< AddRec step / Add / Mul

    bool isConst() const { return kind == ScevKind::Const; }
    bool isAddRec() const { return kind == ScevKind::AddRec; }
    bool known() const { return kind != ScevKind::CannotCompute; }
};

/**
 * Per-function scalar-evolution engine.
 *
 * Results are memoized; Scev nodes live as long as the engine.
 */
class ScalarEvolution
{
  public:
    ScalarEvolution(const ir::Function &fn, const LoopInfo &li);

    /**
     * Evolution of header phi @p phi around its loop; an AddRec when the
     * phi is a computable IV/MIV, CannotCompute otherwise.
     */
    const Scev *phiEvolution(const ir::Instruction *phi);

    /** Is @p phi a computable (IV/MIV) register LCD of its header's loop? */
    bool isComputablePhi(const ir::Instruction *phi);

    /**
     * SCEV of an arbitrary value as seen from inside @p loop.  Used for
     * memory-address evolutions by the loop PDG's memory relation.
     */
    const Scev *scevOf(const ir::Value *v, const Loop *loop);

    /** Is @p v invariant in @p loop (defined outside it)? */
    bool isLoopInvariant(const ir::Value *v, const Loop *loop) const;

    /**
     * Evaluate a SCEV at iteration @p n given concrete values for the
     * Invariant leaves (testing hook; iterates higher-order recurrences).
     */
    std::optional<std::int64_t>
    evaluateAt(const Scev *s, std::uint64_t n,
               const std::unordered_map<const ir::Value *, std::int64_t>
                   &invariants = {}) const;

    /** Human-readable form, e.g. "{0,+,8}<loop main.i.hdr>". */
    std::string str(const Scev *s) const;

    /// @name Scev construction (exposed for tests)
    /// @{
    const Scev *getConst(std::int64_t v);
    const Scev *getInvariant(const ir::Value *v);
    const Scev *getAddRec(const Loop *loop, const Scev *start,
                          const Scev *step);
    const Scev *getCannotCompute();
    const Scev *addScev(const Scev *a, const Scev *b);
    const Scev *mulScev(const Scev *a, const Scev *b);
    const Scev *negScev(const Scev *a);
    /// @}

  private:
    const Scev *alloc(Scev node);
    const Scev *computePhiEvolution(const ir::Instruction *phi);
    const Scev *computeScevOf(const ir::Value *v, const Loop *loop);

    const ir::Function &fn_;
    const LoopInfo &li_;
    std::vector<std::unique_ptr<Scev>> arena_;
    const Scev *cannot_;
    std::unordered_map<const ir::Instruction *, const Scev *> phiMemo_;
    std::unordered_map<const ir::Instruction *, bool> phiInProgress_;
};

} // namespace lp::analysis

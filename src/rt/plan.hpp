/**
 * @file
 * The compile-time instrumentation plan.
 *
 * This is the output of Loopapalooza's compile-time component (paper
 * Section III-A): per function, the canonicalized loop forest, the SCEV /
 * reduction classification of every header phi, the statically filtered
 * memory accesses, purity facts, and the def sites whose timestamps the
 * runtime needs.  Everything here is configuration-independent; the
 * per-configuration decisions (which loops are statically sequential)
 * are computed on top by rt::applyConfig.
 */

#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/analyses.hpp"
#include "rt/config.hpp"

namespace lp::rt {

/** Why a loop cannot be parallelized under a given configuration. */
enum class SerialReason {
    None,          ///< eligible for parallel execution
    NonCanonical,  ///< loop not in loopsimplify form
    RegisterLcd,   ///< non-computable register LCD under dep0
    CallPolicy,    ///< a call site the fn flag does not admit
    DynamicPolicy, ///< serialized at run time (conflicts / HELIX formula)
};

/** Printable reason. */
const char *serialReasonName(SerialReason r);

/** A non-computable register LCD the runtime must watch. */
struct TrackedPhi
{
    const ir::Instruction *phi;
    /**
     * The instruction defining the value carried into the next iteration,
     * or null when the latch value is loop-invariant (a one-shot LCD that
     * never truly serializes).
     */
    const ir::Instruction *defInstr;
    bool isReduction; ///< tracked only because reduc0 demoted it
};

/** Compile-time facts about one loop. */
struct LoopPlan
{
    const analysis::Loop *loop = nullptr;

    /** Module-wide loop number, in functionPlans()/loopPlans order.
     *  The runtime's per-configuration loop table is indexed by this,
     *  so config-independent lookups (header block -> loop, def watch
     *  -> loop) resolve through the shared plan instead of per-cell
     *  hash maps. */
    unsigned ordinal = 0;

    std::vector<const ir::Instruction *> computablePhis; ///< IVs & MIVs
    /**
     * AddRec nesting depth of each computable phi (parallel to
     * computablePhis; 1 = affine IV, 2 = MIV, ...).  Precomputed here
     * because ScalarEvolution memoizes through non-const methods and a
     * ModulePlan is shared read-only across sweep workers.
     */
    std::vector<unsigned> computableDepths;
    std::vector<analysis::ReductionDescriptor> reductions;
    /** Non-computable, non-reduction header phis. */
    std::vector<TrackedPhi> nonComputable;

    /**
     * Every phi the runtime could ever track: nonComputable first, then
     * the reductions reduc0 demotes to plain tracked LCDs.  A given
     * configuration tracks a *prefix-selected* slice of this — all of
     * it under reduc0, just the nonComputable prefix otherwise — so the
     * runtime stores one count per loop instead of copying the vector
     * per cell (the per-cell copies were allocator traffic on every
     * sweep worker).
     */
    std::vector<TrackedPhi> trackedAll;
    /** Phi -> index into trackedAll (configs ignore out-of-prefix hits). */
    std::unordered_map<const ir::Instruction *, unsigned> trackedIndex;

    /** Loads/stores needing no conflict tracking at this loop's level
     *  (analysis::untrackedAccesses). */
    std::unordered_set<const ir::Instruction *> untrackedMem;

    /** Direct Call instructions anywhere in the loop body. */
    std::vector<const ir::Instruction *> callSites;

    bool hasCalls() const { return !callSites.empty(); }
};

/** Position of an instruction inside its block (for def timestamps). */
struct DefSite
{
    const ir::Instruction *instr;
    unsigned offsetInBlock; ///< instructions preceding it, inclusive of it
};

/**
 * A def site the runtime may need to timestamp, resolved at plan time:
 * which loop (by ordinal) and which tracked-LCD slot it feeds.  The
 * per-configuration decision — is that loop eligible, is that slot
 * inside the config's tracked prefix — is two integer compares at the
 * use site, so the whole watch table is shared read-only across cells.
 */
struct PlannedDefWatch
{
    const ir::Instruction *instr;
    unsigned offsetInBlock;
    unsigned loopOrdinal; ///< LoopPlan::ordinal of the watched loop
    unsigned regIndex;    ///< index into that loop's trackedAll
};

/** Compile-time facts about one function. */
struct FunctionPlan
{
    const ir::Function *fn = nullptr;

    /** One plan per loop, indexed by Loop::id(). */
    std::vector<LoopPlan> loopPlans;

    /** Header block -> its loop plan. */
    std::unordered_map<const ir::BasicBlock *, LoopPlan *> byHeader;

    /** Blocks containing def sites the runtime timestamps. */
    std::unordered_map<const ir::BasicBlock *, std::vector<DefSite>>
        defSites;

    /** Does this function transitively reach an Unsafe external? */
    bool reachesUnsafeExt = false;
    /** Does this function transitively reach a non-Pure external? */
    bool reachesNonPureExt = false;
};

/** The whole compile-time component's output. */
class ModulePlan
{
  public:
    /**
     * Build the analysis bundle of a finalized, verified module and
     * plan it.  The loop plans point into the bundle's loop forests.
     */
    explicit ModulePlan(const ir::Module &mod);

    const ir::Module &module() const { return analyses_.module(); }

    /** The module's analyses, shared with the verdicts and lint. */
    const analysis::ModuleAnalyses &analyses() const { return analyses_; }

    const FunctionPlan &planFor(const ir::Function *fn) const;

    /** All function plans. */
    const std::vector<std::unique_ptr<FunctionPlan>> &functionPlans() const
    {
        return plans_;
    }

    /** Loops across the module, in LoopPlan::ordinal order. */
    std::size_t numLoops() const { return loopsByOrdinal_.size(); }

    /** The loop plan with @p ordinal. */
    const LoopPlan &
    loopByOrdinal(unsigned ordinal) const
    {
        return *loopsByOrdinal_[ordinal];
    }

    /** @p bb's loop ordinal if it heads a loop, else -1. */
    int
    headerOrdinal(const ir::BasicBlock *bb) const
    {
        auto it = headerOrdinal_.find(bb);
        return it == headerOrdinal_.end() ? -1
                                          : static_cast<int>(it->second);
    }

    /** Block -> def watches the runtime samples there (shared, const). */
    const std::unordered_map<const ir::BasicBlock *,
                             std::vector<PlannedDefWatch>> &
    defWatchPlan() const
    {
        return defWatchPlan_;
    }

  private:
    void buildFunctionPlan(FunctionPlan &fp,
                           const analysis::FunctionAnalyses &fa);
    void buildSharedRuntimeTables();

    analysis::ModuleAnalyses analyses_;
    std::vector<std::unique_ptr<FunctionPlan>> plans_;
    std::unordered_map<const ir::Function *, FunctionPlan *> byFn_;
    std::vector<const LoopPlan *> loopsByOrdinal_;
    std::unordered_map<const ir::BasicBlock *, unsigned> headerOrdinal_;
    std::unordered_map<const ir::BasicBlock *,
                       std::vector<PlannedDefWatch>>
        defWatchPlan_;
};

/**
 * Per-configuration decision for one loop: the static serialization
 * verdict the compile-time component would bake into the instrumented
 * binary for this flag combination.
 */
SerialReason staticVerdict(const LoopPlan &lp, const FunctionPlan &fp,
                           const ModulePlan &mp, const LPConfig &cfg);

} // namespace lp::rt

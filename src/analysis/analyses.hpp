/**
 * @file
 * The analysis bundle: every per-function analysis of one module, built
 * once and read by every client — the compile-time plan
 * (rt::ModulePlan owns the bundle of each prepared program), the PDG
 * verdicts the consistency oracle judges against, and lint.
 *
 * A bundle builds on any module, verified or not, so lp-lint can run
 * it over IR the verifier rejects.
 *
 * Thread-safety: a bundle is shared read-only across sweep workers.
 * ScalarEvolution memoizes through non-const methods; those run only
 * while rt::ModulePlan is constructed and inside the one-time build of
 * FunctionAnalyses::pdgs() (a std::call_once, as is
 * ModuleAnalyses::verdicts()).  Everything else reads const state.
 */

#pragma once

#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "analysis/dominators.hpp"
#include "analysis/loop_info.hpp"
#include "analysis/pdg.hpp"
#include "analysis/purity.hpp"
#include "analysis/scev.hpp"
#include "analysis/uses.hpp"
#include "ir/module.hpp"

namespace lp::analysis {

/** The analyses of one function with a body. */
struct FunctionAnalyses
{
    const ir::Function &fn;
    DominatorTree dt;
    LoopInfo li;
    UseMap uses;
    /** escapedAllocas() of fn. */
    std::unordered_set<const ir::Instruction *> escaped;
    const PurityAnalysis &purity; ///< the module's, shared
    /** Memoizing, hence mutable through the bundle's const ref. */
    mutable ScalarEvolution se;

    FunctionAnalyses(const ir::Function &f, const PurityAnalysis &p);

    /**
     * One dependence graph per loop, in li.loops() order, built once on
     * first request (thread-safe) and shared by every reader.
     */
    const std::vector<std::unique_ptr<LoopPdg>> &pdgs() const;

  private:
    mutable std::once_flag pdgsOnce_;
    mutable std::vector<std::unique_ptr<LoopPdg>> pdgs_;
};

/** The purity analysis and the per-function analyses of one module. */
class ModuleAnalyses
{
  public:
    /** Analyze every function of @p mod that has a body. */
    explicit ModuleAnalyses(const ir::Module &mod);

    const ir::Module &module() const { return mod_; }

    const PurityAnalysis &purity() const { return purity_; }

    /** The functions with a body, in module order. */
    const std::vector<std::unique_ptr<FunctionAnalyses>> &
    functions() const
    {
        return fns_;
    }

    /**
     * The verdict summary of every natural loop (functions in module
     * order, loops in LoopInfo discovery order), built once on first
     * request (thread-safe).  Config-independent, so one list serves
     * every oracle-attached cell of a sweep.
     */
    const std::vector<LoopVerdictSummary> &verdicts() const;

  private:
    const ir::Module &mod_;
    PurityAnalysis purity_;
    std::vector<std::unique_ptr<FunctionAnalyses>> fns_;
    mutable std::once_flag verdictsOnce_;
    mutable std::vector<LoopVerdictSummary> verdicts_;
};

} // namespace lp::analysis

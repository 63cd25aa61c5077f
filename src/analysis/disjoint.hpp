/**
 * @file
 * Static disjointness filter for memory instrumentation.
 *
 * Section III-A of the paper: "by using compile-time analysis to filter
 * out ... dependencies statically proven not to occur ... the overheads of
 * run-time dependency tracking, both in terms of execution time and memory
 * footprint, can be minimized."
 *
 * For each loop we prove, where possible, that the loads/stores hitting an
 * identified object walk it with a common constant stride and pairwise
 * incommensurable offsets, so no two iterations can touch the same 8-byte
 * granule.  Those accesses are left uninstrumented for that loop.  A
 * call to an impure callee (PurityAnalysis) counts as a store through
 * an unknown pointer: the callee's stores are the loop's too.
 */

#pragma once

#include <unordered_map>
#include <unordered_set>

#include "analysis/loop_info.hpp"
#include "analysis/mem_object.hpp"
#include "analysis/purity.hpp"
#include "analysis/scev.hpp"

namespace lp::analysis {

/** Per-function, per-loop sets of provably conflict-free memory accesses. */
class DisjointFilter
{
  public:
    DisjointFilter(const ir::Function &fn, const LoopInfo &li,
                   ScalarEvolution &se, const UseMap &uses,
                   const PurityAnalysis &purity);

    /**
     * True when @p access (a Load or Store inside @p loop) can never
     * participate in a cross-iteration conflict of @p loop and therefore
     * needs no dynamic tracking at that loop level.
     */
    bool untracked(const Loop *loop, const ir::Instruction *access) const;

    /** Number of accesses filtered for @p loop (reporting). */
    std::size_t filteredCount(const Loop *loop) const;

  private:
    void analyzeLoop(const Loop *loop, ScalarEvolution &se,
                     const std::unordered_set<const ir::Instruction *>
                         &escaped,
                     const PurityAnalysis &purity);

    std::unordered_map<const Loop *,
                       std::unordered_set<const ir::Instruction *>>
        untracked_;
};

} // namespace lp::analysis

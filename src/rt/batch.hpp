/**
 * @file
 * Fused batches: one interpretation evaluates many configurations.
 *
 * The paper computes every execution model from the call-backs of one
 * instrumented run (Section III).  Every configuration cell of a
 * program sees the same dynamic event stream; the cells differ only in
 * which loops a configuration deems eligible and how its execution
 * model folds conflicts into costs.  runLimitStudyBatched() therefore
 * interprets the program once per chunk of up to 64 configurations
 * (lanes), with the lane engine (rt/batch.cpp) attached as the
 * interpreter's sink: each event is a direct call that updates the
 * shared dynamic structure once and every lane's model state in one
 * structure-of-arrays pass.  Each lane's report is byte-identical to
 * runLimitStudy() on its configuration (tests/test_batch.cpp holds this
 * across the whole grid, with and without the consistency oracle).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/config.hpp"
#include "rt/oracle_capture.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"

namespace lp::rt {

/**
 * Per-block facts of the lane engine, indexed by the module-wide block
 * id the interpreter passes with each block entry (see
 * interp::Machine::run): does the block head a loop (its plan ordinal)
 * and which planned def watches fire there.  Everything in here is
 * configuration-independent, so one table — built once per program —
 * serves every batch read-only.
 */
struct BlockFacts
{
    struct PerBlock
    {
        std::int32_t headerOrdinal = -1; ///< LoopPlan::ordinal, -1 = none
        const std::vector<PlannedDefWatch> *watches = nullptr;
    };
    std::vector<PerBlock> blocks;
};

/** Build the shared per-block facts of @p plan's module. */
BlockFacts buildBlockFacts(const ModulePlan &plan);

/**
 * Run the limit study of @p plan's module for @p cfgs — one or many
 * configurations — interpreting it once per chunk of up to 64 lanes
 * (lane sets are 64-bit masks; the paper grid is 14, so one chunk).
 * Reports come back in @p cfgs order, each byte-identical to
 * runLimitStudy() on its configuration.  The interpreter's checks all
 * apply (fuel, deadline, heap cap, traps, call depth); a failure fails
 * every lane of the batch.
 *
 * @param facts the module's buildBlockFacts()
 * @param oracle when non-null, filled once from the shared loop-instance
 *        state with the evidence runLimitStudy() would gather for any
 *        one of @p cfgs (it is config-independent); must be fresh.
 */
std::vector<ProgramReport>
runLimitStudyBatched(const ModulePlan &plan, const BlockFacts &facts,
                     const std::vector<LPConfig> &cfgs,
                     const std::string &name,
                     OracleCapture *oracle = nullptr);

} // namespace lp::rt

/**
 * @file
 * Record-once / replay-many execution of the limit study.
 *
 * runLimitStudy() interprets a program afresh for every configuration
 * cell even though the paper's method only needs one dynamic event
 * stream per program (Section III: instrument once, run once, evaluate
 * every model from the stream).  This front end makes the sweep pay the
 * interpreter exactly once: recordTrace() performs one recording run
 * (devirtualized sink, no tracker), and replayLimitStudyBatched() then
 * evaluates any number of configurations straight from the trace — no
 * Machine, no register file, no simulated memory — while reconstructing
 * the machine clock and stack-pointer samples the tracker needs
 * bit-exactly.  Replay reports are therefore byte-identical to
 * interpret-mode reports (enforced by tests/test_batch.cpp across the
 * whole config grid, with and without the consistency oracle).
 *
 * Failure taxonomy: a truncated trace (byte budget hit during
 * recording), a fingerprint mismatch, or any malformed stream raises
 * lp::IoError (LP_IO), so affected sweep cells quarantine under
 * keep-going exactly like a damaged input file would.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "guard/budget.hpp"
#include "rt/config.hpp"
#include "rt/oracle_capture.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"
#include "trace/format.hpp"
#include "trace/index.hpp"

namespace lp::trace {
struct BatchDispatchTable;
} // namespace lp::trace

namespace lp::rt {

/**
 * Loop-header flags by global trace block id, from the compile-time
 * loop analysis.  Header set membership is configuration-independent,
 * so one recording serves every configuration.
 */
std::vector<bool> headerBlockFlags(const ModulePlan &plan,
                                   const trace::ModuleIndex &index);

/**
 * Per-block-id replay facts: does the block head a loop (its plan
 * ordinal) and which planned def watches fire there.  Everything in
 * here is configuration-independent, so one table — built once per
 * program, next to the recording — serves every replay batch of the
 * sweep read-only.
 */
struct ReplayBlockFacts
{
    struct PerBlock
    {
        std::int32_t headerOrdinal = -1; ///< LoopPlan::ordinal, -1 = none
        const std::vector<PlannedDefWatch> *watches = nullptr;
    };
    std::vector<PerBlock> blocks;
};

/** Build the shared per-block replay facts for @p plan under @p index. */
ReplayBlockFacts buildReplayBlockFacts(const ModulePlan &plan,
                                       const trace::ModuleIndex &index);

/**
 * Record one run of @p mod into a trace: the machine runs with the
 * recording sink (no tracker) under @p budget; the trace payload is
 * capped at budget.maxTraceBytes.
 */
trace::Trace recordTrace(const ir::Module &mod,
                         const trace::ModuleIndex &index,
                         const ModulePlan &plan,
                         const guard::RunBudget &budget);

/**
 * Run the limit study for @p cfgs — one or many configurations — by
 * decoding @p t exactly once and applying every event to all
 * configuration lanes in one structure-of-arrays pass (rt/batch.cpp).
 * Reports come back in @p cfgs order and are byte-identical to
 * runLimitStudy() on each configuration.
 *
 * More than 64 configurations are processed in chunks of 64 (lane sets
 * are 64-bit masks); the paper grid is 14, so one chunk.
 *
 * @param oracle when non-null, filled once from the shared loop-instance
 *        state with the evidence runLimitStudy() would gather for any
 *        one of @p cfgs (it is config-independent); must be fresh.
 * @param facts shared per-block facts (buildReplayBlockFacts); null
 *        builds a local table.
 * @param table shared flat dispatch table (buildBatchDispatchTable);
 *        null builds a local one.
 * @throws lp::IoError when the trace is truncated, does not match the
 *         module, or is malformed.
 */
std::vector<ProgramReport>
replayLimitStudyBatched(const ModulePlan &plan,
                        const trace::ModuleIndex &index,
                        const trace::Trace &t,
                        const std::vector<LPConfig> &cfgs,
                        const std::string &name,
                        OracleCapture *oracle = nullptr,
                        const ReplayBlockFacts *facts = nullptr,
                        const trace::BatchDispatchTable *table = nullptr);

} // namespace lp::rt

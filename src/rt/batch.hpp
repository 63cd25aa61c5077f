/**
 * @file
 * The run-time component (paper Section III-B): one interpretation
 * evaluates one or many configurations.
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
 * structure-of-arrays pass.  It tracks cross-iteration RAW conflicts
 * through memory and registers, runs the value predictors, applies
 * each lane's execution model (DOALL / Partial-DOALL / HELIX) to every
 * loop instance, and propagates savings and coverage up the loop and
 * function nest, so outer loops compute their costs over
 * already-parallelized bodies.  Every run goes through it, a single
 * configuration being a one-lane batch.  A lane's report does not
 * depend on which other lanes share its batch (tests/test_batch.cpp),
 * and every lane agrees field by field with the spec evaluator
 * (src/fuzz/spec.hpp, tests/test_spec.cpp).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/events.hpp"
#include "rt/config.hpp"
#include "rt/oracle_capture.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"

namespace lp::rt {

/**
 * The lane engine's per-program tables: the plan's facts by the dense
 * ids the interpreter passes (interp::EventIds), so every per-event
 * lookup is an array index.  Everything in here is
 * configuration-independent, so one table, built once per program,
 * serves every batch read-only.
 */
struct ProgramTables
{
    ProgramTables() = default;
    explicit ProgramTables(const ModulePlan &plan);

    interp::EventIds ids;
    /** The plan's loops, by LoopPlan::ordinal. */
    interp::LoopForest forest;
    /** By block id: the def watches sampled there (ModulePlan's), or
     *  null. */
    std::vector<const std::vector<PlannedDefWatch> *> watches;
    /** By phi id: the ordinal of the loop it heads (-1: not a header
     *  phi) and its LoopPlan::trackedIndex (-1: never tracked). */
    std::vector<std::int32_t> phiLoop, phiTracked;
    /** By memory-op id: its function (Module::functions() index) and
     *  its block's innermost loop (-1: none). */
    std::vector<std::uint32_t> memFunction;
    std::vector<std::int32_t> memLoop;
    /** By function: the loops whose bodies reach it through calls. */
    std::vector<std::vector<std::uint32_t>> callerLoops;

    /** Is memory op @p mem in LoopPlan::untrackedMem of loop @p ord? */
    bool
    untracked(std::uint32_t mem, unsigned ord) const
    {
        const std::size_t bit = std::size_t{mem} * numLoops_ + ord;
        return (untracked_[bit >> 6] >> (bit & 63)) & 1;
    }

  private:
    std::size_t numLoops_ = 0;
    /** One bit per (memory op, loop), [mem * numLoops_ + ord]. */
    std::vector<std::uint64_t> untracked_;
};

/**
 * The events a batch of @p cfgs can use, as runLimitStudyBatched
 * compiles them into each chunk's Machine: the entries and exits of
 * the functions that hold a loop, every def-watch block some lane's
 * watch gate passes, every header phi some lane tracks under dep2 (or
 * the oracle watches, @p withOracle), and every load and store an open
 * instance could track: inside an eligible loop of its function that
 * does not filter it, or in a function a call from an eligible loop's
 * body reaches.  Loop events always fire.
 */
interp::Instrumentation selectEvents(const ModulePlan &plan,
                                     const ProgramTables &tables,
                                     const std::vector<LPConfig> &cfgs,
                                     bool withOracle);

/**
 * Run the limit study of @p plan's module for @p cfgs — one or many
 * configurations — interpreting it once per chunk of up to 64 lanes
 * (lane sets are 64-bit masks; the paper grid is 14, so one chunk).
 * Reports come back in @p cfgs order, each the one a one-lane batch of
 * its configuration produces.  The interpreter's checks all
 * apply (fuel, deadline, heap cap, traps, call depth); a failure fails
 * every lane of the batch.
 *
 * The call is one `rt.batch` span.  The engine counts its work as it
 * runs, in plain integers, and a completed call hands the counts over
 * once: to the span's args and, when metrics are on, to obs::Registry,
 * under the metric names tracker.mem_events, tracker.conflicts,
 * tracker.loop_instances, tracker.frames, tracker.trip_count (a
 * histogram), tracker.child_saving_iterations,
 * tracker.lane_restart_iterations, model.squashes.doall,
 * model.squashes.pdoall and report.loops_reported.
 *
 * @param tables the module's ProgramTables
 * @param oracle when non-null, filled once from the shared loop-instance
 *        state with the consistency-oracle evidence of the run (it is
 *        config-independent: one capture serves every lane); must be
 *        fresh.
 */
std::vector<ProgramReport>
runLimitStudyBatched(const ModulePlan &plan, const ProgramTables &tables,
                     const std::vector<LPConfig> &cfgs,
                     const std::string &name,
                     OracleCapture *oracle = nullptr);

} // namespace lp::rt

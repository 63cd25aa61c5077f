/**
 * @file
 * Top-level Loopapalooza driver: the public entry point of the library.
 *
 * Wraps the full pipeline of the paper:
 *   1. verify the module (structural + SSA);
 *   2. compile-time component: analyses + instrumentation plan;
 *   3. run-time component: interpret with the lane engine attached;
 *   4. report speedup, coverage, per-loop stats and the census.
 */

#pragma once

#include <exception>
#include <memory>
#include <mutex>
#include <string>

#include <vector>

#include "analysis/pdg.hpp"
#include "ir/module.hpp"
#include "rt/batch.hpp"
#include "rt/oracle_capture.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"
#include "trace/batch.hpp"
#include "trace/format.hpp"
#include "trace/index.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::core {

/** Analyze once, run under as many configurations as desired. */
class Loopapalooza
{
  public:
    /**
     * Verifies @p mod (fatal on malformed IR) and builds the compile-time
     * plan.  The module must outlive this object and must already be
     * finalized.
     */
    explicit Loopapalooza(const ir::Module &mod);

    /**
     * Execute the program under @p cfg and produce the report: a
     * one-lane batch (rt::runLimitStudyBatched).
     *
     * Thread-safe: run() only reads the module and the plan and builds
     * all run state (Machine, lanes) locally, so any number of lp::exec
     * workers may call it concurrently on one driver.
     */
    rt::ProgramReport run(const rt::LPConfig &cfg) const;

    /**
     * As run(), but with the static-vs-dynamic consistency oracle
     * attached: every SCEV-claimed and tracked header phi is watched,
     * the evidence is judged by lp::lint, and the report's oracle
     * section (oracleRan, mismatches, findings) is filled in.  Same
     * thread-safety as run().
     */
    rt::ProgramReport runWithOracle(const rt::LPConfig &cfg) const;

    /**
     * As runWithOracle() with a caller-owned capture — lets tests
     * pre-seed it (e.g. OracleCapture::forceClaim) and inspect the raw
     * evidence afterwards.  @p cap must be freshly constructed.
     */
    rt::ProgramReport run(const rt::LPConfig &cfg,
                          rt::OracleCapture &cap) const;

    /**
     * As run() for ALL of @p cfgs, as fused batches: the program is
     * interpreted once per chunk of up to 64 configurations, each event
     * applied to all of the chunk's lanes in one structure-of-arrays
     * pass (rt::runLimitStudyBatched).  Reports come back in @p cfgs
     * order, each byte-identical to run() on that configuration.  Same
     * thread-safety as run().  A failing run (trap, fuel, ...) fails
     * every lane of its batch.  run() is this call with one lane.
     */
    std::vector<rt::ProgramReport>
    runReplayBatched(const std::vector<rt::LPConfig> &cfgs) const;

    /**
     * As runReplayBatched(), with the consistency oracle attached: @p cap
     * (fresh, and pre-seeded if the caller wishes, as for run()) is
     * filled once from the shared lane-engine state and judged into
     * every lane's report, each byte-identical to runWithOracle().
     */
    std::vector<rt::ProgramReport>
    runReplayBatched(const std::vector<rt::LPConfig> &cfgs,
                     rt::OracleCapture &cap) const;

    /**
     * The recorded event trace, recording it on first use (no run
     * records; the sweep benchmark's layer probes do).  Recording
     * failures that are deterministic (trap, fuel, ...) are cached and
     * rethrown on every later call; transient ones (wall-clock deadline)
     * are not, so a retry re-records.
     */
    const trace::Trace &trace() const;

    /** The compile-time component's output. */
    const rt::ModulePlan &plan() const { return *plan_; }

    /** Stable function/block numbering of the recorder and the walker. */
    const trace::ModuleIndex &traceIndex() const { return *index_; }

    const ir::Module &module() const { return mod_; }

    /** The PDG verdicts of the plan's analyses (ModuleAnalyses::verdicts). */
    const std::vector<analysis::LoopVerdictSummary> &
    staticVerdicts() const
    {
        return plan_->analyses().verdicts();
    }

    /**
     * The flat threaded-code dispatch table of the trace walker
     * (trace::replayDispatch): every per-block/per-instruction fact the
     * decode loop needs, lowered into contiguous arrays indexed by
     * trace ids.  Config-independent and built in the constructor.
     */
    const trace::BatchDispatchTable &dispatchTable() const
    {
        return dispatch_;
    }

  private:
    const ir::Module &mod_;
    std::unique_ptr<rt::ModulePlan> plan_;
    std::unique_ptr<trace::ModuleIndex> index_;
    /** The plan by dense event id, shared by every batch. */
    rt::ProgramTables tables_;
    trace::BatchDispatchTable dispatch_;

    mutable prof::TimedMutex traceMu_{"core.trace_record"};
    mutable std::unique_ptr<trace::Trace> trace_;
    mutable std::exception_ptr traceError_;
};

} // namespace lp::core

/**
 * @file
 * The sweep driver: the one code path that evaluates a configuration x
 * program grid.  run_study, the paper-figure harnesses, the
 * differential fuzz harness and the tests all drive it in-process.
 *
 * A sweep is a flat list of (configuration, suite, program) cells —
 * the unit of parallelism, of quarantine, of checkpointing, and of
 * sharding.  runSweep() runs the list, prints the standard
 * table, and returns the machine-readable document; its report is
 * byte-identical whatever the worker count, and identical between a
 * resumed and an uninterrupted run.
 *
 * Sharding (multi-process sweeps, docs/parallel_execution.md):
 *
 *   run_study --shards 1/4 --checkpoint ck.jsonl   # process 1 of 4
 *   ...
 *   run_study --shards 4 --merge --checkpoint ck.jsonl --json out.json
 *
 * Shard i of n deterministically owns the cells whose flat index is
 * congruent to i-1 mod n, and appends them to the shard's own
 * checkpoint file (ck.jsonl.shard<i>of<n> — the existing JSONL cell
 * records double as the merge protocol).  The merge step absorbs all
 * shard files, runs any cell no shard completed (a crashed shard's
 * leftovers), and emits a report byte-identical to an unsharded run:
 * stored cells are reused verbatim, synthesized cells (prepare-failed,
 * lint-gated, failed) are deterministic, and the aggregation reads
 * everything back from the cell JSON either way.
 */

#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/study.hpp"
#include "lint/engine.hpp"
#include "obs/json.hpp"

namespace lp::core {

/** Everything the sweep driver needs: the grid and the run options. */
struct SweepRequest
{
    std::string suite; ///< empty = every registered suite

    /**
     * The configuration rows, in table order.  Labels must be distinct
     * (runSweep rejects a repeat): they key checkpoint cells and shard
     * merges, so two configurations sharing a label would share cells.
     */
    std::vector<NamedConfig> configs = paperConfigs();

    bool keepGoing = true; ///< quarantine failures (vs --strict)
    /**
     * Fused batches (--trace-replay / LP_TRACE_REPLAY).  Defaults on: a
     * sweep visits every program under many configurations, so it
     * interprets each program once per 64 of its configuration lanes,
     * every event applied to all of them in one SoA pass
     * (rt::runLimitStudyBatched), under --lint too.  Reports are
     * byte-identical either way (tests/test_batch.cpp, fuzz
     * differential pairs 1 and 7); a batch that fails re-runs its
     * cells one by one.  Off interprets every cell with its own
     * LoopRuntime, the reference path.
     */
    bool traceReplay = true;

    /**
     * Lint mode (--lint / LP_LINT): 0 = off, 1 = on (gate on
     * error-level findings, attach the consistency oracle), 2 =
     * "error" (additionally promote warnings to errors).
     */
    int lintMode = 0;

    std::string checkpointPath; ///< --checkpoint PATH ("" = off)
    bool resume = false;        ///< --resume

    /// @name Sharding (--shards I/N, --shards N --merge)
    /// @{
    unsigned shardIndex = 0; ///< 1-based; 0 = sharding off
    unsigned shardCount = 0; ///< total shards (with shardIndex or merge)
    bool merge = false;      ///< absorb shard checkpoints, run leftovers
    /// @}

    bool wantJson = false; ///< build SweepResult::document
};

/** What the sweep produced. */
struct SweepResult
{
    int exitCode = 0;
    bool hasDocument = false; ///< document was built (wantJson)
    obs::Json document;
};

/** The checkpoint file shard @p index of @p count appends to. */
std::string shardCheckpointPath(const std::string &base, unsigned index,
                                unsigned count);

/**
 * Lint @p mod under @p lintMode (SweepRequest::lintMode), print every
 * finding to @p out, and bump the lint counters.
 */
lint::LintResult lintAndPrint(const ir::Module &mod, int lintMode,
                              std::ostream &out);

/**
 * Run the sweep described by @p req over @p programs (the caller
 * passes suites::allPrograms(); taking the list as a parameter keeps
 * lp_core below lp_suites in the library stack and lets tests sweep a
 * synthetic program set).  Prints the standard table / shard summary
 * and lint findings to @p out.  Strict-mode failures propagate as
 * lp::Error.
 */
SweepResult runSweep(const std::vector<BenchProgram> &programs,
                     const SweepRequest &req,
                     std::ostream &out = std::cout);

} // namespace lp::core

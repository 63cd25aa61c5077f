/**
 * @file
 * The sweep driver: the one code path that evaluates a configuration x
 * program grid.  run_study, the paper-figure harnesses, the
 * differential fuzz harness and the tests all drive it in-process.
 *
 * A sweep is a flat list of (configuration, suite, program) cells —
 * the unit of reporting, of checkpointing and of sharding.  The unit
 * of work is the task: one program's fresh cells as one fused batch
 * (one interpretation per 64 of its configuration lanes, --lint
 * included).  Each task runs its interpretation and its checkpoint
 * appends as one guarded unit, so a transient failure retries the task
 * and a quarantined task writes its verdict into each of its cells;
 * each task is one `core.task` span.  Cells that need no run
 * (prepare-failed, lint-gated, resumed) are filled in before
 * dispatch.  runSweep() runs the list, prints the
 * standard table, and returns the machine-readable document; its
 * report is byte-identical whatever the worker count, and identical
 * between a resumed and an uninterrupted run.
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

namespace lp::obs {
class ScopedPhase;
}

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
     * Lint mode (--lint): 0 = off, 1 = on (gate on
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

/**
 * Add the metrics snapshot and the phase tree to run-report document
 * @p doc when metrics are on.  They hold wall-clock values, which would
 * break byte-identity (a resumed sweep's report must equal an
 * uninterrupted one's, two identical single runs' reports must be
 * equal), so a document carries them only when metrics were asked for.
 */
void addObsSnapshot(obs::Json &doc);

/** The checkpoint file shard @p index of @p count appends to. */
std::string shardCheckpointPath(const std::string &base, unsigned index,
                                unsigned count);

/**
 * Lint the module of @p analyses under @p lintMode
 * (SweepRequest::lintMode), print every finding to @p out, and bump the
 * lint counters, inside a `lint.module` span.
 */
lint::LintResult lintAndPrint(const analysis::ModuleAnalyses &analyses,
                              int lintMode, std::ostream &out);

/**
 * Label @p span, a `core.task` span, as the task that runs @p program's
 * cells under the configuration labels @p configs.  Its status reads
 * "failed" until the task sets "ok", so a task an error unwinds
 * profiles as failed.
 */
void labelTask(obs::ScopedPhase &span, const std::string &program,
               const std::string &suite,
               const std::vector<std::string> &configs);

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

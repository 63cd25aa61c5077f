/**
 * @file
 * The profile (`lp::prof`): `run_study --profile` renders the obs span
 * log (obs/timer.hpp) and the lock-site table (prof/timed_mutex.hpp)
 * as one document (docs/profiling.md).  This view records nothing and
 * keeps no clock of its own; every section is computed from the span
 * log when the profile is written:
 *
 *  - tasks: one row per `core.task` span (a program's fused batch, or
 *    a single run) with its worker, start, wall, queue wait, lock wait,
 *    lane count, attempts and status;
 *  - cells: one row per cell of each task, carrying its lane share of
 *    the task's wall (the shares sum to it), and one row per
 *    `core.cell` instant (a cell that needed no run: no task, no time);
 *  - workers: per worker lane, busy time (its tasks' walls) and idle
 *    time against the `exec.region` spans (the task dispatch),
 *    utilization and load imbalance;
 *  - contention: every lock site, most waited-on first;
 *  - spans: the span log itself, which json mode also streams to
 *    `PATH.spans.jsonl` while it is recorded.
 *
 * `--profile=chrome` writes obs::chromeTrace() of the same log instead,
 * with the contention and workers sections as one instant.
 *
 * The profile never touches run reports: sweeps produce byte-identical
 * report JSON with profiling on or off (tests/test_prof.cpp holds
 * this).  Everything here is quiescent-only, like obs::SpanLog::reset.
 */

#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/timer.hpp"

namespace lp::prof {

/** Profile output mode. */
enum class Mode { Off, Json, Chrome };

/**
 * Parse a `--profile` value — "json" or "chrome", optionally ":PATH"
 * ("json:prof.json") — set the mode and path, drop all evidence and
 * start recording (json mode streams the span log to PATH.spans.jsonl).
 * Exactly "off" stops.  Returns false (and stops) on any other value:
 * an unknown or empty mode, or "off" with a path.
 */
bool configure(const std::string &spec);

Mode mode();
const std::string &outputPath();

/** Flip recording without touching mode/path (tests). */
void setEnabled(bool on);

/** Drop all evidence: the span log and every lock site's counters. */
void reset();

/// @name Views of a span log (records in close order)
/// @{

/** {"total_lock_wait_ns", "total_acquisitions", "total_contended",
 *  "sites":[...]} with sites sorted by wait_ns, most contended first. */
obs::Json contentionJson();

/** {"region_wall_ns", "workers":[{worker, tasks, cells, busy_ns,
 *   idle_ns, queue_wait_ns, lock_wait_ns, instructions, utilization}],
 *   "utilization_mean", "load_imbalance"}. */
obs::Json workersJson(const std::vector<obs::SpanRecord> &spans);

/** One row per `core.task` span, in log order. */
obs::Json tasksJson(const std::vector<obs::SpanRecord> &spans);

/** One row per cell: each task's lane shares and each `core.cell`. */
obs::Json cellsJson(const std::vector<obs::SpanRecord> &spans);

/** The whole json-mode document: every section above plus "spans". */
obs::Json profileJson(const std::vector<obs::SpanRecord> &spans);

/** The chrome-mode document: the spans plus an lp_prof.summary
 *  instant carrying contention and workers. */
obs::Json chromeProfile(const std::vector<obs::SpanRecord> &spans);

/// @}

/**
 * Stop recording and write the configured profile of the span log.
 * Idempotent; a no-op when the mode is Off.  Returns false when the
 * output file or a json profile's span stream could not be written
 * (already logged).
 */
bool finish();

} // namespace lp::prof

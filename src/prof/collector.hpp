/**
 * @file
 * The profiling collector (`lp::prof`): one span per sweep task, each
 * cell's lane share of its task, and per-worker timelines, layered on
 * lp::obs (docs/profiling.md).
 *
 * One process has one Collector.  It is configured from a profile spec
 * (`run_study --profile[=json|chrome[:PATH]]` or `LP_PROFILE`) and
 * records two kinds of evidence while prof::profilingOn():
 *
 *  - lock-site contention, recorded by every prof::TimedMutex in the
 *    process (timed_mutex.hpp) — the collector only snapshots it;
 *  - sweep tasks: one span per task core::runSweep dispatches (one
 *    program's fused batch) with its worker lane, start, wall time,
 *    lock wait, lane count, attempts and status, plus one row per cell
 *    of the task carrying the cell's lane share of the task's wall
 *    time.  Cells that need no run (prepare-failed, lint-gated,
 *    resumed) get a row with no task and no time.  In json mode each
 *    row is also streamed to `<PATH>.cells.jsonl` the moment its task
 *    finishes, so a killed sweep still leaves its telemetry.
 *
 * Everything else is derived from the spans: a worker's busy time is
 * the sum of its tasks' walls, and a task's queue wait is the idle gap
 * on its worker before it started.
 *
 * finish() writes the profile: a JSON document (contention, per-worker
 * utilization/imbalance, tasks, cells) or a Chrome trace with one span
 * per task on its worker's lane, rendered through obs::ChromeTraceSink
 * (open it in ui.perfetto.dev).
 *
 * The collector never touches run reports: sweeps produce byte-identical
 * report JSON with profiling on or off (tests/test_prof.cpp holds this).
 *
 * Thread-safety: TaskScope and recordUnrunCell are safe from lp::exec
 * workers (records append under an instrumented mutex).  configure,
 * reset, beginRegion/endRegion and finish are quiescent-only, like
 * obs::Session::configure.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::prof {

/** Profile output mode. */
enum class Mode { Off, Json, Chrome };

/** One finished task: a program's fused batch (a single run is one
 *  lane). */
struct TaskRecord
{
    std::string program;
    std::string suite;
    unsigned worker = 0;           ///< obs::threadLane() of the worker
    std::uint64_t regionStartNs = 0; ///< region it ran in; 0 = none
    std::uint64_t startNs = 0;     ///< collector timebase
    std::uint64_t wallNs = 0;
    std::uint64_t lockWaitNs = 0;  ///< contended TimedMutex wait inside
    unsigned lanes = 0;            ///< cells the task ran
    unsigned attempts = 0;
    std::string status = "ok";     ///< ok | failed
    std::size_t firstCell = 0;     ///< its cells' rows start here
};

/** One sweep cell: a lane share of its task, or a cell with no run. */
struct CellRecord
{
    std::string program;
    std::string suite;
    std::string config; ///< configuration label ("reduc1-dep1-fn2 helix")
    std::int64_t task = -1; ///< index into the tasks; -1 = needed no run
    unsigned worker = 0;
    std::uint64_t startNs = 0;
    std::uint64_t wallNs = 0; ///< lane share; a task's shares sum to its wall
    std::uint64_t instructions = 0;
    unsigned attempts = 0;
    std::string status = "ok"; ///< ok | failed | skipped | resumed
};

class Collector
{
  public:
    static Collector &instance();

    /**
     * Parse a profile spec — "json", "chrome", optionally ":PATH"
     * ("json:prof.json") — set the mode/path, enable profiling and
     * reset all evidence.  "off" (or empty) disables.  Returns false
     * (and disables) on an unrecognized mode.
     */
    bool configure(const std::string &spec);

    Mode mode() const { return mode_; }
    const std::string &outputPath() const { return path_; }

    /** Flip recording without touching mode/path (bench harnesses). */
    void setEnabled(bool on);

    /** Drop all evidence, including every lock site.  Quiescent-only. */
    void reset();

    /** Nanoseconds since the collector's epoch (span timebase). */
    std::uint64_t nowNs() const;

    /**
     * Mark the start/end of one sweep region (the parallelFor over
     * tasks).  Queue-wait and per-worker utilization are measured
     * against the region; regions accumulate.
     */
    void beginRegion();
    void endRegion();

    /**
     * Record a cell that needed no run (prepare-failed, lint-gated or
     * resumed) with @p status: a row with no task and no time.  A no-op
     * while profiling is off.
     */
    void recordUnrunCell(const std::string &program,
                         const std::string &suite, const std::string &config,
                         const std::string &status);

    /// @name Snapshots (quiescent-only, like obs::Registry::toJson)
    /// @{

    /** {"total_lock_wait_ns", "total_acquisitions", "sites":[...]} with
     *  sites sorted by wait-ns, most contended first. */
    obs::Json contentionJson() const;

    /** {"region_wall_ns", "workers":[{worker, tasks, cells, busy_ns,
     *   idle_ns, utilization, ...}], "utilization_mean",
     *   "load_imbalance"}. */
    obs::Json workersJson() const;

    /** Every task span as a JSON array (insertion order). */
    obs::Json tasksJson() const;

    /** Every cell row as a JSON array (insertion order). */
    obs::Json cellsJson() const;

    /** The whole profile document (json mode's output). */
    obs::Json toJson() const;

    /** The Chrome trace document (chrome mode's output; tests). */
    obs::Json chromeDocument() const;

    std::size_t cellCount() const;

    /// @}

    /**
     * Write the configured output(s) and disable recording.  Idempotent;
     * a no-op when the mode is Off.  Returns false when an output file
     * could not be written (already logged).
     */
    bool finish();

  private:
    friend class TaskScope; // records tasks, reads regionStartNs_

    Collector();

    /** Append @p task and one lane-share row per @p configs entry. */
    void recordTask(TaskRecord task, const std::vector<std::string> &configs,
                    std::uint64_t instructions);
    /** Append @p cells, streaming them in json mode; lock held. */
    void appendCells(std::vector<CellRecord> cells);
    /** Each task's queue wait, indexed like tasks_; lock held. */
    std::vector<std::uint64_t> queueWaits() const;

    Mode mode_ = Mode::Off;
    std::string path_;
    std::uint64_t epochNanos_ = 0; ///< steady-clock origin

    mutable TimedMutex cellMu_{"prof.cells"};
    std::vector<TaskRecord> tasks_;
    std::vector<CellRecord> cells_;
    std::unique_ptr<std::ofstream> cellStream_; ///< json mode JSONL

    std::atomic<std::uint64_t> regionStartNs_{0}; ///< 0 = outside
    std::atomic<std::uint64_t> regionWallNs_{0};  ///< accumulated
};

/**
 * RAII measurement of one sweep task.  Construct at task start (inside
 * the worker) and name its cells with addCell(); the destructor records
 * the task span and its cells' lane shares.  Every accessor is a no-op
 * while profiling is off, so call sites need no guards.
 *
 * The status defaults to "failed": a scope unwound by an exception
 * records the task as failed unless the caller reached setStatus().
 */
class TaskScope
{
  public:
    TaskScope(const std::string &program, const std::string &suite);
    ~TaskScope();

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

    /** One more cell (lane) of the task, by configuration label. */
    void addCell(const std::string &config);
    /** Instructions each of the task's cells ran. */
    void setInstructions(std::uint64_t n);
    void setAttempts(unsigned n);
    void setStatus(const std::string &status);

  private:
    bool active_;
    TaskRecord rec_;
    std::vector<std::string> configs_;
    std::uint64_t instructions_ = 0;
    std::uint64_t lockWait0_ = 0;
};

} // namespace lp::prof

/**
 * @file
 * Work-pool execution layer (`lp::exec`).
 *
 * The sweeps this framework exists for — the paper's Table II space of
 * models × predictors × thresholds over prepared programs — are
 * embarrassingly parallel: once the modules are built and analyzed,
 * every program's runs are independent of every other program's.
 * core::runSweep hands parallelFor one task per program (a fused batch
 * of its configuration lanes), or one per cell when it interprets each
 * cell, and keeps a failing task from cancelling its siblings by
 * running each inside guard::guardedRun.  This layer provides the two
 * pieces the sweep call sites need:
 *
 *  - ThreadPool: a fixed set of workers draining one task queue;
 *  - parallelFor(n, fn[, jobs]): run fn(i) for every i in [0, n),
 *    order-preserving by construction (callers index their output by i,
 *    so a parallel sweep produces byte-identical results to a serial
 *    one), with exception capture and rethrow-on-join.
 *
 * Worker count resolution, everywhere: an explicit `jobs` argument wins,
 * then a process-wide override (the `--jobs` flag), then the `LP_JOBS`
 * environment variable, then 1 (serial — the default behaviour is
 * exactly the historical one).  `LP_JOBS=0` or `LP_JOBS=auto` means
 * "all hardware threads".
 *
 * Thread-safety contract for tasks: a task may use the whole pipeline
 * (build modules, run Machines, update lp::obs metrics, open phases and
 * record spans) — those layers are safe under concurrent use.  Tasks
 * must not call Registry::resetAll, SpanLog::reset or records, or
 * prof::configure/reset/finish; those quiescent-only
 * operations belong to the coordinating thread between parallel
 * regions.
 */

#pragma once

#include <cstddef>
#include <deque>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "prof/timed_mutex.hpp"

namespace lp::exec {

/**
 * Workers a parallel region uses when the caller does not say:
 * setJobsOverride() value if set, else LP_JOBS, else 1.  Always >= 1.
 */
unsigned defaultJobs();

/**
 * Process-wide override of LP_JOBS (the `--jobs N` flag); 0 restores
 * the environment-driven default.
 */
void setJobsOverride(unsigned jobs);

/** Map a jobs spec to a worker count: 0 = all hardware threads. */
unsigned resolveJobs(unsigned jobs);

/**
 * Parse a worker-count spelling as `--jobs` and `LP_JOBS` take it: "0"
 * or "auto" (all hardware threads, resolved), or a count 1-4096 written
 * in digits only (no sign, space or trailing text).  nullopt when the
 * spelling is not understood.
 */
std::optional<unsigned> parseJobs(const std::string &spec);

/**
 * Best-effort hardware width for scaling reports.  Guards the two
 * degenerate answers std::thread::hardware_concurrency() may give — 0
 * ("unknown") and 1 (restrictive container/cgroup masks even when more
 * workers run fine): whichever of the reported width and the configured
 * worker count (defaultJobs()) is larger wins.  Always >= 1.
 */
unsigned hardwareThreads();

/** Fixed-size worker pool draining one FIFO task queue. */
class ThreadPool
{
  public:
    /** Spawns resolveJobs(@p workers) threads immediately. */
    explicit ThreadPool(unsigned workers);
    /** Waits for queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Enqueue @p task.  Tasks must not throw (parallelFor wraps user
     * callbacks with its own capture); a throwing task aborts via
     * panic().
     */
    void post(std::function<void()> task);

    /** Block until the queue is empty and every worker is idle. */
    void wait();

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    /// Instrumented so queue contention shows up in profiles
    /// (docs/profiling.md); cv waits use condition_variable_any.  Only
    /// the reacquire after a wakeup counts as lock-wait — idle blocking
    /// is idle, not contention.
    prof::TimedMutex mu_{"exec.pool_queue"};
    std::condition_variable_any workCv_; ///< signals workers: task/stop
    std::condition_variable_any idleCv_; ///< signals wait(): drained
    std::size_t active_ = 0;
    bool stop_ = false;
};

/**
 * Run @p fn(i) for every i in [0, @p n) on up to @p jobs workers.
 *
 * - jobs <= 1 (or n <= 1) runs inline on the calling thread, so the
 *   serial path has zero threading overhead and identical semantics to
 *   the pre-exec code.
 * - Result ordering is the caller's: write results[i] inside fn and the
 *   output order is independent of scheduling.
 * - If any fn(i) throws, no further indices are issued, every started
 *   task finishes, and the exception of the *lowest* failing index is
 *   rethrown on join — deterministic error reporting regardless of
 *   which worker hit it first.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned jobs = defaultJobs());

} // namespace lp::exec

/**
 * @file
 * Shared pieces of the sweep benchmark (perfbench/README.md): the three
 * workloads, one runSweep call with its table silenced, and the
 * correctness ledger every run fills.
 *
 * The unit of work is a whole sweep — every program under all 14 paper
 * configurations through core::runSweep — because that is what users
 * run.  sweep_bench.cpp times untraced sweeps (end-to-end metrics);
 * layers.cpp drives the same cells through each layer's public calls
 * with spans around them (per-layer metrics).
 */

#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "obs/json.hpp"

namespace lp::bench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Run a fixed calibration kernel (sorting, a hash map, a bytecode
 * loop: the kinds of work a sweep and a set-up do) and return its wall
 * time.  On a shared host other tenants change how fast this host runs
 * from one second to the next; the kernel, timed right next to a
 * measurement, says how fast it ran then.  It is the benchmark's own
 * code, so a change to the library cannot move it.
 */
double calibrationSeconds();

/** One workload: the programs a sweep runs, and how it runs them. */
struct Workload
{
    std::string name;
    std::vector<core::BenchProgram> programs;
    core::SweepRequest request; ///< wantJson always on
    obs::Json inputs;           ///< seed, generator options, program seeds
};

/**
 * Build workload @p name.  gen_sweep draws its programs from
 * @p genSeed (evaluating candidates on @p jobs workers); @p workDir
 * receives its checkpoint file.  @throws lp::FatalError for an unknown
 * name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t genSeed,
                      const std::string &workDir, unsigned jobs);

/** The CPUs this process may run on (its affinity mask). */
std::vector<int> allowedCpus();

/**
 * Full sweep width: exec::hardwareThreads(), never more than the CPUs
 * this process may run on.
 */
unsigned fullWidth();

/**
 * Keeps the calling thread on one CPU while alive.  Set-up samples
 * rotate over every allowed CPU: on a shared host one virtual CPU can
 * run at ~60% speed for minutes while the others do not, and a median
 * over samples from every CPU is not at the mercy of that one.
 */
class PinnedThread
{
  public:
    explicit PinnedThread(int cpu);
    ~PinnedThread();
    PinnedThread(const PinnedThread &) = delete;
    PinnedThread &operator=(const PinnedThread &) = delete;

  private:
    cpu_set_t saved_;
    bool restore_ = false;
};

/** nproc, raw and guarded hardware threads, build type. */
obs::Json hostRecord(unsigned width);

/** Did the compiler optimise this binary? */
bool optimisedBuild();

/** One runSweep call, timed from the program list to the document. */
struct SweepRun
{
    double wallS = 0;
    int exitCode = 0;
    std::string document; ///< compact JSON; empty when none was built
};

/**
 * Run @p w's sweep on @p jobs workers with runSweep's table sent to a
 * null stream.  Metrics stay as the caller left them.
 */
SweepRun runSweepAt(const Workload &w, unsigned jobs);

/** One cell of runSweep's report, in report order. */
struct CellRef
{
    const core::NamedConfig *config;
    std::size_t program; ///< index into Workload::programs
};

/** The sweep's cells in the order its report lists them. */
std::vector<CellRef> sweepCells(const Workload &w);

/** The checkpoint / report identity of @p cell. */
std::string cellKey(const Workload &w, const CellRef &cell);

/**
 * Correctness ledger.  The first sweep document becomes the run's
 * reference once a seeded sample of its cells matches the
 * interpret-every-cell path (SweepRequest::traceReplay = false);
 * every later document and every cell the traced run produces must
 * match it byte for byte.  A cell that is not "ok", or does not match,
 * counts as failed.
 */
class Checker
{
  public:
    Checker(const Workload &w, std::uint64_t seed);

    /**
     * Check a whole sweep (the first one becomes the reference).  With
     * @p cellsOnly only the cells must match: a sweep run with metrics
     * on adds wall-clock sections to its document.
     */
    void checkSweep(const SweepRun &run, bool cellsOnly = false);

    /** Check one cell's report JSON produced outside runSweep. */
    void checkCell(std::size_t index, const std::string &cellJson);

    /**
     * Add counts checked elsewhere (by a forked copy of this ledger);
     * @p why describes any failure.
     */
    void count(std::uint64_t attempted, std::uint64_t failed,
               const std::string &why);

    /**
     * Interpret the sampled cells of the reference on @p jobs workers
     * and compare.  Needs a prepared @p study of the workload's
     * programs and a reference (call after the first checkSweep).
     */
    void checkSample(const core::Study &study, unsigned jobs);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** FNV-1a digest of the reference document, as hex. */
    std::string digest() const;
    std::size_t sampleSize() const { return sample_.size(); }
    /** The first few mismatch descriptions. */
    const std::vector<std::string> &notes() const { return notes_; }

  private:
    void fail(std::uint64_t n, const std::string &why);

    const Workload &w_;
    std::vector<CellRef> cells_;
    std::vector<std::size_t> sample_;
    std::string reference_;
    std::vector<std::string> refCells_; ///< per-cell compact JSON
    std::uint64_t refNotOk_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> notes_;
};

/**
 * The traced run (layers.cpp): per-layer metrics of @p w, passes
 * repeated for about @p seconds, cells checked through @p check.
 * Writes every span to @p spansPath; @p workDir receives the probe
 * checkpoints.
 */
obs::Json runLayers(const Workload &w, Checker &check, unsigned width,
                    const std::string &workDir, double seconds,
                    const std::string &spansPath);

} // namespace lp::bench

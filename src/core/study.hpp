/**
 * @file
 * Study harness: prepares a set of benchmark programs (building each
 * module once, running the compile-time component once) so each can run
 * under arbitrary configurations.  core::runSweep (core/sweep.hpp) runs
 * the configuration x program grid and aggregates the suite-level
 * geomeans the way the paper's figures do.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "exec/pool.hpp"
#include "guard/quarantine.hpp"

namespace lp::core {

/** A benchmark program as registered by a suite. */
struct BenchProgram
{
    std::string name;  ///< e.g. "181.mcf-like"
    std::string suite; ///< e.g. "cint2000"
    std::function<std::unique_ptr<ir::Module>()> build;
    /** Expected main() return value (self-check); 0 = unchecked. */
    std::uint64_t expected = 0;
    bool checkExpected = false;
    /**
     * Generator seed when the program is fuzz-generated (0 = a
     * hand-written suite program).  Threaded into checkpoint cell keys
     * and run reports so every failure names its reproducing seed.
     */
    std::uint64_t seed = 0;
};

/** One prepared (built + analyzed) program. */
class PreparedProgram
{
  public:
    explicit PreparedProgram(const BenchProgram &prog);

    const std::string &name() const { return prog_.name; }
    const std::string &suite() const { return prog_.suite; }

    /** Run under @p cfg; also self-checks the program output once. */
    rt::ProgramReport run(const rt::LPConfig &cfg) const;

    /** As run(), with the consistency oracle attached and judged. */
    rt::ProgramReport runWithOracle(const rt::LPConfig &cfg) const;

    /**
     * As run(), as a one-lane fused batch (runReplayBatched).
     * Byte-identical reports to run().
     */
    rt::ProgramReport runReplay(const rt::LPConfig &cfg) const;

    /** As runWithOracle(), as a one-lane fused batch. */
    rt::ProgramReport runReplayWithOracle(const rt::LPConfig &cfg) const;

    /**
     * Evaluate ALL of @p cfgs at once: one interpretation per 64 lanes
     * feeds every configuration lane (Loopapalooza::runReplayBatched).
     * Reports come back in @p cfgs order, each byte-identical to run()
     * on that configuration.
     */
    std::vector<rt::ProgramReport>
    runReplayBatched(const std::vector<rt::LPConfig> &cfgs) const;

    /** As runReplayBatched(), each report as runWithOracle()'s. */
    std::vector<rt::ProgramReport>
    runReplayBatchedWithOracle(const std::vector<rt::LPConfig> &cfgs) const;

    const Loopapalooza &driver() const { return *lp_; }

  private:
    BenchProgram prog_;
    std::unique_ptr<ir::Module> mod_;
    std::unique_ptr<Loopapalooza> lp_;
};

/** How Study prepares its programs. */
struct StudyOptions
{
    /**
     * Quarantine programs whose build/analyze/self-check fails instead
     * of aborting the whole study; failures land in prepareFailures().
     */
    bool keepGoing = false;
    /** Worker threads preparing programs (default: --jobs / LP_JOBS). */
    unsigned jobs = exec::defaultJobs();
};

/** One program that never made it past preparation (keep-going mode). */
struct PrepareFailure
{
    std::string program;
    std::string suite;
    guard::RunVerdict verdict;
};

/**
 * A set of prepared programs: every module built, verified, analyzed
 * and self-checked once, in parallel (each program is independent).
 * Programs keep their registration order whatever the worker count.
 * core::runSweep evaluates configurations over them.
 */
class Study
{
  public:
    /**
     * Prepare all of @p programs under @p opts: strict preparation
     * propagates the first failure; keep-going quarantines failures in
     * prepareFailures().
     */
    Study(const std::vector<BenchProgram> &programs,
          const StudyOptions &opts);

    /** Programs quarantined during keep-going preparation. */
    const std::vector<PrepareFailure> &prepareFailures() const
    {
        return prepareFailures_;
    }

    const std::vector<std::unique_ptr<PreparedProgram>> &programs() const
    {
        return programs_;
    }

  private:
    std::vector<std::unique_ptr<PreparedProgram>> programs_;
    std::vector<PrepareFailure> prepareFailures_;
};

} // namespace lp::core

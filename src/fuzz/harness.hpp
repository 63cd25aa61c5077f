/**
 * @file
 * Fuzzing campaign driver (`lp::fuzz`) — what the lp_fuzz CLI runs.
 *
 * Walks a seed range (optionally under a wall-clock budget), runs the
 * differential oracle pairs on every seed, and on failure optionally
 * minimizes the generation options and lands a regression entry under
 * the corpus directory.  Every failure printed carries the seed and the
 * exact CLI line (`lp_fuzz --seed=S --minimize`) that reproduces it.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/differential.hpp"

namespace lp::fuzz {

/** One campaign's parameters. */
struct HarnessOptions
{
    std::uint64_t seedBegin = 0;
    std::uint64_t seedEnd = 20; ///< exclusive
    /** Stop after this many seconds (0 = no budget). */
    double timeBudgetSec = 0.0;

    DiffOptions diff;

    bool minimize = false; ///< shrink failures and write corpus entries
    std::string corpusDir; ///< where minimized failures land
    unsigned minimizeBudget = 60; ///< predicate evals per failure

    bool verbose = false; ///< per-seed progress lines
};

/** Campaign outcome. */
struct HarnessResult
{
    std::uint64_t seedsRun = 0;
    bool budgetExhausted = false; ///< stopped early on --time-budget
    std::vector<DiffFailure> failures;
    std::vector<std::string> corpusFiles; ///< minimized entries written

    bool ok() const { return failures.empty(); }
};

/** Run the campaign, streaming failures to @p log (may be null). */
HarnessResult runHarness(const HarnessOptions &opts,
                         std::ostream *log = nullptr);

} // namespace lp::fuzz

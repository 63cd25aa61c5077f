/**
 * @file
 * Differential oracles (`lp::fuzz`).
 *
 * The framework promises that every report is what the execution
 * models define — every cell of a sweep, with and without --lint's
 * consistency oracle, agrees field by field with the spec evaluator
 * (fuzz/spec.hpp; pair spec-vs-engine) — and that one program produces
 * byte-identical reports whichever way it is driven: one worker vs
 * many, sharded-and-merged vs unsharded, killed-and-resumed vs
 * straight-through; and that lint's static classification agrees with
 * the dynamic oracle.  Each generated program is pushed through every
 * pair and any divergence is a harness failure carrying the
 * reproducing seed and the exact CLI line to replay it.
 *
 * Fault-schedule composition (`lp_fuzz --fault-schedule site:nth`):
 * transient sites (io, replay) are healed by retrying the failed
 * task, so byte-identity must survive them — the pairs run
 * unchanged with the fault re-armed before each side.  Non-transient
 * sites kill cells outright at a process-wide nth hit, whose placement
 * is only deterministic serially; those schedules run a reduced
 * repeat-determinism oracle (same serial path twice, identical
 * outcome) instead of the cross-path pairs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "fuzz/generator.hpp"

namespace lp::fuzz {

/** One divergence (or crash) found by an oracle. */
struct DiffFailure
{
    std::uint64_t seed = 0;
    std::string oracle; ///< "spec-vs-engine", "jobs1-vs-jobsN", ...
    std::string detail; ///< first divergence, error text, ...
    /** One-command reproduction, e.g. "lp_fuzz --seed=7 --minimize". */
    std::string reproLine;
};

/** How to drive the oracle pairs for one seed. */
struct DiffOptions
{
    GenOptions gen;
    unsigned jobsN = 4;  ///< the "N" of the jobs1-vs-jobsN pair
    unsigned shards = 3; ///< shard count of the sharded pair
    /** Scratch directory for checkpoint/shard files ("" = temp dir). */
    std::string scratchDir;
    /** Run the lint / oracle pairs: 5, 6, and pair 1's --lint half. */
    bool lintOracle = true;
    /** Fault schedule: site to arm before every run ("" = none). */
    std::string faultSite;
    std::uint64_t faultNth = 0;
};

/**
 * The configurations every oracle pair sweeps, each under a unique
 * label: the paper's 14 rows plus six ablation lanes, namely
 * single-sync DOACROSS under reduc0 and reduc1 dep1, HELIX dep2, PDOALL
 * reduc1-dep3-fn3, and the best PDOALL point at both ends of the
 * serialization-threshold ablation (0.05, 1.0).  That is every model,
 * every dep/reduc/fn axis and both DOACROSS synchronization modes; the
 * tests check the engine over the same grid.
 */
const std::vector<core::NamedConfig> &fullGrid();

/**
 * Run every oracle pair on the program generated from @p seed.
 * Returns the (possibly empty) list of divergences; never throws for
 * a program-under-test failure — a crash in any pair is itself
 * reported as a DiffFailure.
 */
std::vector<DiffFailure> runDifferential(std::uint64_t seed,
                                         const DiffOptions &opts = {});

/** The one-command repro line every failure report carries. */
std::string reproLineFor(std::uint64_t seed);

} // namespace lp::fuzz

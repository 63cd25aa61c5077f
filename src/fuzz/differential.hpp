/**
 * @file
 * Differential oracles (`lp::fuzz`).
 *
 * The framework promises that one program produces byte-identical
 * reports whichever way it is driven: interpret vs fused batches (with
 * and without --lint's consistency oracle), one worker vs many,
 * sharded-and-merged vs unsharded, killed-and-resumed vs
 * straight-through — and that lint's static classification agrees
 * with the dynamic oracle.  Each generated program is pushed
 * through every pair and any divergence is a harness failure carrying
 * the reproducing seed and the exact CLI line to replay it.
 *
 * Fault-schedule composition (`lp_fuzz --fault-schedule site:nth`):
 * transient sites (io, replay) are healed by retry / the batch
 * fallback, so byte-identity must survive them — the pairs run
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

#include "fuzz/generator.hpp"

namespace lp::fuzz {

/** One divergence (or crash) found by an oracle. */
struct DiffFailure
{
    std::uint64_t seed = 0;
    std::string oracle; ///< "interp-vs-replay", "jobs1-vs-jobsN", ...
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
    bool lintOracle = true; ///< run the lint / oracle pairs (5, 6, 7)
    /** Fault schedule: site to arm before every run ("" = none). */
    std::string faultSite;
    std::uint64_t faultNth = 0;
};

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

/**
 * @file
 * Deterministic fault injection (`lp::guard`).
 *
 * `LP_FAULT=<site>:<nth>` arms exactly one named injection point: the
 * nth time execution passes faultPoint(site) (1-based, counted
 * process-wide since arming), the site throws its natural error
 * category.  Counting is a plain atomic counter — no wall clock, no
 * randomness — so a given program + LP_FAULT value fails identically
 * every run, under any worker count (TSan-clean by construction).
 *
 * Registered sites and what they throw:
 *
 *   parser   ir::parseModule entry                ParseError
 *   verify   ir::verifyModuleOrDie entry          VerifyError
 *   interp   interp::Machine::run entry           InterpreterTrap
 *   io       guard::Checkpoint::record            IoError
 *   replay   rt::runLimitStudyBatched entry       IoError
 *            (a fused batch, before its interpreter runs)
 *
 * A tripped fault disarms nothing: the counter simply moves past nth,
 * so a *retry* of the failed unit succeeds — which is exactly how the
 * tests prove the quarantine/retry machinery works.  Disabled sites
 * cost one relaxed atomic load and a compare.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace lp::guard {

namespace detail {
/** 0 = LP_FAULT not parsed yet, 1 = disarmed, 2 = armed. */
extern std::atomic<int> g_faultState;
/** Parses LP_FAULT on first use; returns "armed". */
bool faultStateSlow();
/** Count a hit of @p site; throws when it is the armed site's nth. */
void faultPointHit(const char *site);
} // namespace detail

/** Is any fault armed?  One relaxed load on the fast path. */
inline bool
faultArmed()
{
    int s = detail::g_faultState.load(std::memory_order_relaxed);
    if (s == 0) [[unlikely]]
        return detail::faultStateSlow();
    return s == 2;
}

/**
 * A named injection point.  Free when nothing is armed; when the armed
 * site matches and this is its nth hit, throws that site's category.
 */
inline void
faultPoint(const char *site)
{
    if (faultArmed()) [[unlikely]]
        detail::faultPointHit(site);
}

/**
 * Arm @p site to trip on its @p nth hit from now (tests; overrides
 * LP_FAULT).  nth == 0 or an empty site disarms and resets all hit
 * counters.  Unknown sites warn and disarm.
 */
void setFault(const std::string &site, std::uint64_t nth);

/** Hits of @p site since the last (re)arm; 0 for unknown sites. */
std::uint64_t faultSiteHits(const std::string &site);

} // namespace lp::guard

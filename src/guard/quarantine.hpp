/**
 * @file
 * Failure quarantine and bounded retry (`lp::guard`).
 *
 * guardedRun() is the wrapper a sweep puts around one unit of work (one
 * program × configuration cell, one program preparation).  It turns the
 * all-or-nothing exception model into per-unit verdicts:
 *
 *  - the unit succeeds → verdict.ok, with the attempt count;
 *  - it fails with a *transient* category (errorIsTransient: LP_IO,
 *    LP_DEADLINE) → retried up to maxRetries times with exponential
 *    backoff (backoffBaseMs, doubling);
 *  - it fails deterministically (or exhausts retries) → quarantined:
 *    the verdict records the stable error code and message, and — in
 *    keep-going mode — the exception is swallowed so sibling units keep
 *    running.  With keepGoing=false the original exception is rethrown
 *    after the verdict is recorded (strict mode).
 *
 * Observability (docs/robustness.md): retries bump guard.retries,
 * quarantines bump guard.quarantined and guard.failures.<CODE>, and
 * both log WARN lines, so a degraded sweep is visible in metrics and
 * logs; a sweep task's attempts and status are its `core.task` span's.
 */

#pragma once

#include <functional>
#include <string>

#include "support/error.hpp"

namespace lp::guard {

/** Retry/quarantine policy for one guarded unit. */
struct GuardPolicy
{
    /** Swallow failures (record + continue) instead of rethrowing. */
    bool keepGoing = true;
    /** Extra attempts granted to transient failures. */
    int maxRetries = 2;
    /** First retry backoff; doubles per retry.  0 = no sleep (tests). */
    unsigned backoffBaseMs = 5;
};

/** What happened to one guarded unit. */
struct RunVerdict
{
    bool ok = true;
    int attempts = 1;
    ErrorCode code = ErrorCode::Internal; ///< meaningful when !ok
    std::string message;                  ///< full what() text when !ok

    const char *codeName() const { return errorCodeName(code); }
};

/**
 * Run @p fn under @p policy; @p what names the unit in logs
 * ("saxpy [reduc1-dep2-fn2 PDOALL]").  Never throws in keep-going mode;
 * in strict mode rethrows the final failure untouched.
 */
RunVerdict guardedRun(const std::string &what,
                      const std::function<void()> &fn,
                      const GuardPolicy &policy = {});

} // namespace lp::guard

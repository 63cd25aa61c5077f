#include "guard/quarantine.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "support/text.hpp"

namespace lp::guard {

RunVerdict
guardedRun(const std::string &what, const std::function<void()> &fn,
           const GuardPolicy &policy)
{
    RunVerdict v;
    std::exception_ptr lastError;
    for (int attempt = 1;; ++attempt) {
        v.attempts = attempt;
        try {
            fn();
            v.ok = true;
            return v;
        } catch (const Error &e) {
            v.code = e.code();
            v.message = e.what();
            lastError = std::current_exception();
        } catch (const std::exception &e) {
            // Pre-taxonomy FatalErrors and anything else land here.
            v.code = ErrorCode::Internal;
            v.message = e.what();
            lastError = std::current_exception();
        }
        v.ok = false;

        if (errorIsTransient(v.code) && attempt <= policy.maxRetries) {
            if (obs::metricsOn())
                obs::Registry::instance().counter("guard.retries").add(1);
            LP_LOG_WARN("transient failure in %s (attempt %d, %s): %s; "
                        "retrying",
                        what.c_str(), attempt, v.codeName(),
                        v.message.c_str());
            if (policy.backoffBaseMs != 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    policy.backoffBaseMs << (attempt - 1)));
            continue;
        }

        if (obs::metricsOn()) {
            obs::Registry &reg = obs::Registry::instance();
            reg.counter("guard.quarantined").add(1);
            reg.counter(std::string("guard.failures.") + v.codeName())
                .add(1);
        }
        LP_LOG_WARN("quarantined %s after %d attempt(s) [%s]: %s",
                    what.c_str(), attempt, v.codeName(),
                    v.message.c_str());
        if (!policy.keepGoing)
            std::rethrow_exception(lastError);
        return v;
    }
}

} // namespace lp::guard

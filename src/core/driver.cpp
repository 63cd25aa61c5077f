#include "core/driver.hpp"

#include "analysis/ssa_verify.hpp"
#include "guard/budget.hpp"
#include "ir/verifier.hpp"
#include "lint/oracle.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "rt/replay.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::core {

Loopapalooza::Loopapalooza(const ir::Module &mod) : mod_(mod)
{
    {
        obs::ScopedPhase phase("ir.verify");
        ir::verifyModuleOrDie(mod);
        ir::VerifyResult ssa = analysis::verifySSA(mod);
        if (!ssa.ok())
            throw VerifyError("SSA verification failed:\n" +
                              ssa.message());
    }
    {
        obs::ScopedPhase phase("rt.plan");
        plan_ = std::make_unique<rt::ModulePlan>(mod);
        index_ = std::make_unique<trace::ModuleIndex>(mod);
        tables_ = rt::ProgramTables(*plan_);
        dispatch_ = trace::buildBatchDispatchTable(*index_);
    }

    std::size_t loops = 0;
    for (const auto &fp : plan_->functionPlans())
        loops += fp->loopPlans.size();
    if (obs::metricsOn())
        obs::Registry::instance()
            .counter("plan.loops_analyzed")
            .add(loops);
    LP_LOG_INFO("analyzed module %s: %zu functions, %zu static loops",
                mod.name().c_str(), plan_->functionPlans().size(), loops);
}

rt::ProgramReport
Loopapalooza::run(const rt::LPConfig &cfg) const
{
    return std::move(runReplayBatched({cfg}).front());
}

rt::ProgramReport
Loopapalooza::runWithOracle(const rt::LPConfig &cfg) const
{
    rt::OracleCapture cap;
    return run(cfg, cap);
}

rt::ProgramReport
Loopapalooza::run(const rt::LPConfig &cfg, rt::OracleCapture &cap) const
{
    return std::move(runReplayBatched({cfg}, cap).front());
}

const trace::Trace &
Loopapalooza::trace() const
{
    std::lock_guard<prof::TimedMutex> lock(traceMu_);
    if (trace_)
        return *trace_;
    if (traceError_)
        std::rethrow_exception(traceError_);
    try {
        trace_ = std::make_unique<trace::Trace>(rt::recordTrace(
            mod_, *index_, *plan_, guard::defaultBudget()));
    }
    catch (const Error &e) {
        // A deterministic failure (trap, fuel, ...) would recur on
        // every re-record, so cache it.  Transient failures (wall-clock
        // deadline on a loaded machine) stay uncached so a retry
        // records afresh.
        if (!e.transient())
            traceError_ = std::current_exception();
        throw;
    }
    catch (...) {
        traceError_ = std::current_exception();
        throw;
    }
    LP_LOG_INFO("recorded %s: %llu events, %zu payload bytes, final "
                "cost %llu",
                mod_.name().c_str(),
                static_cast<unsigned long long>(trace_->events),
                trace_->payload.size(),
                static_cast<unsigned long long>(trace_->finalCost));
    return *trace_;
}

std::vector<rt::ProgramReport>
Loopapalooza::runReplayBatched(const std::vector<rt::LPConfig> &cfgs) const
{
    LP_LOG_DEBUG("running %s across %zu configuration(s)",
                 mod_.name().c_str(), cfgs.size());
    return rt::runLimitStudyBatched(*plan_, tables_, cfgs,
                                    mod_.name());
}

std::vector<rt::ProgramReport>
Loopapalooza::runReplayBatched(const std::vector<rt::LPConfig> &cfgs,
                               rt::OracleCapture &cap) const
{
    LP_LOG_DEBUG("running %s across %zu configuration(s) (oracle "
                 "attached)",
                 mod_.name().c_str(), cfgs.size());
    std::vector<rt::ProgramReport> reps = rt::runLimitStudyBatched(
        *plan_, tables_, cfgs, mod_.name(), &cap);
    for (rt::ProgramReport &rep : reps) {
        lint::applyOracle(cap, rep);
        lint::applyVerdictOracle(staticVerdicts(), rep);
    }
    return reps;
}

} // namespace lp::core

#include "core/study.hpp"

#include <algorithm>

#include "exec/pool.hpp"
#include "interp/machine.hpp"
#include "obs/log.hpp"
#include "obs/timer.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::core {

PreparedProgram::PreparedProgram(const BenchProgram &prog) : prog_(prog)
{
    obs::ScopedPhase phase("core.prepare");
    phase.set("program", prog_.name);
    LP_LOG_DEBUG("preparing program %s (%s)", prog_.name.c_str(),
                 prog_.suite.c_str());
    {
        obs::ScopedPhase buildPhase("ir.build");
        mod_ = prog_.build();
    }
    fatalIf(!mod_, "program " + prog_.name + " built no module");
    lp_ = std::make_unique<Loopapalooza>(*mod_);

    if (prog_.checkExpected) {
        // Self-check: a plain, uninstrumented run must produce the value
        // the kernel author recorded.  Guards against kernels silently
        // computing garbage (e.g. dead loops an optimizer would remove).
        obs::ScopedPhase checkPhase("interp.self_check");
        interp::Machine machine(*mod_);
        std::uint64_t got = machine.run();
        fatalIf(got != prog_.expected,
                strf("program %s self-check failed: got %llu, want %llu",
                     prog_.name.c_str(),
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(prog_.expected)));
    }
}

rt::ProgramReport
PreparedProgram::run(const rt::LPConfig &cfg) const
{
    return std::move(runReplayBatched({cfg}).front());
}

rt::ProgramReport
PreparedProgram::runWithOracle(const rt::LPConfig &cfg) const
{
    return std::move(runReplayBatchedWithOracle({cfg}).front());
}

rt::ProgramReport
PreparedProgram::runReplay(const rt::LPConfig &cfg) const
{
    return run(cfg);
}

rt::ProgramReport
PreparedProgram::runReplayWithOracle(const rt::LPConfig &cfg) const
{
    return runWithOracle(cfg);
}

std::vector<rt::ProgramReport>
PreparedProgram::runReplayBatched(
    const std::vector<rt::LPConfig> &cfgs) const
{
    std::vector<rt::ProgramReport> reps = lp_->runReplayBatched(cfgs);
    for (rt::ProgramReport &rep : reps)
        rep.program = prog_.name;
    return reps;
}

std::vector<rt::ProgramReport>
PreparedProgram::runReplayBatchedWithOracle(
    const std::vector<rt::LPConfig> &cfgs) const
{
    rt::OracleCapture cap;
    std::vector<rt::ProgramReport> reps = lp_->runReplayBatched(cfgs, cap);
    for (rt::ProgramReport &rep : reps)
        rep.program = prog_.name;
    return reps;
}

Study::Study(const std::vector<BenchProgram> &programs,
             const StudyOptions &opts)
{
    programs_.resize(programs.size());
    if (!opts.keepGoing) {
        exec::parallelFor(
            programs.size(),
            [&](std::size_t i) {
                programs_[i] =
                    std::make_unique<PreparedProgram>(programs[i]);
            },
            opts.jobs);
    } else {
        // Slot i is written only by the worker that claimed index i, so
        // the verdict vector needs no lock; the pool joins inside
        // parallelFor before we read it.
        std::vector<guard::RunVerdict> verdicts(programs.size());
        guard::GuardPolicy policy; // keepGoing=true: guardedRun swallows
        exec::parallelFor(
            programs.size(),
            [&](std::size_t i) {
                verdicts[i] = guard::guardedRun(
                    programs[i].name + " [prepare]",
                    [&] {
                        programs_[i] = std::make_unique<PreparedProgram>(
                            programs[i]);
                    },
                    policy);
            },
            opts.jobs);
        for (std::size_t i = 0; i < programs.size(); ++i) {
            if (verdicts[i].ok)
                continue;
            prepareFailures_.push_back(
                {programs[i].name, programs[i].suite, verdicts[i]});
        }
        std::erase_if(programs_,
                      [](const std::unique_ptr<PreparedProgram> &p) {
                          return !p;
                      });
    }
    LP_LOG_INFO("study prepared: %zu programs, %zu quarantined",
                programs_.size(), prepareFailures_.size());
}

} // namespace lp::core

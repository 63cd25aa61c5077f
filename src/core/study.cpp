#include "core/study.hpp"

#include <algorithm>

#include "exec/pool.hpp"
#include "interp/machine.hpp"
#include "obs/log.hpp"
#include "obs/timer.hpp"
#include "prof/collector.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/text.hpp"

namespace lp::core {

PreparedProgram::PreparedProgram(const BenchProgram &prog) : prog_(prog)
{
    obs::ScopedPhase phase("prepare");
    LP_LOG_DEBUG("preparing program %s (%s)", prog_.name.c_str(),
                 prog_.suite.c_str());
    {
        obs::ScopedPhase buildPhase("build");
        mod_ = prog_.build();
    }
    fatalIf(!mod_, "program " + prog_.name + " built no module");
    lp_ = std::make_unique<Loopapalooza>(*mod_);

    if (prog_.checkExpected) {
        // Self-check: a plain, uninstrumented run must produce the value
        // the kernel author recorded.  Guards against kernels silently
        // computing garbage (e.g. dead loops an optimizer would remove).
        obs::ScopedPhase checkPhase("self-check");
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
    rt::ProgramReport rep = lp_->run(cfg);
    rep.program = prog_.name;
    return rep;
}

rt::ProgramReport
PreparedProgram::runWithOracle(const rt::LPConfig &cfg) const
{
    rt::ProgramReport rep = lp_->runWithOracle(cfg);
    rep.program = prog_.name;
    return rep;
}

rt::ProgramReport
PreparedProgram::runReplay(const rt::LPConfig &cfg) const
{
    return std::move(runReplayBatched({cfg}).front());
}

rt::ProgramReport
PreparedProgram::runReplayWithOracle(const rt::LPConfig &cfg) const
{
    return std::move(runReplayBatchedWithOracle({cfg}).front());
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

Study::Study(const std::vector<BenchProgram> &programs, unsigned jobs)
{
    StudyOptions opts;
    opts.jobs = jobs;
    prepare(programs, opts);
}

Study::Study(const std::vector<BenchProgram> &programs,
             const StudyOptions &opts)
{
    prepare(programs, opts);
}

void
Study::prepare(const std::vector<BenchProgram> &programs,
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
    LP_LOG_INFO("study prepared: %zu programs, %zu suites, %zu "
                "quarantined",
                programs_.size(), suites().size(),
                prepareFailures_.size());
}

std::vector<std::string>
Study::suites() const
{
    std::vector<std::string> out;
    for (const auto &p : programs_) {
        if (std::find(out.begin(), out.end(), p->suite()) == out.end())
            out.push_back(p->suite());
    }
    return out;
}

std::vector<rt::ProgramReport>
Study::runSuite(const std::string &suite, const rt::LPConfig &cfg,
                unsigned jobs) const
{
    SuiteRunOptions opts;
    opts.jobs = jobs;
    return runSuite(suite, cfg, opts);
}

std::vector<rt::ProgramReport>
Study::runSuite(const std::string &suite, const rt::LPConfig &cfg,
                const SuiteRunOptions &opts) const
{
    std::vector<const PreparedProgram *> members;
    for (const auto &p : programs_) {
        if (p->suite() == suite)
            members.push_back(p.get());
    }
    std::vector<rt::ProgramReport> out(members.size());
    auto runCell = [&](std::size_t i) {
        return opts.oracle ? members[i]->runWithOracle(cfg)
                           : members[i]->run(cfg);
    };

    if (!opts.keepGoing) {
        exec::parallelFor(
            members.size(),
            [&](std::size_t i) {
                prof::CellScope cell(members[i]->name(), suite,
                                     cfg.str());
                cell.setAttempts(1);
                try {
                    out[i] = runCell(i);
                    cell.setInstructions(out[i].serialCost);
                    cell.setStatus("ok");
                }
                catch (Error &e) {
                    // Stamp the failing cell's identity before the
                    // abort propagates, so strict-mode diagnostics name
                    // the program, not just the error site.
                    e.noteCell(members[i]->name(), suite, cfg.str());
                    throw;
                }
            },
            opts.jobs);
        return out;
    }

    guard::GuardPolicy policy;
    policy.maxRetries = opts.maxRetries;
    policy.backoffBaseMs = opts.backoffBaseMs;
    exec::parallelFor(
        members.size(),
        [&](std::size_t i) {
            prof::CellScope cell(members[i]->name(), suite, cfg.str());
            guard::RunVerdict v = guard::guardedRun(
                members[i]->name() + " [" + cfg.str() + "]",
                [&] { out[i] = runCell(i); },
                policy);
            if (!v.ok) {
                out[i] = rt::ProgramReport{}; // drop any partial result
                out[i].program = members[i]->name();
                out[i].status = rt::RunStatus::Failed;
                out[i].errorCode = v.codeName();
                out[i].errorMessage = v.message;
            } else {
                cell.setInstructions(out[i].serialCost);
                cell.setStatus("ok");
            }
            out[i].config = cfg;
            out[i].attempts = static_cast<unsigned>(v.attempts);
            cell.setAttempts(out[i].attempts);
        },
        opts.jobs);
    return out;
}

double
Study::geomeanSpeedup(const std::vector<rt::ProgramReport> &reports)
{
    GeomeanAccum acc;
    // Clamp like geomeanCoverage does: a degenerate report (zero or
    // negative "speedup" from an empty/filtered run) must depress the
    // mean, not abort the whole sweep.
    for (const auto &r : reports)
        if (r.ok())
            acc.add(std::max(r.speedup(), 1e-6));
    return acc.value();
}

double
Study::geomeanCoverage(const std::vector<rt::ProgramReport> &reports)
{
    GeomeanAccum acc;
    for (const auto &r : reports)
        if (r.ok())
            acc.add(std::max(r.coverage * 100.0, 0.1));
    return acc.value();
}

} // namespace lp::core

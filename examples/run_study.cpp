/**
 * @file
 * Command-line front end to the whole framework.
 *
 * Usage:
 *   run_study                                  # all suites, key configs
 *   run_study cint2000                         # one suite, key configs
 *   run_study 164.gzip-like reduc1-dep1-fn2 helix   # one program/config
 *   run_study --file prog.lir reduc1-dep1-fn2 helix # study a .lir file
 *
 * Models: doall | pdoall | helix.  Flags: reduc{0,1}-dep{0..3}-fn{0..3}.
 *
 * Robustness (see docs/robustness.md):
 *   --keep-going / --strict          sweeps default to keep-going: a
 *                                    failing task (a program's fused
 *                                    batch) is retried if the failure is
 *                                    transient, else quarantined: each
 *                                    of its cells becomes a
 *                                    status=failed report and the other
 *                                    tasks finish (exit 0).  --strict
 *                                    aborts on the first failure
 *                                    (exit 1).  Single runs are strict.
 *   --budget-instructions N          dynamic-IR-instruction fuel per run
 *   --budget-wall-ms N               wall-clock deadline per run
 *   --budget-heap-bytes N            simulated heap cap per run
 *                                    (or LP_BUDGET_* env; flags win)
 *
 * Performance (see docs/performance.md): a sweep interprets each
 * program once per 64 of its configuration cells, applying every event
 * to all of them in one SoA pass (--lint too); a single run is a
 * one-cell batch.
 *   --checkpoint PATH                append one JSONL line per finished
 *                                    sweep cell to PATH
 *   --resume                         reuse cells already in the
 *                                    checkpoint; the final report is
 *                                    byte-identical to an uninterrupted
 *                                    run
 *
 * Static diagnostics (see docs/static_analysis.md):
 *   --lint | --lint=error            lint every module before the sweep
 *                                    (modules with error-level findings
 *                                    are quarantined as skipped/LP_LINT
 *                                    cells, or abort under --strict) and
 *                                    attach the static-vs-dynamic
 *                                    consistency oracle to every cell;
 *                                    "error" promotes warnings.  Oracle
 *                                    mismatches fail the sweep (exit 1).
 *
 * Observability (see docs/observability.md):
 *   --json PATH                      write the machine-readable run
 *                                    report(s) as JSON; it carries the
 *                                    metrics and phase timings only
 *                                    when LP_METRICS=1
 *   LP_LOG=off|error|warn|info|debug diagnostics level
 *   LP_METRICS=1                     record metrics
 *
 * Parallelism (see docs/parallel_execution.md):
 *   --jobs N (or LP_JOBS=N)          sweep with N worker threads
 *                                    (1-4096; N=0 or "auto": all
 *                                    hardware threads; any other --jobs
 *                                    value is a usage error).  Tables
 *                                    and JSON reports are identical to
 *                                    a serial run.
 *   --shards I/N --checkpoint PATH   run shard I of an N-way sweep:
 *                                    this process owns every Nth cell
 *                                    and checkpoints it to
 *                                    PATH.shard<I>of<N>.  Launch one
 *                                    process per shard (any order, any
 *                                    machines sharing the filesystem).
 *   --shards N --merge --checkpoint PATH
 *                                    absorb all N shard checkpoints,
 *                                    run whatever cells no shard
 *                                    finished (crash recovery), and
 *                                    report exactly like an unsharded
 *                                    sweep — the table and --json
 *                                    document are byte-identical.
 *
 * Profiling (see docs/profiling.md):
 *   --profile[=json|chrome[:PATH]]   profile of the run from its span
 *                                    log: every layer's span (a task,
 *                                    its batch, its report JSON, its
 *                                    checkpoint appends, ...) on one
 *                                    clock, per-site lock-wait
 *                                    telemetry, per-worker utilization
 *                                    and load-imbalance, one row per
 *                                    task and per cell (json also
 *                                    streams PATH.spans.jsonl).  chrome
 *                                    writes a Perfetto-loadable
 *                                    timeline of the same spans
 *                                    instead.  The profile is written
 *                                    even when the run fails; run
 *                                    reports stay byte-identical with
 *                                    profiling on or off.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "core/configs.hpp"
#include "core/driver.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "guard/budget.hpp"
#include "interp/stdlib.hpp"
#include "ir/parser.hpp"
#include "lint/engine.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/timer.hpp"
#include "prof/profile.hpp"
#include "suites/registry.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

using namespace lp;

namespace {

/** --json PATH, or empty. */
std::string g_reportPath;

/**
 * Lint mode (--lint): 0 = off, 1 = on (gate on error-level findings,
 * attach the consistency oracle), 2 = "error" (additionally promote
 * warnings to errors).
 */
int g_lintMode = 0;

/** Parse a lint-mode spelling; -1 when not understood. */
int
parseLintMode(const std::string &s)
{
    if (s == "on" || s == "1")
        return 1;
    if (s == "error")
        return 2;
    if (s == "off" || s == "0" || s.empty())
        return 0;
    return -1;
}

rt::ExecModel
parseModel(const std::string &s)
{
    if (s == "doall")
        return rt::ExecModel::DoAll;
    if (s == "pdoall")
        return rt::ExecModel::PartialDoAll;
    if (s == "helix")
        return rt::ExecModel::Helix;
    fatal("unknown model (want doall|pdoall|helix): " + s);
}

/** Write @p doc to the report path, if one was requested, and free it;
 * both are the core.write_report span.  Returns the process exit code:
 * a requested report that cannot be written is an error, not a shrug. */
int
maybeWriteReport(obs::Json doc)
{
    if (g_reportPath.empty())
        return 0;
    obs::ScopedPhase span("core.write_report");
    std::ofstream out(g_reportPath, std::ios::trunc);
    if (out)
        out << doc.dump(2) << '\n' << std::flush;
    if (!out) {
        obs::logMessage(obs::Level::Error,
                        "cannot write report to " + g_reportPath,
                        /*force=*/true);
        return 1;
    }
    doc = obs::Json();
    LP_LOG_INFO("wrote run report to %s", g_reportPath.c_str());
    return 0;
}

/**
 * Run one program under @p cfg, print its report and write its JSON.
 * A single run is a one-lane task: it gets the `exec.region` and
 * `core.task` spans a sweep task gets, so --profile shows it the same
 * way (a run that throws records as status "failed").
 */
template <typename Fn>
int
reportOne(const std::string &program, const std::string &suite,
          const rt::LPConfig &cfg, Fn &&run)
{
    rt::ProgramReport rep;
    {
        obs::ScopedPhase region("exec.region");
        obs::ScopedPhase task("core.task");
        core::labelTask(task, program, suite, {cfg.str()});
        task.set("attempts", 1);
        rep = run();
        task.set("instructions", rep.serialCost);
        task.set("status", "ok");
    }
    rep.print(std::cout, /*perLoop=*/true);
    obs::Json doc = rep.toJson();
    core::addObsSnapshot(doc);
    return maybeWriteReport(std::move(doc));
}

/** Under --lint, lint @p analyses and print the findings.  True when
 * error-level findings stop the run of @p name (reported as LP_LINT). */
bool
lintStops(const analysis::ModuleAnalyses &analyses, const std::string &name)
{
    if (g_lintMode == 0)
        return false;
    lint::LintResult res =
        core::lintAndPrint(analyses, g_lintMode, std::cout);
    if (!res.hasErrors())
        return false;
    std::cerr << "error: [LP_LINT] " << name << ": "
              << res.countAtLeast(lint::Severity::Error)
              << " error-level lint finding(s)\n";
    return true;
}

int
runFile(const std::string &path, const std::string &flags,
        const std::string &model)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto mod = ir::parseModule(buf.str(), interp::stdlibImplFor);
    std::optional<core::Loopapalooza> lp;
    try {
        lp.emplace(*mod);
    } catch (const Error &) {
        // A module the driver rejects is linted from a bundle of its
        // own, so its findings still print before the rejection.
        if (lintStops(analysis::ModuleAnalyses(*mod), path))
            return 1;
        throw;
    }
    if (lintStops(lp->plan().analyses(), path))
        return 1;
    rt::LPConfig cfg = rt::LPConfig::parse(flags, parseModel(model));
    return reportOne(path, "file", cfg, [&] {
        return g_lintMode != 0 ? lp->runWithOracle(cfg) : lp->run(cfg);
    });
}

int
runSingle(const std::string &name, const std::string &flags,
          const std::string &model)
{
    for (const auto &prog : suites::allPrograms()) {
        if (prog.name != name)
            continue;
        core::PreparedProgram prepared(prog);
        if (lintStops(prepared.driver().plan().analyses(), name))
            return 1;
        rt::LPConfig cfg = rt::LPConfig::parse(flags, parseModel(model));
        return reportOne(name, prog.suite, cfg, [&] {
            return g_lintMode != 0 ? prepared.runWithOracle(cfg)
                                   : prepared.run(cfg);
        });
    }
    std::cerr << "unknown benchmark: " << name << "\n";
    return 1;
}

int
sweepSuites(const std::string &onlySuite, core::SweepRequest sweep)
{
    sweep.suite = onlySuite;
    sweep.lintMode = g_lintMode;
    sweep.wantJson = !g_reportPath.empty();
    core::SweepResult res = core::runSweep(suites::allPrograms(), sweep);
    int rc = res.exitCode;
    if (res.hasDocument) {
        int wrc = maybeWriteReport(std::move(res.document));
        if (rc == 0)
            rc = wrc;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    core::SweepRequest sweep;
    guard::RunBudget budget = guard::defaultBudget();
    bool budgetTouched = false;

    // Write the profile (if one was requested) whatever the verb and
    // whatever the outcome: a failed run's spans are evidence too.
    auto finishProfile = [](int rc) {
        return prof::finish() ? rc : rc != 0 ? rc : 1;
    };

    // Extract the option flags anywhere on the command line.
    std::vector<std::string> args;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            auto value = [&](const char *what) -> std::string {
                if (i + 1 >= argc)
                    fatal(std::string(what) + " requires a value");
                return argv[++i];
            };
            if (a == "--json") {
                g_reportPath = value("--json");
                continue;
            }
            if (a == "--lint" || a.rfind("--lint=", 0) == 0) {
                std::string spec =
                    a == "--lint" ? "on" : a.substr(sizeof("--lint=") - 1);
                int mode = parseLintMode(spec);
                if (mode < 0)
                    fatal("bad --lint value (want on|error|off): " + spec);
                g_lintMode = mode;
                continue;
            }
            if (a == "--keep-going") {
                sweep.keepGoing = true;
                continue;
            }
            if (a == "--strict") {
                sweep.keepGoing = false;
                continue;
            }
            if (a == "--checkpoint") {
                sweep.checkpointPath = value("--checkpoint");
                continue;
            }
            if (a == "--resume") {
                sweep.resume = true;
                continue;
            }
            if (a == "--shards") {
                // "I/N" runs one shard; a plain "N" names the shard
                // count for --merge.
                std::string spec = value("--shards");
                auto bad = [&]() -> unsigned {
                    fatal("bad --shards value (want I/N or N): " + spec);
                };
                auto parseCount = [&](const std::string &s) -> unsigned {
                    char *end = nullptr;
                    unsigned long v = std::strtoul(s.c_str(), &end, 10);
                    if (s.empty() || *end != '\0' || v == 0 || v > 4096)
                        return bad();
                    return static_cast<unsigned>(v);
                };
                std::size_t slash = spec.find('/');
                if (slash == std::string::npos) {
                    sweep.shardIndex = 0;
                    sweep.shardCount = parseCount(spec);
                } else {
                    sweep.shardIndex = parseCount(spec.substr(0, slash));
                    sweep.shardCount =
                        parseCount(spec.substr(slash + 1));
                    if (sweep.shardIndex > sweep.shardCount)
                        fatal("shard index out of range: " + spec);
                }
                continue;
            }
            if (a == "--merge") {
                sweep.merge = true;
                continue;
            }
            if (a == "--budget-instructions") {
                budget.maxInstructions = guard::parseBudgetValue(
                    "--budget-instructions",
                    value("--budget-instructions"));
                budgetTouched = true;
                continue;
            }
            if (a == "--budget-wall-ms") {
                budget.maxWallMs = guard::parseBudgetValue(
                    "--budget-wall-ms", value("--budget-wall-ms"));
                budgetTouched = true;
                continue;
            }
            if (a == "--budget-heap-bytes") {
                budget.maxHeapBytes = guard::parseBudgetValue(
                    "--budget-heap-bytes", value("--budget-heap-bytes"));
                budgetTouched = true;
                continue;
            }
            if (a == "--profile" || a.rfind("--profile=", 0) == 0) {
                std::string spec = a == "--profile"
                                       ? "json"
                                       : a.substr(sizeof("--profile=") -
                                                  1);
                if (!prof::configure(spec))
                    fatal("bad --profile value (want json|chrome[:PATH] "
                          "or off): " +
                          spec);
                continue;
            }
            if (a == "--jobs") {
                std::string spec = value("--jobs");
                // parseJobs resolves "all hardware threads", so the
                // override is a concrete count (setJobsOverride(0)
                // clears it).
                std::optional<unsigned> jobs = exec::parseJobs(spec);
                if (!jobs)
                    fatal("bad --jobs value (want a count 1-4096, 0 or "
                          "'auto'): " +
                          spec);
                exec::setJobsOverride(*jobs);
                continue;
            }
            // Any other "--" word is a typo or a retired flag; taking
            // it as a suite or program name would silently sweep
            // something else.
            if (a.rfind("--", 0) == 0 && a != "--file")
                fatal("unknown option: " + a);
            args.push_back(std::move(a));
        }

        if (sweep.resume && sweep.checkpointPath.empty())
            fatal("--resume requires --checkpoint PATH");
        if (sweep.merge && sweep.shardCount == 0)
            fatal("--merge requires --shards N");
        if (!sweep.merge && sweep.shardCount != 0 &&
            sweep.shardIndex == 0)
            fatal("--shards N runs nothing by itself: use --shards I/N "
                  "for one shard, or add --merge to combine them");
        if (budgetTouched)
            guard::setBudgetOverride(budget);

        // A word too many or too few (a forgotten model, two suites)
        // must not fall through to sweeping every suite.
        const bool file = !args.empty() && args[0] == "--file";
        if (file && args.size() == 4)
            return finishProfile(runFile(args[1], args[2], args[3]));
        if (!file && args.size() == 3)
            return finishProfile(runSingle(args[0], args[1], args[2]));
        if (!file && args.size() == 1)
            return finishProfile(sweepSuites(args[0], sweep));
        if (args.empty())
            return finishProfile(sweepSuites("", sweep));
        fatal("usage: run_study [<suite>] | run_study <program> <flags> "
              "<model> | run_study --file <path.lir> <flags> <model>");
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return finishProfile(1);
    }
}

#include "core/sweep.hpp"

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "core/configs.hpp"
#include "exec/pool.hpp"
#include "guard/checkpoint.hpp"
#include "guard/quarantine.hpp"
#include "lint/engine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace lp::core {

lint::LintResult
lintAndPrint(const analysis::ModuleAnalyses &analyses, int lintMode,
             std::ostream &out)
{
    obs::ScopedPhase span("lint.module");
    span.set("module", analyses.module().name());
    lint::LintOptions lo;
    lo.warningsAsErrors = lintMode == 2;
    lint::LintResult res = lint::lintModule(analyses, lo);
    if (obs::metricsOn()) {
        obs::Registry::instance().counter("lint.modules_linted").add(1);
        obs::Registry::instance()
            .counter("lint.findings")
            .add(res.diags.size());
    }
    for (const lint::Diagnostic &d : res.diags)
        out << "lint: " << d.str() << "\n";
    return res;
}

void
labelTask(obs::ScopedPhase &span, const std::string &program,
          const std::string &suite, const std::vector<std::string> &configs)
{
    obs::Json cells = obs::Json::array();
    for (const std::string &c : configs)
        cells.push(c);
    span.set("program", program);
    span.set("suite", suite);
    span.set("cells", std::move(cells));
    span.set("status", "failed");
}

void
addObsSnapshot(obs::Json &doc)
{
    if (!obs::metricsOn())
        return;
    doc.set("metrics", obs::Registry::instance().toJson());
    doc.set("phases", obs::phasesJson(obs::SpanLog::instance().records()));
}

std::string
shardCheckpointPath(const std::string &base, unsigned index,
                    unsigned count)
{
    return base + ".shard" + std::to_string(index) + "of" +
           std::to_string(count);
}

SweepResult
runSweep(const std::vector<BenchProgram> &programs, const SweepRequest &req,
         std::ostream &out)
{
    for (std::size_t i = 0; i < req.configs.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (req.configs[j].label == req.configs[i].label)
                fatal("sweep configuration label repeated: '" +
                      req.configs[i].label +
                      "' (labels key checkpoint cells and shard merges)");

    const bool sharded = req.shardIndex != 0;
    if (sharded || req.merge) {
        // Shard ownership is positional (cell index mod shard count),
        // so every validation failure here is a config error, not a
        // recoverable condition.
        if (req.checkpointPath.empty())
            fatal("--shards requires --checkpoint PATH (the shard "
                  "checkpoints are the merge protocol)");
        if (req.shardCount == 0)
            fatal("--shards needs a shard count");
        if (sharded && req.merge)
            fatal("--shards I/N runs one shard; --merge takes the plain "
                  "count (--shards N --merge)");
        if (sharded && req.shardIndex > req.shardCount)
            fatal("shard index " + std::to_string(req.shardIndex) +
                  " out of range (have " +
                  std::to_string(req.shardCount) + " shard(s))");
        if (sharded && req.wantJson)
            fatal("a shard run produces no report (merge the shards "
                  "with --merge --json)");
    }

    SweepResult result;
    // Everything after the dispatch region is the core.aggregate span,
    // down to the study's and the cells' destruction: declared before
    // them, it closes after them.
    std::optional<obs::ScopedPhase> aggregate;

    std::vector<BenchProgram> progs;
    for (const auto &p : programs)
        if (req.suite.empty() || p.suite == req.suite)
            progs.push_back(p);
    if (progs.empty()) {
        std::cerr << "no benchmarks match suite '" << req.suite << "'\n";
        result.exitCode = 1;
        return result;
    }

    StudyOptions studyOpts;
    studyOpts.keepGoing = req.keepGoing;
    Study study(progs, studyOpts);

    std::map<std::string, const PreparedProgram *> preparedByName;
    for (const auto &p : study.programs())
        preparedByName[p->name()] = p.get();
    std::map<std::string, const PrepareFailure *> prepFailByName;
    for (const auto &f : study.prepareFailures())
        prepFailByName[f.program] = &f;

    // Pre-sweep lint gate (--lint): every prepared module is linted
    // once, before any cell runs.  A module with error-level findings
    // never executes — strict mode aborts the sweep, keep-going
    // quarantines all its cells as status=skipped / LP_LINT.
    std::map<std::string, std::string> lintFailByName;
    if (req.lintMode != 0) {
        for (const auto &p : study.programs()) {
            lint::LintResult res = lintAndPrint(
                p->driver().plan().analyses(), req.lintMode, out);
            if (!res.hasErrors())
                continue;
            std::string first;
            for (const lint::Diagnostic &d : res.diags)
                if (d.severity == lint::Severity::Error) {
                    first = d.str();
                    break;
                }
            std::string msg =
                "lint: " +
                std::to_string(res.countAtLeast(lint::Severity::Error)) +
                " error-level finding(s); first: " + first;
            if (!req.keepGoing) {
                ErrorContext ctx;
                ctx.program = p->name();
                ctx.suite = p->suite();
                throw LintError(msg, ctx);
            }
            lintFailByName[p->name()] = msg;
        }
    }

    // Suite order from the registration list, not the prepared
    // programs: a suite whose every program failed to prepare must
    // still show up (as skipped cells), not silently vanish.
    std::vector<std::string> suiteOrder;
    for (const auto &p : progs)
        if (std::find(suiteOrder.begin(), suiteOrder.end(), p.suite) ==
            suiteOrder.end())
            suiteOrder.push_back(p.suite);

    std::unique_ptr<guard::Checkpoint> ckpt;
    if (sharded) {
        // Each shard appends to its own checkpoint file, so concurrent
        // shard processes never contend on (or tear) a shared file.
        ckpt = std::make_unique<guard::Checkpoint>(
            shardCheckpointPath(req.checkpointPath, req.shardIndex,
                                req.shardCount),
            req.resume);
    } else if (req.merge) {
        // The merge is itself a resumable sweep: its own checkpoint
        // (".merge") carries any cells the merge ran on a previous
        // attempt, and absorbing the shard files loads everything the
        // shards completed.  Whatever remains — the in-flight cells of
        // a crashed shard, a shard that never ran — is executed below
        // like any other un-checkpointed cell.
        ckpt = std::make_unique<guard::Checkpoint>(
            req.checkpointPath + ".merge", /*resume=*/true);
        std::size_t absorbed = 0;
        for (unsigned i = 1; i <= req.shardCount; ++i)
            absorbed += ckpt->absorb(shardCheckpointPath(
                req.checkpointPath, i, req.shardCount));
        LP_LOG_INFO("merge: absorbed %zu cell(s) from %u shard "
                    "checkpoint(s)",
                    absorbed, req.shardCount);
    } else if (!req.checkpointPath.empty()) {
        ckpt = std::make_unique<guard::Checkpoint>(req.checkpointPath,
                                                   req.resume);
    }
    if (ckpt && ckpt->loadedCells() != 0)
        LP_LOG_INFO("resuming: %zu cell(s) loaded from %s",
                    ckpt->loadedCells(), ckpt->path().c_str());

    // The sweep is a flat list of (configuration, suite, program)
    // cells — the unit of reporting, of checkpointing and of sharding
    // (the unit of work is the task, below).  Results are stored by
    // cell index, so the table and the JSON document come out identical
    // whatever the worker count, and identical between a resumed and an
    // uninterrupted run (resumed cells reuse their stored JSON
    // verbatim).  Sharding leans on the same flatness: the list order is
    // deterministic, so "cell index mod shard count" partitions it
    // without coordination.
    struct Cell
    {
        const NamedConfig *config;
        std::string suite;
        std::string program;
        std::uint64_t seed; ///< generator seed (0 = hand-written)
        const PreparedProgram *prepared; ///< null = prepare failed
        obs::Json json;
    };
    std::vector<Cell> cells;
    for (const NamedConfig &named : req.configs)
        for (const std::string &suite : suiteOrder)
            for (const auto &p : progs) {
                if (p.suite != suite)
                    continue;
                auto it = preparedByName.find(p.name);
                cells.push_back(
                    {&named, suite, p.name, p.seed,
                     it == preparedByName.end() ? nullptr : it->second,
                     obs::Json()});
            }

    // A cell's report when it carries only a verdict (skipped or
    // failed), no results.
    auto verdictReport = [&](const Cell &cell, rt::RunStatus status,
                             std::string code, std::string message,
                             unsigned attempts) {
        rt::ProgramReport rep;
        rep.program = cell.program;
        rep.seed = cell.seed;
        rep.config = cell.config->config;
        rep.status = status;
        rep.errorCode = std::move(code);
        rep.errorMessage = std::move(message);
        rep.attempts = attempts;
        return rep.toJson();
    };
    auto cellKeyOf = [&](const Cell &cell) {
        return guard::Checkpoint::cellKey(cell.config->label, cell.suite,
                                          cell.program, cell.seed);
    };

    // This process owns every cell (unsharded) or the cells whose flat
    // index is congruent to shardIndex-1 mod shardCount — a
    // deterministic, coordination-free partition that also round-robins
    // each configuration's cheap and expensive programs across shards.
    // Owned cells that need no run are filled in here, each profiled
    // as a core.cell instant; the rest are fresh.
    std::vector<std::size_t> owned, fresh;
    std::size_t nResumed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (sharded && i % req.shardCount != req.shardIndex - 1)
            continue;
        owned.push_back(i);
        Cell &cell = cells[i];
        std::string status = "skipped";
        auto lintFail = lintFailByName.find(cell.program);
        if (!cell.prepared) {
            // Program never prepared: the cell was not attempted.
            // Synthesized fresh every run (never checkpointed), which
            // is still deterministic — the prepare verdict is.
            const guard::RunVerdict &v =
                prepFailByName[cell.program]->verdict;
            cell.json = verdictReport(cell, rt::RunStatus::Skipped,
                                      v.codeName(),
                                      "prepare failed: " + v.message,
                                      static_cast<unsigned>(v.attempts));
        } else if (lintFail != lintFailByName.end()) {
            // Quarantined by the lint gate; like prepare failures these
            // cells are synthesized fresh every run, never checkpointed.
            cell.json = verdictReport(cell, rt::RunStatus::Skipped,
                                      errorCodeName(ErrorCode::Lint),
                                      lintFail->second, 1);
        } else if (const obs::Json *stored =
                       ckpt ? ckpt->find(cellKeyOf(cell)) : nullptr) {
            cell.json = *stored;
            status = "resumed";
            ++nResumed;
        } else {
            fresh.push_back(i);
            continue;
        }
        obs::instant("core.cell", obs::Json::object()
                                      .set("program", cell.program)
                                      .set("suite", cell.suite)
                                      .set("config", cell.config->label)
                                      .set("status", status));
    }

    // The unit of work is the task: one program's fresh cells as one
    // fused batch (one interpretation per 64 lanes drives every cell's
    // configuration), in registration order.  A task is retried,
    // quarantined and profiled whole.
    std::vector<std::vector<std::size_t>> tasks;
    for (const auto &p : study.programs()) {
        std::vector<std::size_t> lanes;
        for (std::size_t i : fresh)
            if (cells[i].prepared == p.get())
                lanes.push_back(i);
        if (!lanes.empty())
            tasks.push_back(std::move(lanes));
    }

    auto runTask = [&](std::size_t k) {
        const std::vector<std::size_t> &lanes = tasks[k];
        const Cell &first = cells[lanes.front()];
        obs::ScopedPhase span("core.task");
        std::vector<std::string> labels;
        for (std::size_t i : lanes)
            labels.push_back(cells[i].config->label);
        labelTask(span, first.program, first.suite, labels);
        // Run and checkpoint as one guarded unit: a transient failure
        // (LP_IO from an append too) retries the whole task, so the
        // checkpoint only ever holds cells whose task really ran.
        auto work = [&] {
            // Under --lint the consistency oracle rides along (the
            // reports gain their "oracle" section; reports of lint-free
            // runs are unchanged, keeping checkpoint resume
            // byte-identical), captured once per batch.
            std::vector<rt::LPConfig> cfgs;
            cfgs.reserve(lanes.size());
            for (std::size_t i : lanes)
                cfgs.push_back(cells[i].config->config);
            std::vector<rt::ProgramReport> reps =
                req.lintMode != 0
                    ? first.prepared->runReplayBatchedWithOracle(cfgs)
                    : first.prepared->runReplayBatched(cfgs);
            span.set("instructions", reps.front().serialCost);
            {
                obs::ScopedPhase json("rt.report_json");
                for (std::size_t l = 0; l < lanes.size(); ++l) {
                    reps[l].seed = cells[lanes[l]].seed;
                    cells[lanes[l]].json = reps[l].toJson();
                }
            }
            if (ckpt) {
                obs::ScopedPhase append("guard.checkpoint_append");
                for (std::size_t i : lanes)
                    ckpt->record(cellKeyOf(cells[i]), cells[i].json);
            }
        };
        if (!req.keepGoing) {
            try {
                span.set("attempts", 1);
                work();
                span.set("status", "ok");
            }
            catch (Error &e) {
                e.noteCell(first.program, first.suite, first.config->label);
                throw;
            }
            return;
        }
        const std::string what =
            lanes.size() == 1 ? first.config->label
                              : std::to_string(lanes.size()) + " lanes";
        guard::RunVerdict v = guard::guardedRun(
            first.program + " [" + what + " " + first.suite + "]", work);
        span.set("attempts", v.attempts);
        if (v.ok) {
            span.set("status", "ok");
            return;
        }
        // Quarantined: every cell of the task carries the verdict.  Not
        // checkpointed: a deterministic failure reproduces on resume,
        // and a flaky one deserves the fresh attempt.
        for (std::size_t i : lanes)
            cells[i].json =
                verdictReport(cells[i], rt::RunStatus::Failed, v.codeName(),
                              v.message, static_cast<unsigned>(v.attempts));
    };

    // The dispatch is the profile's region: queue-wait and worker
    // utilization are measured against it.
    {
        obs::ScopedPhase region("exec.region");
        exec::parallelFor(tasks.size(), runTask);
    }
    aggregate.emplace("core.aggregate");

    if (sharded) {
        // No table, no aggregation: a shard sees only its slice, so any
        // per-(config, suite) geomean it printed would be wrong.  The
        // merge step owns reporting.
        std::size_t ok = 0, failed = 0, skipped = 0;
        std::uint64_t oracleMismatches = 0;
        std::uint64_t verdictContradictions = 0;
        for (std::size_t i : owned) {
            const std::string &status =
                cells[i].json.at("status").asString();
            (status == "ok"      ? ok
             : status == "failed" ? failed
                                  : skipped) += 1;
            if (cells[i].json.contains("oracle"))
                oracleMismatches += cells[i]
                                        .json.at("oracle")
                                        .at("mismatches")
                                        .asU64();
            if (cells[i].json.contains("static_verdict"))
                verdictContradictions += cells[i]
                                             .json.at("static_verdict")
                                             .at("contradictions")
                                             .asU64();
        }
        out << "shard " << req.shardIndex << "/" << req.shardCount
            << ": " << owned.size() << " of " << cells.size()
            << " cell(s) — " << ok << " ok, " << failed
            << " failed, " << skipped << " skipped, "
            << nResumed << " resumed\n"
            << "checkpoint: " << ckpt->path() << "\n";
        if (oracleMismatches != 0)
            out << "oracle: " << oracleMismatches
                << " mismatch(es) in this shard\n";
        if (verdictContradictions != 0)
            out << "static verdicts: " << verdictContradictions
                << " contradiction(s) in this shard\n";
        result.exitCode =
            oracleMismatches != 0 || verdictContradictions != 0 ? 1 : 0;
        return result;
    }

    obs::Json suitesJson = obs::Json::array();
    obs::Json reportsJson = obs::Json::array();
    TextTable t({"configuration", "suite", "geomean speedup",
                 "geomean coverage", "ok", "failed", "skipped"});
    std::vector<std::string> unhealthy; ///< the "did not complete" lines
    std::uint64_t oraclePhisChecked = 0, oracleMismatches = 0;
    std::size_t oracleCells = 0;
    std::uint64_t verdictsChecked = 0, verdictContradictions = 0;
    std::size_t verdictCells = 0;

    // Aggregate per (configuration, suite) group.  Everything — status,
    // geomean inputs — is read back from the cell JSON, so fresh,
    // checkpoint-resumed and shard-merged cells flow through the
    // identical computation; that shared path is what makes a merged
    // report byte-identical to an unsharded run's.  Once read, each
    // cell's tree moves into the document.
    std::size_t at = 0;
    for (const NamedConfig &named : req.configs) {
        for (const std::string &suite : suiteOrder) {
            GeomeanAccum accSpeedup, accCoverage;
            std::size_t ok = 0, failed = 0, skipped = 0;
            for (; at < cells.size() && cells[at].config == &named &&
                   cells[at].suite == suite;
                 ++at) {
                Cell &cell = cells[at];
                const std::string &status =
                    cell.json.at("status").asString();
                if (status == "ok") {
                    ++ok;
                    accSpeedup.add(std::max(
                        cell.json.at("speedup").asDouble(), 1e-6));
                    accCoverage.add(std::max(
                        cell.json.at("coverage").asDouble() * 100.0,
                        0.1));
                } else {
                    (status == "failed" ? failed : skipped) += 1;
                    unhealthy.push_back(
                        "  " + status + "  " + cell.program + " [" +
                        cell.config->label + " " + cell.suite + "]  " +
                        cell.json.at("error_code").asString());
                }
                if (cell.json.contains("oracle")) {
                    const obs::Json &o = cell.json.at("oracle");
                    oraclePhisChecked += o.at("phis_checked").asU64();
                    oracleMismatches += o.at("mismatches").asU64();
                    ++oracleCells;
                }
                if (cell.json.contains("static_verdict")) {
                    const obs::Json &sv =
                        cell.json.at("static_verdict");
                    verdictsChecked += sv.at("loops").size();
                    verdictContradictions +=
                        sv.at("contradictions").asU64();
                    ++verdictCells;
                }
                if (req.wantJson)
                    reportsJson.push(std::move(cell.json));
            }
            double speedup = accSpeedup.value();
            double coverage = accCoverage.value();
            t.addRow({named.label, suite, TextTable::num(speedup) + "x",
                      TextTable::num(coverage, 1) + "%",
                      std::to_string(ok), std::to_string(failed),
                      std::to_string(skipped)});
            if (req.wantJson) {
                obs::Json row = obs::Json::object();
                row.set("config", named.label);
                row.set("suite", suite);
                row.set("geomean_speedup", speedup);
                row.set("geomean_coverage_pct", coverage);
                row.set("ok", ok);
                row.set("failed", failed);
                row.set("skipped", skipped);
                suitesJson.push(std::move(row));
            }
        }
    }
    t.print(out);

    if (oracleCells != 0)
        out << "oracle: " << oraclePhisChecked
            << " phi(s) checked across " << oracleCells
            << " cell(s), " << oracleMismatches << " mismatch(es)\n";
    if (verdictCells != 0)
        out << "static verdicts: " << verdictsChecked
            << " loop verdict(s) checked across " << verdictCells
            << " cell(s), " << verdictContradictions
            << " contradiction(s)\n";

    if (!unhealthy.empty()) {
        out << unhealthy.size() << " cell(s) did not complete:\n";
        for (const std::string &line : unhealthy)
            out << line << "\n";
    }

    if (req.wantJson) {
        obs::Json doc = obs::Json::object();
        doc.set("suites", std::move(suitesJson));
        doc.set("reports", std::move(reportsJson));
        addObsSnapshot(doc);
        result.hasDocument = true;
        result.document = std::move(doc);
    }
    // A static-vs-dynamic inconsistency is a defect in the framework's
    // classifier, not in the benchmark: fail the sweep.
    result.exitCode =
        oracleMismatches != 0 || verdictContradictions != 0 ? 1 : 0;
    return result;
}

} // namespace lp::core

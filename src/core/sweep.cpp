#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <memory>

#include "core/configs.hpp"
#include "exec/pool.hpp"
#include "guard/checkpoint.hpp"
#include "guard/quarantine.hpp"
#include "lint/engine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "prof/collector.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace lp::core {

lint::LintResult
lintAndPrint(const ir::Module &mod, int lintMode, std::ostream &out)
{
    lint::LintOptions lo;
    lo.warningsAsErrors = lintMode == 2;
    lint::LintResult res = lint::lintModule(mod, lo);
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

    // Pre-sweep lint gate (--lint / LP_LINT): every prepared module is
    // linted once, before any cell runs.  A module with error-level
    // findings never executes — strict mode aborts the sweep, keep-going
    // quarantines all its cells as status=skipped / LP_LINT.
    std::map<std::string, std::string> lintFailByName;
    if (req.lintMode != 0) {
        obs::ScopedPhase phase("lint");
        for (const auto &p : study.programs()) {
            lint::LintResult res =
                lintAndPrint(p->driver().module(), req.lintMode, out);
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
    // cells — the unit of parallelism, of quarantine, of checkpointing
    // and of sharding.  Results are stored by cell index, so the table
    // and the JSON document come out identical whatever the worker
    // count, and identical between a resumed and an uninterrupted run
    // (resumed cells reuse their stored JSON verbatim).  Sharding
    // leans on the same flatness: the list order is deterministic, so
    // "cell index mod shard count" partitions it without coordination.
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

    // Shard-summary counters (harmless in unsharded runs).
    std::atomic<std::size_t> nResumed{0};

    auto runCell = [&](std::size_t i) {
        Cell &cell = cells[i];
        const rt::LPConfig &cfg = cell.config->config;
        prof::CellScope cellProf(cell.program, cell.suite,
                                 cell.config->label);
        if (!cell.prepared) {
            // Program never prepared: the cell was not attempted.
            // Synthesized fresh every run (never checkpointed), which
            // is still deterministic — the prepare verdict is.
            const PrepareFailure *pf = prepFailByName[cell.program];
            rt::ProgramReport rep;
            rep.program = cell.program;
            rep.seed = cell.seed;
            rep.config = cfg;
            rep.status = rt::RunStatus::Skipped;
            rep.errorCode = pf->verdict.codeName();
            rep.errorMessage = "prepare failed: " + pf->verdict.message;
            rep.attempts = static_cast<unsigned>(pf->verdict.attempts);
            cell.json = rep.toJson(/*withObsSnapshot=*/false);
            cellProf.setStatus("skipped");
            return;
        }
        auto lintFail = lintFailByName.find(cell.program);
        if (lintFail != lintFailByName.end()) {
            // Quarantined by the lint gate; like prepare failures these
            // cells are synthesized fresh every run, never checkpointed.
            rt::ProgramReport rep;
            rep.program = cell.program;
            rep.seed = cell.seed;
            rep.config = cfg;
            rep.status = rt::RunStatus::Skipped;
            rep.errorCode = errorCodeName(ErrorCode::Lint);
            rep.errorMessage = lintFail->second;
            cell.json = rep.toJson(/*withObsSnapshot=*/false);
            cellProf.setStatus("skipped");
            return;
        }
        const std::string key = guard::Checkpoint::cellKey(
            cell.config->label, cell.suite, cell.program, cell.seed);
        if (ckpt) {
            if (const obs::Json *stored = ckpt->find(key)) {
                cell.json = *stored;
                cellProf.setStatus("resumed");
                nResumed.fetch_add(1, std::memory_order_relaxed);
                return;
            }
        }
        // Run and checkpoint as one guarded unit: a transient failure
        // retries the whole unit, so a cell is checkpointed iff it
        // really finished.
        auto work = [&] {
            // Under --lint the consistency oracle rides along on every
            // cell (the report gains its "oracle" section; reports of
            // lint-free runs are unchanged, keeping checkpoint resume
            // byte-identical).  With fused batches on, the cell runs
            // as a one-lane batch.
            const bool oracle = req.lintMode != 0;
            rt::ProgramReport rep =
                req.traceReplay
                    ? (oracle ? cell.prepared->runReplayWithOracle(cfg)
                              : cell.prepared->runReplay(cfg))
                    : (oracle ? cell.prepared->runWithOracle(cfg)
                              : cell.prepared->run(cfg));
            rep.seed = cell.seed;
            cellProf.setInstructions(rep.serialCost);
            cell.json = rep.toJson(/*withObsSnapshot=*/false);
            if (ckpt)
                ckpt->record(key, cell.json);
        };
        if (!req.keepGoing) {
            try {
                cellProf.setAttempts(1);
                work();
                cellProf.setStatus("ok");
            }
            catch (Error &e) {
                e.noteCell(cell.program, cell.suite, cell.config->label);
                throw;
            }
            return;
        }
        guard::RunVerdict v = guard::guardedRun(
            cell.program + " [" + cell.config->label + " " + cell.suite +
                "]",
            work);
        cellProf.setAttempts(static_cast<unsigned>(v.attempts));
        if (v.ok)
            cellProf.setStatus("ok");
        if (!v.ok) {
            rt::ProgramReport rep;
            rep.program = cell.program;
            rep.seed = cell.seed;
            rep.config = cfg;
            rep.status = rt::RunStatus::Failed;
            rep.errorCode = v.codeName();
            rep.errorMessage = v.message;
            rep.attempts = static_cast<unsigned>(v.attempts);
            cell.json = rep.toJson(/*withObsSnapshot=*/false);
            // Not checkpointed: a deterministic failure reproduces on
            // resume, and a flaky one deserves the fresh attempt.
        }
    };

    // This process owns every cell (unsharded) or the cells whose flat
    // index is congruent to shardIndex-1 mod shardCount — a
    // deterministic, coordination-free partition that also round-robins
    // each configuration's cheap and expensive programs across shards.
    std::vector<std::size_t> owned;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (!sharded || i % req.shardCount == req.shardIndex - 1)
            owned.push_back(i);

    auto cellKeyOf = [&](const Cell &cell) {
        return guard::Checkpoint::cellKey(cell.config->label, cell.suite,
                                          cell.program, cell.seed);
    };

    // Dispatch the owned cells.  Two phases, both inside the profiled
    // region:
    //
    //  A. Fused batches (the default): the runnable cells are grouped
    //     by program, one task per program in registration order, and
    //     each task interprets its program once per 64 lanes with every
    //     cell's configuration attached.  A batch that fails (a trap,
    //     an injected fault, a deadline) is simply left to phase B.
    //  B. The per-cell path for everything else: resumed cells,
    //     prepare/lint-quarantined cells, lanes a failed batch demoted
    //     (each run alone as a one-lane batch, under the retry and
    //     quarantine policy), and the whole sweep under
    //     --no-trace-replay.
    std::vector<char> done(cells.size(), 0);
    auto dispatchCells = [&] {
        // Phase A: one fused batch per program over its runnable cells
        // (not prepare-failed, not lint-gated, not checkpoint-resumed).
        if (req.traceReplay) {
            std::vector<std::pair<const PreparedProgram *,
                                  std::vector<std::size_t>>>
                tasks;
            for (const auto &p : study.programs()) {
                if (lintFailByName.count(p->name()))
                    continue;
                std::vector<std::size_t> lanes;
                for (std::size_t i : owned)
                    if (cells[i].prepared == p.get() &&
                        !(ckpt && ckpt->find(cellKeyOf(cells[i]))))
                        lanes.push_back(i);
                if (!lanes.empty())
                    tasks.emplace_back(p.get(), std::move(lanes));
            }

            exec::parallelFor(tasks.size(), [&](std::size_t k) {
                const auto &[prog, idxs] = tasks[k];
                std::vector<rt::LPConfig> cfgs;
                cfgs.reserve(idxs.size());
                for (std::size_t i : idxs)
                    cfgs.push_back(cells[i].config->config);
                std::vector<rt::ProgramReport> reps;
                try {
                    // Under --lint the consistency oracle rides along,
                    // captured once per batch.
                    reps = req.lintMode != 0
                               ? prog->runReplayBatchedWithOracle(cfgs)
                               : prog->runReplayBatched(cfgs);
                }
                catch (const Error &e) {
                    // Whatever broke the batch is re-raised lane by
                    // lane on the per-cell path, where the retry and
                    // quarantine policy decide; reports stay
                    // byte-identical.
                    LP_LOG_WARN("fused batch failed for %s (%zu "
                                "lane(s); %s: %s); running those cells "
                                "individually",
                                prog->name().c_str(), idxs.size(),
                                e.codeName(), e.what());
                    if (obs::metricsOn())
                        obs::Registry::instance()
                            .counter("sweep.batch_fallbacks")
                            .add(1);
                    return;
                }
                for (std::size_t l = 0; l < idxs.size(); ++l) {
                    Cell &cell = cells[idxs[l]];
                    rt::ProgramReport &rep = reps[l];
                    rep.seed = cell.seed;
                    {
                        // One record per lane: the profile keeps its
                        // per-cell rows (worker, status, instructions);
                        // the batch's wall time shows up in the
                        // replay_batch epochs rather than under any one
                        // lane.
                        prof::CellScope cellProf(cell.program,
                                                 cell.suite,
                                                 cell.config->label);
                        cellProf.setAttempts(1);
                        cellProf.setInstructions(rep.serialCost);
                        cellProf.setStatus("ok");
                    }
                    cell.json = rep.toJson(/*withObsSnapshot=*/false);
                    if (ckpt)
                        ckpt->record(cellKeyOf(cell), cell.json);
                    done[idxs[l]] = 1;
                }
            });
        }

        // Phase B: everything not completed by a batch.
        std::vector<std::size_t> pending;
        for (std::size_t i : owned)
            if (!done[i])
                pending.push_back(i);
        exec::parallelFor(pending.size(),
                          [&](std::size_t k) { runCell(pending[k]); });
    };

    if (sharded) {
        prof::Collector::instance().beginRegion();
        dispatchCells();
        prof::Collector::instance().endRegion();

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
            << nResumed.load() << " resumed\n"
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

    // The profiled region is the cell dispatch: queue-wait and worker
    // utilization are measured against it.
    prof::Collector::instance().beginRegion();
    dispatchCells();
    prof::Collector::instance().endRegion();

    obs::Json suitesJson = obs::Json::array();
    obs::Json reportsJson = obs::Json::array();
    TextTable t({"configuration", "suite", "geomean speedup",
                 "geomean coverage", "ok", "failed", "skipped"});
    std::vector<const Cell *> unhealthy;
    std::uint64_t oraclePhisChecked = 0, oracleMismatches = 0;
    std::size_t oracleCells = 0;
    std::uint64_t verdictsChecked = 0, verdictContradictions = 0;
    std::size_t verdictCells = 0;

    // Aggregate per (configuration, suite) group.  Everything — status,
    // geomean inputs — is read back from the cell JSON, so fresh,
    // checkpoint-resumed and shard-merged cells flow through the
    // identical computation; that shared path is what makes a merged
    // report byte-identical to an unsharded run's.
    std::size_t at = 0;
    for (const NamedConfig &named : req.configs) {
        for (const std::string &suite : suiteOrder) {
            GeomeanAccum accSpeedup, accCoverage;
            std::size_t ok = 0, failed = 0, skipped = 0;
            for (; at < cells.size() && cells[at].config == &named &&
                   cells[at].suite == suite;
                 ++at) {
                const Cell &cell = cells[at];
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
                    unhealthy.push_back(&cell);
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
                    reportsJson.push(cell.json);
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
        for (const Cell *cell : unhealthy)
            out << "  " << cell->json.at("status").asString()
                << "  " << cell->program << " ["
                << cell->config->label << " " << cell->suite
                << "]  " << cell->json.at("error_code").asString()
                << "\n";
    }

    if (req.wantJson) {
        obs::Json doc = obs::Json::object();
        doc.set("suites", std::move(suitesJson));
        doc.set("reports", std::move(reportsJson));
        // Metrics and phase timings hold wall-clock values, which would
        // break the resume guarantee (a resumed run's report must be
        // byte-identical to an uninterrupted one); they join the sweep
        // document only when metrics are explicitly on.
        if (obs::metricsOn()) {
            doc.set("metrics", obs::Registry::instance().toJson());
            doc.set("phases", obs::PhaseTree::instance().toJson());
        }
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

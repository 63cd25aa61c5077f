/**
 * @file
 * The traced run: per-layer metrics (perfbench/README.md).
 *
 * Each pass drives the workload's cells through every layer's public
 * calls, in runSweep's order, with a span around each call.  Spans are
 * kept in memory and written out when the run ends.  One pass is:
 *
 *   sweep          the traced sweep on one worker, between two untraced
 *                  runSweep calls at 1 job.  Its child spans are the
 *                  serial layers; their sum over the mean untraced wall
 *                  time is attributed_share;
 *   probes         layer calls outside the sweep: decode only, lane
 *                  apply per model and, on the first pass, the layers
 *                  this workload's sweep does not use;
 *   exec.region.*  the record warm-up and the cell tasks driven through
 *                  exec::parallelFor at full width, one span per task.
 */

#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "exec/pool.hpp"
#include "guard/checkpoint.hpp"
#include "lint/engine.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "trace/batch.hpp"

namespace lp::bench {

namespace {

/** One timed call into a layer. */
struct Span
{
    std::string name;
    std::string detail; ///< program or cell
    int parent;         ///< index of the enclosing span, -1 = none
    int pass;
    unsigned lane; ///< obs::threadLane() of the thread that ran it
    std::int64_t startNs;
    std::int64_t endNs;
};

/** In-memory span store; safe for exec workers. */
class SpanLog
{
  public:
    int open(std::string name, std::string detail, int parent)
    {
        const std::int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({std::move(name), std::move(detail), parent, pass_,
                          obs::threadLane(), now, now});
        return static_cast<int>(spans_.size() - 1);
    }

    void close(int id)
    {
        const std::int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].endNs = now;
    }

    /** Quiescent-only: later spans belong to pass @p pass. */
    void setPass(int pass) { pass_ = pass; }

    /** Quiescent-only view. */
    const std::vector<Span> &spans() const { return spans_; }

    double seconds(int id) const
    {
        const Span &s = spans_[static_cast<std::size_t>(id)];
        return static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }

    /**
     * Summed duration of pass @p pass's spans named @p name; nothing
     * when the pass has none.
     */
    std::optional<double> total(int pass, const std::string &name) const
    {
        std::optional<double> sum;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].pass == pass && spans_[i].name == name)
                sum = sum.value_or(0) + seconds(static_cast<int>(i));
        return sum;
    }

    /** Summed duration of the direct children of span @p id. */
    double childTotal(int id) const
    {
        double sum = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent == id)
                sum += seconds(static_cast<int>(i));
        return sum;
    }

    obs::Json toJson() const
    {
        obs::Json out = obs::Json::array();
        for (const Span &s : spans_) {
            obs::Json j = obs::Json::object();
            j.set("name", s.name);
            j.set("detail", s.detail);
            j.set("parent", s.parent);
            j.set("pass", s.pass);
            j.set("lane", s.lane);
            j.set("start_ns", s.startNs);
            j.set("dur_ns", s.endNs - s.startNs);
            out.push(std::move(j));
        }
        return out;
    }

  private:
    std::int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    const Clock::time_point origin_ = Clock::now();
    std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
    int pass_ = 0;
};

/** The span the calling thread has open (-1 = none). */
thread_local int tl_open = -1;

/** RAII span; nests under the calling thread's open span by default. */
class Scoped
{
  public:
    Scoped(SpanLog &log, std::string name, std::string detail = {},
           int parent = kInherit)
        : log_(log), prev_(tl_open)
    {
        id_ = log.open(std::move(name), std::move(detail),
                       parent == kInherit ? tl_open : parent);
        tl_open = id_;
    }
    ~Scoped()
    {
        log_.close(id_);
        tl_open = prev_;
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int id() const { return id_; }

    static constexpr int kInherit = -2;

  private:
    SpanLog &log_;
    int prev_;
    int id_ = -1;
};

/**
 * Decode-only sink: applies nothing.  The walk itself cannot be
 * optimised away — it checks the decoded stream and throws on a
 * mismatch.
 */
struct NoopSink
{
    void onFuncEnter(const ir::Function *) {}
    void onFuncExit(std::uint64_t) {}
    void onBlockEnter(std::uint64_t,
                      const trace::BatchDispatchTable::BlockInfo &,
                      std::uint64_t, std::uint64_t, std::uint64_t)
    {
    }
    void onPhi(const ir::Instruction *, std::uint64_t) {}
    void onLoad(const ir::Instruction *, std::uint64_t, std::uint64_t) {}
    void onStore(const ir::Instruction *, std::uint64_t, std::uint64_t) {}
};

/** One lane batch of runSweep's phase A. */
struct BatchTask
{
    std::size_t program;
    std::vector<std::size_t> cells; ///< lanes, as cell indices
};

/**
 * runSweep's phase-A tasks for @p workers: one task per program over
 * its cells, the heaviest >= 4-lane tasks split in half until every
 * worker has one, then heaviest first.  Weighted like runSweep, by the
 * program's recorded cost times the lane count.
 */
std::vector<BatchTask>
batchTasks(const std::vector<CellRef> &cells,
           const std::vector<char> &runnable,
           const std::vector<std::uint64_t> &cost, unsigned workers)
{
    std::map<std::size_t, std::vector<std::size_t>> byProg;
    for (std::size_t c = 0; c < cells.size(); ++c)
        if (runnable[cells[c].program])
            byProg[cells[c].program].push_back(c);
    std::vector<BatchTask> tasks;
    for (auto &[prog, idxs] : byProg)
        for (std::size_t lo = 0; lo < idxs.size(); lo += 64)
            tasks.push_back(
                {prog,
                 {idxs.begin() + static_cast<std::ptrdiff_t>(lo),
                  idxs.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(lo + 64, idxs.size()))}});
    auto weight = [&](const BatchTask &t) {
        return std::max<std::uint64_t>(cost[t.program], 1) * t.cells.size();
    };
    while (tasks.size() < workers) {
        std::size_t best = tasks.size();
        std::uint64_t bestW = 0;
        for (std::size_t k = 0; k < tasks.size(); ++k)
            if (tasks[k].cells.size() >= 4 && weight(tasks[k]) > bestW) {
                best = k;
                bestW = weight(tasks[k]);
            }
        if (best == tasks.size())
            break;
        BatchTask &t = tasks[best];
        const std::size_t half = t.cells.size() / 2;
        BatchTask tail{t.program,
                       {t.cells.begin() + static_cast<std::ptrdiff_t>(half),
                        t.cells.end()}};
        t.cells.resize(half);
        tasks.push_back(std::move(tail));
    }
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](const BatchTask &a, const BatchTask &b) {
                         return weight(a) > weight(b);
                     });
    return tasks;
}

/** A Study prepared from the workload, indexed like Workload::programs. */
struct Prepared
{
    std::unique_ptr<core::Study> study;
    std::vector<const core::PreparedProgram *> byProgram; ///< null = failed
    std::vector<char> runnable;
    std::vector<std::uint64_t> cost; ///< recorded trace cost (LPT weight)

    void index(const Workload &w)
    {
        std::map<std::string, const core::PreparedProgram *> byName;
        for (const auto &p : study->programs())
            byName[p->name()] = p.get();
        byProgram.assign(w.programs.size(), nullptr);
        for (std::size_t i = 0; i < w.programs.size(); ++i) {
            auto it = byName.find(w.programs[i].name);
            if (it != byName.end())
                byProgram[i] = it->second;
        }
        runnable.assign(w.programs.size(), 0);
        for (std::size_t i = 0; i < w.programs.size(); ++i)
            runnable[i] = byProgram[i] != nullptr;
        cost.assign(w.programs.size(), 0);
    }
};

core::StudyOptions
studyOptions(unsigned jobs)
{
    core::StudyOptions so;
    so.keepGoing = true; // as runSweep prepares
    so.jobs = jobs;
    return so;
}

class LayerRun
{
  public:
    LayerRun(const Workload &w, Checker &check, unsigned width,
             const std::string &workDir)
        : w_(w), cells_(sweepCells(w)), check_(check), width_(width),
          workDir_(workDir), lint_(w.request.lintMode != 0),
          ckptPath_(w.request.checkpointPath)
    {
    }

    obs::Json run(double seconds, const std::string &spansPath);

  private:
    /** Runs the traced sweep; returns its root span. */
    int tracedSweep(int pass);
    void probes(int pass);
    void execRegions(int pass);
    void record(const std::string &metric, double v)
    {
        samples_[metric].push_back(v);
    }

    /** The report JSON of cell @p c, as runSweep finishes a cell. */
    void finishCell(std::size_t c, rt::ProgramReport &rep,
                    guard::Checkpoint *ckpt, bool traced);

    /** Per-cell replay with runSweep's interpret fallback. */
    rt::ProgramReport replayCell(const core::PreparedProgram &p,
                                 const rt::LPConfig &cfg);

    std::vector<std::size_t> costOrder(const Prepared &p) const;

    const Workload &w_;
    const std::vector<CellRef> cells_;
    Checker &check_;
    const unsigned width_;
    const std::string workDir_;
    const bool lint_;
    const std::string ckptPath_; ///< "" = the workload writes none

    SpanLog log_;
    Prepared traced_; ///< the traced sweep's study, kept for the probes
    std::vector<obs::Json> cellJson_;
    std::vector<std::string> cellText_;
    std::mutex cellMu_; ///< guards cellJson_ / cellText_ from workers
    std::atomic<std::uint64_t> traceFallbacks_{0};
    std::atomic<std::uint64_t> batchFallbacks_{0};
    std::map<std::string, std::vector<double>> samples_;
    std::vector<double> untracedWall_; ///< per pass, bracketing mean
    std::vector<double> tracedWall_;
    std::uint64_t traceBytes_ = 0, traceEvents_ = 0, traceCost_ = 0;
};

rt::ProgramReport
LayerRun::replayCell(const core::PreparedProgram &p, const rt::LPConfig &cfg)
{
    try {
        return lint_ ? p.runReplayWithOracle(cfg) : p.runReplay(cfg);
    }
    catch (const IoError &) {
        // runSweep degrades such a cell to interpreting it and bumps
        // sweep.trace_fallbacks; count it the same way.
        ++traceFallbacks_;
        return lint_ ? p.runWithOracle(cfg) : p.run(cfg);
    }
}

void
LayerRun::finishCell(std::size_t c, rt::ProgramReport &rep,
                     guard::Checkpoint *ckpt, bool traced)
{
    rep.seed = w_.programs[cells_[c].program].seed;
    obs::Json json;
    std::string text;
    {
        std::optional<Scoped> s;
        if (traced)
            s.emplace(log_, "rt.report_json");
        json = rep.toJson(/*withObsSnapshot=*/false);
        text = json.dump();
    }
    if (ckpt) {
        std::optional<Scoped> s;
        if (traced)
            s.emplace(log_, "guard.checkpoint_append");
        ckpt->record(cellKey(w_, cells_[c]), json);
    }
    std::lock_guard<std::mutex> lock(cellMu_);
    cellJson_[c] = std::move(json);
    cellText_[c] = std::move(text);
}

std::vector<std::size_t>
LayerRun::costOrder(const Prepared &p) const
{
    std::vector<std::size_t> pending;
    for (std::size_t c = 0; c < cells_.size(); ++c)
        if (p.runnable[cells_[c].program])
            pending.push_back(c);
    std::stable_sort(pending.begin(), pending.end(),
                     [&](std::size_t a, std::size_t b) {
                         return p.cost[cells_[a].program] >
                                p.cost[cells_[b].program];
                     });
    return pending;
}

int
LayerRun::tracedSweep(int pass)
{
    exec::setJobsOverride(1);
    // ir.build spans come from inside Study's preparation: wrap each
    // program's builder.
    std::vector<core::BenchProgram> progs = w_.programs;
    for (core::BenchProgram &p : progs)
        p.build = [build = p.build, name = p.name, this] {
            Scoped s(log_, "ir.build", name);
            return build();
        };
    cellJson_.assign(cells_.size(), obs::Json());
    cellText_.assign(cells_.size(), std::string());
    traced_ = Prepared();

    int rootId = -1;
    {
        Scoped root(log_, "sweep");
        rootId = root.id();
        {
            Scoped s(log_, "core.prepare");
            traced_.study =
                std::make_unique<core::Study>(progs, studyOptions(1));
        }
        traced_.index(w_);
        const auto &prep = traced_.byProgram;

        if (lint_)
            for (std::size_t i = 0; i < prep.size(); ++i) {
                if (!prep[i])
                    continue;
                Scoped s(log_, "lint.module", prep[i]->name());
                if (lint::lintModule(prep[i]->driver().module()).hasErrors())
                    traced_.runnable[i] = 0; // runSweep gates it
            }

        std::unique_ptr<guard::Checkpoint> ckpt;
        if (!ckptPath_.empty())
            ckpt = std::make_unique<guard::Checkpoint>(ckptPath_ + ".traced",
                                                       false);

        // runSweep's record warm-up: errors surface again on the cell.
        for (std::size_t i = 0; i < prep.size(); ++i) {
            if (!traced_.runnable[i])
                continue;
            Scoped s(log_, "interp.record", prep[i]->name());
            try {
                traced_.cost[i] = prep[i]->driver().trace().finalCost;
            }
            catch (const Error &) {
            }
        }

        if (lint_) {
            // Computed lazily by the first oracle cell in runSweep.
            for (std::size_t i = 0; i < prep.size(); ++i) {
                if (!traced_.runnable[i])
                    continue;
                Scoped s(log_, "analysis.verdicts", prep[i]->name());
                prep[i]->driver().staticVerdicts();
            }
            for (std::size_t c : costOrder(traced_)) {
                rt::ProgramReport rep;
                {
                    Scoped s(log_, "rt.replay_cell");
                    rep = replayCell(*prep[cells_[c].program],
                                     cells_[c].config->config);
                }
                finishCell(c, rep, ckpt.get(), true);
            }
        } else {
            for (const BatchTask &t :
                 batchTasks(cells_, traced_.runnable, traced_.cost, 1)) {
                const core::PreparedProgram &p = *prep[t.program];
                std::vector<rt::LPConfig> cfgs;
                for (std::size_t c : t.cells)
                    cfgs.push_back(cells_[c].config->config);
                std::vector<rt::ProgramReport> reps;
                {
                    Scoped s(log_, "rt.batch", p.name());
                    try {
                        reps = p.runReplayBatched(cfgs);
                    }
                    catch (const Error &) {
                        ++batchFallbacks_;
                    }
                }
                for (std::size_t l = 0; l < t.cells.size(); ++l) {
                    rt::ProgramReport rep;
                    if (reps.empty()) {
                        Scoped s(log_, "rt.replay_cell");
                        rep = replayCell(p, cfgs[l]);
                    } else {
                        rep = std::move(reps[l]);
                    }
                    finishCell(t.cells[l], rep, ckpt.get(), true);
                }
            }
        }
    }
    for (std::size_t c = 0; c < cells_.size(); ++c)
        check_.checkCell(c, cellText_[c]);

    const double recordS = log_.total(pass, "interp.record").value_or(0);
    traceBytes_ = traceEvents_ = traceCost_ = 0;
    for (std::size_t i = 0; i < traced_.byProgram.size(); ++i) {
        if (!traced_.runnable[i])
            continue;
        const trace::Trace &t = traced_.byProgram[i]->driver().trace();
        traceBytes_ += t.payload.size();
        traceEvents_ += t.events;
        traceCost_ += t.finalCost;
    }
    if (recordS > 0)
        record("interp.instr_per_s",
               static_cast<double>(traceCost_) / recordS);
    return rootId;
}

void
LayerRun::probes(int pass)
{
    exec::setJobsOverride(1);
    Scoped probe(log_, "probes");
    const auto &prep = traced_.byProgram;

    for (std::size_t i = 0; i < prep.size(); ++i) {
        if (!traced_.runnable[i])
            continue;
        NoopSink sink;
        Scoped s(log_, "trace.decode", prep[i]->name());
        trace::replayDispatch(prep[i]->driver().dispatchTable(),
                              prep[i]->driver().trace(), sink);
    }
    const double decodeS = log_.total(pass, "trace.decode").value_or(0);
    record("trace.decode_s", decodeS);
    if (decodeS > 0)
        record("trace.decode_events_per_s",
               static_cast<double>(traceEvents_) / decodeS);

    // Lane apply per model: one batched pass with only that model's
    // lanes, less the decode it shares with every other pass.
    for (rt::ExecModel model : {rt::ExecModel::DoAll,
                                rt::ExecModel::PartialDoAll,
                                rt::ExecModel::Helix}) {
        std::vector<rt::LPConfig> cfgs;
        for (const core::NamedConfig &nc : core::paperConfigs())
            if (nc.config.model == model)
                cfgs.push_back(nc.config);
        std::string key = rt::execModelName(model); // "PDOALL" -> "pdoall"
        for (char &ch : key)
            ch = static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        const std::string span = "rt.apply_pass." + key;
        for (std::size_t i = 0; i < prep.size(); ++i) {
            if (!traced_.runnable[i] || cfgs.empty())
                continue;
            Scoped s(log_, span, prep[i]->name());
            prep[i]->runReplayBatched(cfgs);
        }
        record("rt.apply_s." + key,
               log_.total(pass, span).value_or(0) - decodeS);
    }

    if (pass != 0)
        return;
    // The layers this workload's sweep does not use, measured once so
    // every workload reports every layer.
    if (lint_) {
        for (const BatchTask &t :
             batchTasks(cells_, traced_.runnable, traced_.cost, 1)) {
            std::vector<rt::LPConfig> cfgs;
            for (std::size_t c : t.cells)
                cfgs.push_back(cells_[c].config->config);
            Scoped s(log_, "rt.batch", prep[t.program]->name());
            prep[t.program]->runReplayBatched(cfgs);
        }
    } else {
        for (std::size_t i = 0; i < prep.size(); ++i) {
            if (!traced_.runnable[i])
                continue;
            {
                Scoped s(log_, "lint.module", prep[i]->name());
                lint::lintModule(prep[i]->driver().module());
            }
            Scoped s(log_, "analysis.verdicts", prep[i]->name());
            prep[i]->driver().staticVerdicts();
        }
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            if (!traced_.runnable[cells_[c].program])
                continue;
            Scoped s(log_, "rt.replay_cell");
            prep[cells_[c].program]->runReplayWithOracle(
                cells_[c].config->config);
        }
    }
    if (ckptPath_.empty()) {
        guard::Checkpoint ckpt(
            workDir_ + "/" + w_.name + ".probe.ckpt.jsonl", false);
        for (std::size_t c = 0; c < cells_.size(); ++c) {
            if (cellJson_[c].isNull())
                continue;
            Scoped s(log_, "guard.checkpoint_append");
            ckpt.record(cellKey(w_, cells_[c]), cellJson_[c]);
        }
    }
}

void
LayerRun::execRegions(int pass)
{
    exec::setJobsOverride(width_);
    Prepared p;
    p.study = std::make_unique<core::Study>(w_.programs,
                                            studyOptions(width_));
    p.index(w_);
    if (lint_)
        for (std::size_t i = 0; i < p.byProgram.size(); ++i)
            if (p.byProgram[i] &&
                lint::lintModule(p.byProgram[i]->driver().module())
                    .hasErrors())
                p.runnable[i] = 0;
    std::unique_ptr<guard::Checkpoint> ckpt;
    if (!ckptPath_.empty())
        ckpt = std::make_unique<guard::Checkpoint>(ckptPath_ + ".exec",
                                                   false);
    cellJson_.assign(cells_.size(), obs::Json());
    cellText_.assign(cells_.size(), std::string());

    std::vector<int> regions;
    {
        std::vector<std::size_t> uniq;
        for (std::size_t i = 0; i < p.byProgram.size(); ++i)
            if (p.runnable[i])
                uniq.push_back(i);
        Scoped region(log_, "exec.region.record");
        regions.push_back(region.id());
        exec::parallelFor(
            uniq.size(),
            [&](std::size_t k) {
                const core::PreparedProgram &prog = *p.byProgram[uniq[k]];
                Scoped s(log_, "exec.task", prog.name(), region.id());
                try {
                    p.cost[uniq[k]] = prog.driver().trace().finalCost;
                }
                catch (const Error &) {
                }
            },
            width_);
    }
    {
        Scoped region(log_, "exec.region.cells");
        regions.push_back(region.id());
        if (lint_) {
            const std::vector<std::size_t> pending = costOrder(p);
            exec::parallelFor(
                pending.size(),
                [&](std::size_t k) {
                    const std::size_t c = pending[k];
                    Scoped s(log_, "exec.task", cellKey(w_, cells_[c]),
                             region.id());
                    rt::ProgramReport rep =
                        replayCell(*p.byProgram[cells_[c].program],
                                   cells_[c].config->config);
                    finishCell(c, rep, ckpt.get(), false);
                },
                width_);
        } else {
            const std::vector<BatchTask> tasks =
                batchTasks(cells_, p.runnable, p.cost, width_);
            exec::parallelFor(
                tasks.size(),
                [&](std::size_t k) {
                    const BatchTask &t = tasks[k];
                    const core::PreparedProgram &prog =
                        *p.byProgram[t.program];
                    Scoped s(log_, "exec.task", prog.name(), region.id());
                    std::vector<rt::LPConfig> cfgs;
                    for (std::size_t c : t.cells)
                        cfgs.push_back(cells_[c].config->config);
                    std::vector<rt::ProgramReport> reps;
                    try {
                        reps = prog.runReplayBatched(cfgs);
                    }
                    catch (const Error &) {
                        ++batchFallbacks_;
                    }
                    for (std::size_t l = 0; l < t.cells.size(); ++l) {
                        rt::ProgramReport rep =
                            reps.empty() ? replayCell(prog, cfgs[l])
                                         : std::move(reps[l]);
                        finishCell(t.cells[l], rep, ckpt.get(), false);
                    }
                },
                width_);
        }
    }
    for (std::size_t c = 0; c < cells_.size(); ++c)
        check_.checkCell(c, cellText_[c]);

    // Utilization: task busy time over width x region wall; tail: region
    // wall less the mean worker's busy time.
    double busy = 0, wall = 0, tail = 0;
    for (int r : regions) {
        double regionBusy = 0;
        for (const Span &s : log_.spans())
            if (s.pass == pass && s.parent == r && s.name == "exec.task")
                regionBusy +=
                    static_cast<double>(s.endNs - s.startNs) * 1e-9;
        busy += regionBusy;
        wall += log_.seconds(r);
        tail += log_.seconds(r) - regionBusy / width_;
    }
    if (wall > 0)
        record("exec.utilization", busy / (width_ * wall));
    record("exec.tail_s", tail);
}

obs::Json
LayerRun::run(double seconds, const std::string &spansPath)
{
    // Warm-up and reference: one untraced sweep at full width, its
    // sampled cells checked against the interpret-every-cell path.
    check_.checkSweep(runSweepAt(w_, width_));
    {
        core::Study study(w_.programs, studyOptions(width_));
        check_.checkSample(study, width_);
    }

    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass == 0 || secondsSince(t0) < seconds; ++pass) {
        log_.setPass(pass);
        // Host speed drifts over seconds: compare the traced sweep with
        // the mean of untraced sweeps right before and after it.
        const SweepRun before = runSweepAt(w_, 1);
        const int root = tracedSweep(pass);
        const SweepRun after = runSweepAt(w_, 1);
        check_.checkSweep(before);
        check_.checkSweep(after);
        const double untraced = (before.wallS + after.wallS) / 2;
        untracedWall_.push_back(untraced);
        tracedWall_.push_back(log_.seconds(root));
        record("attributed_share", log_.childTotal(root) / untraced);
        record("tracing_overhead_s", log_.seconds(root) - untraced);
        probes(pass);
        traced_ = Prepared();
        execRegions(pass);
    }

    // Fallbacks are not hidden: one more sweep with metrics on, then
    // read runSweep's own fallback counters.
    obs::setMetricsEnabled(true);
    obs::Registry::instance().resetAll();
    check_.checkSweep(runSweepAt(w_, width_), /*cellsOnly=*/true);
    traceFallbacks_ +=
        obs::Registry::instance().counter("sweep.trace_fallbacks").value();
    batchFallbacks_ +=
        obs::Registry::instance().counter("sweep.batch_fallbacks").value();
    obs::setMetricsEnabled(false);

    obs::Json layers = obs::Json::object();
    for (const auto &[name, v] : samples_)
        layers.set(name, median(v));
    // Layer time per pass, over the passes that ran the layer: on the
    // sweep's path that is every pass, off it the first.
    for (const char *layer :
         {"core.prepare", "ir.build", "interp.record", "lint.module",
          "analysis.verdicts", "rt.batch", "rt.replay_cell",
          "rt.report_json", "guard.checkpoint_append"}) {
        std::vector<double> v;
        for (std::size_t pass = 0; pass < untracedWall_.size(); ++pass)
            if (auto t = log_.total(static_cast<int>(pass), layer))
                v.push_back(*t);
        layers.set(std::string(layer) + "_s", median(v));
    }
    layers.set("trace.bytes", traceBytes_);
    layers.set("trace.bytes_per_event",
               traceEvents_ ? static_cast<double>(traceBytes_) /
                                  static_cast<double>(traceEvents_)
                            : 0.0);
    layers.set("retry.trace_fallbacks", traceFallbacks_.load());
    layers.set("retry.batch_fallbacks", batchFallbacks_.load());

    obs::Json out = obs::Json::object();
    out.set("layers", std::move(layers));
    out.set("passes", untracedWall_.size());
    out.set("untraced_wall_1j_s", median(untracedWall_));
    out.set("traced_wall_s", median(tracedWall_));
    out.set("spans", log_.spans().size());
    std::ofstream f(spansPath, std::ios::trunc);
    if (!f)
        fatal("cannot write spans to " + spansPath);
    f << log_.toJson().dump() << '\n';
    return out;
}

} // namespace

obs::Json
runLayers(const Workload &w, Checker &check, unsigned width,
          const std::string &workDir, double seconds,
          const std::string &spansPath)
{
    LayerRun run(w, check, width, workDir);
    return run.run(seconds, spansPath);
}

} // namespace lp::bench

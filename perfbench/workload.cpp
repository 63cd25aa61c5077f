#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <streambuf>
#include <thread>
#include <unordered_map>

#include "exec/pool.hpp"
#include "fuzz/generator.hpp"
#include "guard/checkpoint.hpp"
#include "interp/machine.hpp"
#include "suites/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace lp::bench {

namespace {

/// @name gen_sweep's program draw
/// Trip ranges are raised over the generator's defaults (8-55) so each
/// recorded trace is about 10 MB (about one byte per dynamic
/// instruction), and only candidates whose plain run costs between
/// kGenCostLo and kGenCostHi dynamic instructions are kept: the
/// generator's cost spread is wide (coefficient of variation ~0.8), and
/// without the band two seeds would time different amounts of work.
/// @{
constexpr unsigned kGenPrograms = 8;
constexpr unsigned kGenMinTrip = 260;
constexpr unsigned kGenMaxTrip = 780;
constexpr std::uint64_t kGenCostLo = 8'500'000;
constexpr std::uint64_t kGenCostHi = 11'500'000;
constexpr std::uint64_t kGenMaxCandidates = 20'000;
/// @}

fuzz::GenOptions
genOptions()
{
    fuzz::GenOptions g;
    g.minTrip = kGenMinTrip;
    g.maxTrip = kGenMaxTrip;
    return g;
}

/**
 * Draw gen_sweep's program seeds from @p seed: candidates come from one
 * splitmix stream and are accepted in stream order, so the result does
 * not depend on @p jobs (which only evaluates candidates in parallel).
 * @p tried receives the number of candidates up to the last accepted.
 */
std::vector<std::uint64_t>
drawGenSeeds(std::uint64_t seed, unsigned jobs, std::uint64_t &tried)
{
    const fuzz::GenOptions gen = genOptions();
    Rng rng(seed ^ 0x6c6f6f7061706131ULL);
    std::set<std::uint64_t> seen;
    std::vector<std::uint64_t> accepted;
    tried = 0;
    while (accepted.size() < kGenPrograms) {
        std::vector<std::uint64_t> cands;
        while (cands.size() < 4 * std::max(jobs, 1u)) {
            // Nonzero (0 marks a hand-written program) and small enough
            // to read well in program names and checkpoint keys.
            std::uint64_t c = 1 + (rng.next() >> 33);
            if (seen.insert(c).second)
                cands.push_back(c);
        }
        std::vector<std::uint64_t> cost(cands.size());
        exec::parallelFor(
            cands.size(),
            [&](std::size_t k) {
                auto mod = fuzz::generateProgram(cands[k], gen);
                interp::Machine m(*mod);
                guard::RunBudget budget = guard::defaultBudget();
                budget.maxInstructions = kGenCostHi;
                m.setBudget(budget);
                try {
                    m.run();
                    cost[k] = m.cost();
                }
                catch (const Error &) {
                    cost[k] = std::numeric_limits<std::uint64_t>::max();
                }
            },
            jobs);
        for (std::size_t k = 0;
             k < cands.size() && accepted.size() < kGenPrograms; ++k) {
            ++tried;
            if (cost[k] >= kGenCostLo && cost[k] <= kGenCostHi)
                accepted.push_back(cands[k]);
        }
        if (tried > kGenMaxCandidates)
            fatal("gen_sweep: too few generated programs fall in the cost "
                  "band");
    }
    return accepted;
}

/** Swallows everything written to it (runSweep's table). */
class NullBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

} // namespace

double
calibrationSeconds()
{
    const Clock::time_point t0 = Clock::now();
    std::uint64_t state = 0x9e3779b97f4a7c15ULL, acc = 0;
    auto next = [&state] { // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    // Sorting: branchy, cache-resident.
    std::vector<std::uint32_t> v(1 << 16);
    for (std::uint32_t &x : v)
        x = static_cast<std::uint32_t>(next());
    std::sort(v.begin(), v.end());
    acc += v[v.size() / 2];
    // A hash map: allocation and pointer chasing over a few MB.
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t i = 0; i < 100000; ++i)
        map[next() & 0xfffff] += i;
    for (int i = 0; i < 200000; ++i) {
        auto it = map.find(next() & 0xfffff);
        if (it != map.end())
            acc += it->second;
    }
    // A switch-dispatched bytecode loop, as an interpreter runs one.
    std::vector<std::uint8_t> code(4096);
    for (std::uint8_t &c : code)
        c = static_cast<std::uint8_t>(next() % 6);
    std::uint64_t r[4] = {1, 2, 3, 4};
    for (int rep = 0; rep < 300; ++rep)
        for (std::uint8_t c : code) {
            switch (c) {
            case 0:
                r[0] += r[1];
                break;
            case 1:
                r[1] ^= r[2] << 1;
                break;
            case 2:
                r[2] = r[2] * 3 + r[3];
                break;
            case 3:
                r[3] -= r[0] >> 3;
                break;
            case 4:
                r[(r[0] & 1) + 1] += 7;
                break;
            default:
                r[(r[3] >> 5) & 3] += 1;
                break;
            }
        }
    acc += r[0] + r[1] + r[2] + r[3];
    asm volatile("" : : "r"(acc)); // keep the work
    return secondsSince(t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

Workload
makeWorkload(const std::string &name, std::uint64_t genSeed,
             const std::string &workDir, unsigned jobs)
{
    Workload w;
    w.name = name;
    w.request.wantJson = true;
    w.inputs = obs::Json::object();
    if (name == "suite_sweep" || name == "lint_sweep") {
        w.programs = suites::allPrograms();
        w.request.lintMode = name == "lint_sweep" ? 1 : 0;
        w.inputs.set("programs", w.programs.size());
        return w;
    }
    if (name != "gen_sweep")
        fatal("unknown workload '" + name + "'");

    std::uint64_t tried = 0;
    const std::vector<std::uint64_t> seeds =
        drawGenSeeds(genSeed, jobs, tried);
    const fuzz::GenOptions gen = genOptions();
    obs::Json seedsJson = obs::Json::array();
    for (std::uint64_t s : seeds) {
        core::BenchProgram p;
        p.name = fuzz::programName(s);
        p.suite = "gen";
        p.seed = s;
        p.build = [s, gen] { return fuzz::generateProgram(s, gen); };
        w.programs.push_back(std::move(p));
        seedsJson.push(s);
    }
    w.request.checkpointPath = workDir + "/gen_sweep.ckpt.jsonl";
    w.inputs.set("gen_seed", genSeed);
    w.inputs.set("programs", w.programs.size());
    w.inputs.set("min_trip", kGenMinTrip);
    w.inputs.set("max_trip", kGenMaxTrip);
    w.inputs.set("cost_band_instructions", obs::Json::array()
                                               .push(kGenCostLo)
                                               .push(kGenCostHi));
    w.inputs.set("other_generator_options", "defaults");
    w.inputs.set("candidates_tried", tried);
    w.inputs.set("program_seeds", std::move(seedsJson));
    return w;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

unsigned
fullWidth()
{
    const std::size_t nproc = allowedCpus().size();
    const unsigned width = exec::hardwareThreads(); // >= 1
    return nproc == 0 ? width
                      : std::min(width, static_cast<unsigned>(nproc));
}

PinnedThread::PinnedThread(int cpu)
{
    CPU_ZERO(&saved_);
    restore_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
}

PinnedThread::~PinnedThread()
{
    if (restore_)
        sched_setaffinity(0, sizeof(saved_), &saved_);
}

bool
optimisedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

obs::Json
hostRecord(unsigned width)
{
    obs::Json h = obs::Json::object();
    h.set("nproc", allowedCpus().size());
    h.set("hardware_threads_raw", std::thread::hardware_concurrency());
    h.set("hardware_threads_guarded", exec::hardwareThreads());
    h.set("full_width_jobs", width);
    h.set("build_type", LP_BENCH_BUILD_TYPE);
    h.set("optimised", optimisedBuild());
    return h;
}

SweepRun
runSweepAt(const Workload &w, unsigned jobs)
{
    exec::setJobsOverride(jobs);
    NullBuf null;
    std::streambuf *old = std::cout.rdbuf(&null);
    SweepRun run;
    try {
        const Clock::time_point t0 = Clock::now();
        core::SweepResult res = core::runSweep(w.programs, w.request);
        run.wallS = secondsSince(t0);
        run.exitCode = res.exitCode;
        if (res.hasDocument)
            run.document = res.document.dump();
    }
    catch (...) {
        std::cout.rdbuf(old);
        throw;
    }
    std::cout.rdbuf(old);
    return run;
}

std::vector<CellRef>
sweepCells(const Workload &w)
{
    std::vector<std::string> suiteOrder;
    for (const auto &p : w.programs)
        if (std::find(suiteOrder.begin(), suiteOrder.end(), p.suite) ==
            suiteOrder.end())
            suiteOrder.push_back(p.suite);
    std::vector<CellRef> cells;
    for (const core::NamedConfig &named : core::paperConfigs())
        for (const std::string &suite : suiteOrder)
            for (std::size_t i = 0; i < w.programs.size(); ++i)
                if (w.programs[i].suite == suite)
                    cells.push_back({&named, i});
    return cells;
}

std::string
cellKey(const Workload &w, const CellRef &cell)
{
    const core::BenchProgram &p = w.programs[cell.program];
    return guard::Checkpoint::cellKey(cell.config->label, p.suite, p.name,
                                      p.seed);
}

Checker::Checker(const Workload &w, std::uint64_t seed)
    : w_(w), cells_(sweepCells(w))
{
    // A seeded, per-configuration sample: every configuration is checked
    // in every run, and which programs are checked varies with the seed.
    const std::size_t nConfigs = core::paperConfigs().size();
    const std::size_t perConfig = cells_.size() / nConfigs;
    const std::size_t picks = std::min<std::size_t>(
        perConfig, w.name == "gen_sweep" ? 1 : 2);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    for (std::size_t c = 0; c < nConfigs; ++c) {
        std::set<std::size_t> chosen;
        while (chosen.size() < picks)
            chosen.insert(c * perConfig + rng.below(perConfig));
        sample_.insert(sample_.end(), chosen.begin(), chosen.end());
    }
}

void
Checker::fail(std::uint64_t n, const std::string &why)
{
    failed_ += n;
    if (notes_.size() < 8)
        notes_.push_back(why);
}

void
Checker::checkSweep(const SweepRun &run, bool cellsOnly)
{
    attempted_ += cells_.size();
    if (run.exitCode != 0 || run.document.empty()) {
        fail(cells_.size(), "sweep exited with code " +
                                std::to_string(run.exitCode));
        return;
    }
    if (reference_.empty()) {
        obs::Json doc = obs::Json::parse(run.document);
        const obs::Json &reports = doc.at("reports");
        if (reports.size() != cells_.size()) {
            fail(cells_.size(), "report lists " +
                                    std::to_string(reports.size()) +
                                    " cells, want " +
                                    std::to_string(cells_.size()));
            return;
        }
        reference_ = run.document;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            refCells_.push_back(reports.at(i).dump());
            if (reports.at(i).at("status").asString() != "ok")
                ++refNotOk_;
        }
        if (refNotOk_ != 0)
            fail(refNotOk_, std::to_string(refNotOk_) +
                                " cell(s) not ok in the first sweep");
        return;
    }
    if (run.document == reference_) {
        if (refNotOk_ != 0)
            fail(refNotOk_, "cells not ok");
        return;
    }
    obs::Json doc = obs::Json::parse(run.document);
    const obs::Json &reports = doc.at("reports");
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i)
        if (i >= reports.size() || reports.at(i).dump() != refCells_[i] ||
            reports.at(i).at("status").asString() != "ok")
            ++bad;
    if (bad != 0)
        fail(bad, std::to_string(bad) +
                      " cell(s) differ from the reference document");
    else if (!cellsOnly)
        fail(1, "aggregate rows differ from the reference document");
}

void
Checker::checkCell(std::size_t index, const std::string &cellJson)
{
    ++attempted_;
    if (index >= refCells_.size() || cellJson != refCells_[index])
        fail(1, "traced cell " + std::to_string(index) +
                    " differs from the reference document");
}

void
Checker::count(std::uint64_t attempted, std::uint64_t failed,
               const std::string &why)
{
    attempted_ += attempted;
    if (failed != 0)
        fail(failed, why);
}

void
Checker::checkSample(const core::Study &study, unsigned jobs)
{
    std::map<std::string, const core::PreparedProgram *> byName;
    for (const auto &p : study.programs())
        byName[p->name()] = p.get();
    std::vector<std::string> got(sample_.size());
    exec::parallelFor(
        sample_.size(),
        [&](std::size_t k) {
            const CellRef &cell = cells_[sample_[k]];
            const core::BenchProgram &prog = w_.programs[cell.program];
            auto it = byName.find(prog.name);
            if (it == byName.end()) {
                got[k] = "(not prepared)";
                return;
            }
            // The interpret-every-cell path of runSweep
            // (SweepRequest::traceReplay = false).
            const rt::LPConfig &cfg = cell.config->config;
            try {
                rt::ProgramReport rep = w_.request.lintMode != 0
                                            ? it->second->runWithOracle(cfg)
                                            : it->second->run(cfg);
                rep.seed = prog.seed;
                got[k] = rep.toJson(/*withObsSnapshot=*/false).dump();
            }
            catch (const Error &e) {
                got[k] = std::string("(error) ") + e.what();
            }
        },
        jobs);
    for (std::size_t k = 0; k < sample_.size(); ++k) {
        ++attempted_;
        if (refCells_.empty() || got[k] != refCells_[sample_[k]])
            fail(1, "cell " + std::to_string(sample_[k]) + " (" +
                        cellKey(w_, cells_[sample_[k]]) +
                        ") differs from the interpret-every-cell path");
    }
}

std::string
Checker::digest() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : reference_) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace lp::bench

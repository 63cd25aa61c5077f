#include "fuzz/differential.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "fuzz/spec.hpp"
#include "guard/fault.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::fuzz {

namespace fs = std::filesystem;

namespace {

std::vector<core::BenchProgram>
makePrograms(std::uint64_t seed, const GenOptions &gen)
{
    core::BenchProgram p;
    p.name = programName(seed);
    p.suite = "fuzz";
    p.seed = seed;
    p.build = [seed, gen] { return generateProgram(seed, gen); };
    return {p};
}

/**
 * One sweep run collapsed to a comparable string: exit code plus the
 * JSON document, or the categorized error.  Every oracle compares two
 * of these, so a crash on either side shows up as a divergence (or,
 * if both sides crash identically, as the deterministic same outcome
 * — which is the correct verdict for e.g. an armed non-transient
 * fault).
 */
std::string
sweepOutcome(const std::vector<core::BenchProgram> &progs,
             const core::SweepRequest &req, const std::string &faultSite,
             std::uint64_t faultNth)
{
    if (!faultSite.empty())
        guard::setFault(faultSite, faultNth); // re-arm: resets counters
    try {
        // The harness runs hundreds of sweeps: discard their tables.
        std::ostream discard(nullptr);
        core::SweepResult res = core::runSweep(progs, req, discard);
        std::string out = "exit:" + std::to_string(res.exitCode) + "\n";
        if (res.hasDocument)
            out += res.document.dump();
        return out;
    }
    catch (const Error &e) {
        return std::string("error:") + e.codeName() + ":" + e.what();
    }
    catch (const std::exception &e) {
        return std::string("exception:") + e.what();
    }
}

/** "byte 123: ...lhs window... != ...rhs window..." */
std::string
firstDivergence(const std::string &a, const std::string &b)
{
    std::size_t n = std::min(a.size(), b.size());
    std::size_t i = 0;
    while (i < n && a[i] == b[i])
        ++i;
    if (i == n && a.size() == b.size())
        return "identical"; // not a divergence after all
    auto window = [&](const std::string &s) {
        std::size_t lo = i > 40 ? i - 40 : 0;
        return s.substr(lo, std::min<std::size_t>(80, s.size() - lo));
    };
    return "byte " + std::to_string(i) + ": \"" + window(a) +
           "\" != \"" + window(b) + "\"";
}

struct PairContext
{
    std::uint64_t seed;
    std::string faultSite;
    std::uint64_t faultNth;
    std::vector<DiffFailure> *failures;
};

void
comparePair(const PairContext &ctx, const std::string &oracle,
            const std::string &lhs, const std::string &rhs)
{
    if (lhs == rhs)
        return;
    ctx.failures->push_back({ctx.seed, oracle, firstDivergence(lhs, rhs),
                             reproLineFor(ctx.seed)});
}

/**
 * The spec evaluator's verdict on every cell of one sweep outcome
 * (spec-vs-engine): an ok cell must match the evaluator's report for
 * its configuration field by field, a failed cell must fail as the
 * evaluator's run of the program did.  A skipped cell never ran.  One
 * failure per document names its first differing cell.  @p spec is
 * null when the evaluator's run threw @p specError.
 */
void
checkAgainstSpec(const PairContext &ctx, const std::string &outcome,
                 const SpecEvaluator *spec, const std::string &specError,
                 bool withOracle)
{
    auto fail = [&](const std::string &detail) {
        ctx.failures->push_back(
            {ctx.seed, "spec-vs-engine", detail, reproLineFor(ctx.seed)});
    };
    const std::size_t nl = outcome.find('\n');
    const obs::Json doc = nl == std::string::npos
                              ? obs::Json()
                              : obs::Json::parse(outcome.substr(nl + 1));
    if (!doc.isObject()) {
        fail("the sweep produced no document: " + outcome.substr(0, nl));
        return;
    }
    std::string first;
    std::size_t bad = 0;
    const obs::Json &reports = doc.at("reports");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const obs::Json &cell = reports.at(i);
        const std::string &status = cell.at("status").asString();
        std::string diff;
        if (status == "skipped") {
            continue;
        } else if (status == "failed" || !spec) {
            const std::string &code = cell.at("error_code").asString();
            if (spec || code != specError)
                diff = "engine " + status + " " + code + ", spec " +
                       (spec ? "ok" : specError);
        } else {
            rt::ProgramReport rep = spec->evaluate(
                configFromJson(cell.at("config")),
                cell.at("program").asString(), withOracle);
            rep.seed = ctx.seed;
            std::vector<std::string> diffs =
                specDifferences(cell, rep.toJson());
            if (!diffs.empty())
                diff = diffs.front() + " (" + std::to_string(diffs.size()) +
                       " field(s))";
        }
        if (diff.empty())
            continue;
        if (bad++ == 0)
            first = "[" + cell.at("config").at("label").asString() +
                    (withOracle ? ", --lint" : "") + "] " + diff;
    }
    if (bad != 0)
        fail(first + "; " + std::to_string(bad) + " cell(s) differ");
}

void
removeSweepFiles(const std::string &ckPath, unsigned shards)
{
    std::error_code ec;
    fs::remove(ckPath, ec);
    fs::remove(ckPath + ".merge", ec);
    for (unsigned i = 1; i <= shards; ++i)
        fs::remove(core::shardCheckpointPath(ckPath, i, shards), ec);
}

} // namespace

const std::vector<core::NamedConfig> &
fullGrid()
{
    static const std::vector<core::NamedConfig> grid = [] {
        using rt::ExecModel;
        using rt::LPConfig;
        std::vector<core::NamedConfig> g = core::paperConfigs();
        for (const char *flags : {"reduc0-dep1-fn2", "reduc1-dep1-fn2"}) {
            LPConfig ss = LPConfig::parse(flags, ExecModel::Helix);
            ss.singleSyncDoacross = true;
            g.push_back({ss.str() + " single-sync", ss});
        }
        for (const LPConfig &cfg :
             {LPConfig::parse("reduc0-dep2-fn2", ExecModel::Helix),
              LPConfig::parse("reduc1-dep3-fn3", ExecModel::PartialDoAll)})
            g.push_back({cfg.str(), cfg});
        for (double threshold : {0.05, 1.0}) {
            LPConfig th = core::bestPdoall();
            th.pdoallSerialThreshold = threshold;
            g.push_back({th.str() + strf(" threshold %g", threshold), th});
        }
        return g;
    }();
    return grid;
}

std::string
reproLineFor(std::uint64_t seed)
{
    return "lp_fuzz --seed=" + std::to_string(seed) + " --minimize";
}

std::vector<DiffFailure>
runDifferential(std::uint64_t seed, const DiffOptions &opts)
{
    std::vector<DiffFailure> failures;
    PairContext ctx{seed, opts.faultSite, opts.faultNth, &failures};

    std::vector<core::BenchProgram> progs;
    try {
        // Generate once up front so a generator/builder crash is
        // attributed to the right place, then hand runSweep a builder
        // that regenerates (each sweep prepares its own copy).
        generateProgram(seed, opts.gen);
        progs = makePrograms(seed, opts.gen);
    }
    catch (const std::exception &e) {
        failures.push_back({seed, "generate",
                            std::string("generator threw: ") + e.what(),
                            reproLineFor(seed)});
        return failures;
    }

    core::SweepRequest base;
    base.configs = fullGrid();
    base.suite = "fuzz";
    base.keepGoing = true;
    base.wantJson = true;

    const bool faulted = !opts.faultSite.empty();
    const bool transientFault =
        opts.faultSite == "io" || opts.faultSite == "replay";
    if (faulted && !transientFault) {
        // Non-transient faults kill cells at a process-wide nth hit
        // whose placement is only deterministic serially: run the
        // reduced repeat-determinism oracle instead of the cross-path
        // pairs (see header).
        exec::setJobsOverride(1);
        std::string a =
            sweepOutcome(progs, base, opts.faultSite, opts.faultNth);
        std::string b =
            sweepOutcome(progs, base, opts.faultSite, opts.faultNth);
        exec::setJobsOverride(0);
        guard::setFault("", 0);
        comparePair(ctx, "fault-repeat-determinism", a, b);
        return failures;
    }

    exec::setJobsOverride(1);

    // The reference sweep, on one worker.  Pair 1 (spec-vs-engine)
    // checks its cells, and the --lint sweep's below, against the spec
    // evaluator's run of the same program.
    std::string sweepOut =
        sweepOutcome(progs, base, opts.faultSite, opts.faultNth);
    std::unique_ptr<SpecEvaluator> spec;
    std::unique_ptr<ir::Module> specMod;
    std::unique_ptr<core::Loopapalooza> specLp;
    std::string specError;
    try {
        specMod = generateProgram(seed, opts.gen);
        specLp = std::make_unique<core::Loopapalooza>(*specMod);
        spec = std::make_unique<SpecEvaluator>(specLp->plan());
    }
    catch (const Error &e) {
        specError = e.codeName();
    }
    catch (const std::exception &e) {
        failures.push_back({seed, "spec-vs-engine",
                            std::string("the spec evaluator crashed: ") +
                                e.what(),
                            reproLineFor(seed)});
    }
    // A RAW on an access the static filter leaves unwatched is named on
    // its own, ahead of the report fields it moves.
    if (spec)
        for (const std::string &f : spec->filterFindings())
            failures.push_back({seed, "spec-vs-engine", f,
                                reproLineFor(seed)});
    checkAgainstSpec(ctx, sweepOut, spec.get(), specError,
                     /*withOracle=*/false);

    // Pair 2: one worker vs many.
    exec::setJobsOverride(opts.jobsN);
    std::string jobsNOut =
        sweepOutcome(progs, base, opts.faultSite, opts.faultNth);
    exec::setJobsOverride(1);
    comparePair(ctx, "jobs1-vs-jobsN", sweepOut, jobsNOut);

    // Scratch for the checkpoint-backed pairs.
    fs::path scratch = opts.scratchDir.empty()
                           ? fs::temp_directory_path() / "lp_fuzz_scratch"
                           : fs::path(opts.scratchDir);
    std::error_code ec;
    fs::create_directories(scratch, ec);
    std::string seedTag = std::to_string(seed);

    // Pair 3: sharded-and-merged vs unsharded.
    {
        std::string ck =
            (scratch / ("shard_" + seedTag + ".jsonl")).string();
        removeSweepFiles(ck, opts.shards);
        for (unsigned i = 1; i <= opts.shards; ++i) {
            core::SweepRequest shard = base;
            shard.wantJson = false;
            shard.checkpointPath = ck;
            shard.shardIndex = i;
            shard.shardCount = opts.shards;
            sweepOutcome(progs, shard, opts.faultSite, opts.faultNth);
        }
        core::SweepRequest merge = base;
        merge.checkpointPath = ck;
        merge.shardCount = opts.shards;
        merge.merge = true;
        std::string mergedOut =
            sweepOutcome(progs, merge, opts.faultSite, opts.faultNth);
        comparePair(ctx, "sharded-vs-unsharded", sweepOut, mergedOut);
        removeSweepFiles(ck, opts.shards);
    }

    // Pair 4: kill-and-resume vs straight-through.  A full
    // checkpointed run stands in for the killed one: tearing off the
    // checkpoint's tail is exactly what a mid-write kill leaves behind
    // (lost cells plus a torn final line), and the resumed run must
    // reproduce the straight-through report byte for byte.
    {
        std::string ck =
            (scratch / ("resume_" + seedTag + ".jsonl")).string();
        removeSweepFiles(ck, 0);
        core::SweepRequest ckpt = base;
        ckpt.checkpointPath = ck;
        sweepOutcome(progs, ckpt, opts.faultSite, opts.faultNth);
        std::error_code tec;
        auto sz = fs::file_size(ck, tec);
        if (!tec && sz > 1)
            fs::resize_file(ck, sz - sz / 3, tec);
        core::SweepRequest resume = ckpt;
        resume.resume = true;
        std::string resumedOut =
            sweepOutcome(progs, resume, opts.faultSite, opts.faultNth);
        comparePair(ctx, "resume-vs-straight", sweepOut, resumedOut);
        removeSweepFiles(ck, 0);
    }

    // Pair 5: lint's static classification vs the dynamic oracle.  The
    // consistency oracle rides on every cell and any error-level
    // mismatch makes runSweep exit nonzero, so the check is the
    // outcome's exit code (compared against the expected-clean form).
    // Pair 1 checks the same --lint document's cells, oracle and
    // static-verdict sections included, against the spec evaluator.
    if (opts.lintOracle) {
        core::SweepRequest lint = base;
        lint.lintMode = 1;
        std::string lintOut =
            sweepOutcome(progs, lint, opts.faultSite, opts.faultNth);
        if (lintOut.rfind("exit:0\n", 0) != 0)
            failures.push_back(
                {seed, "lint-static-vs-dynamic",
                 lintOut.substr(0, lintOut.find('\n')) +
                     " (static classification disagrees with the "
                     "dynamic oracle, or the lint sweep crashed)",
                 reproLineFor(seed)});
        checkAgainstSpec(ctx, lintOut, spec.get(), specError,
                         /*withOracle=*/true);
    }

    // Pair 6: the PDG's whole-loop verdict vs the dynamic tracker.  A
    // static-doall loop that conflicts frequently at run time is an
    // error-level contradiction — the PDG's memory edges missed a real
    // dependence — and must never happen on any generated program,
    // including ones drawing the may-alias array-pair op class.
    if (opts.lintOracle) {
        try {
            auto mod = generateProgram(seed, opts.gen);
            core::Loopapalooza lp(*mod);
            for (const char *flags : {"reduc1-dep2-fn0", "reduc0-dep0-fn0"}) {
                rt::ProgramReport rep = lp.runWithOracle(rt::LPConfig::parse(
                    flags, rt::ExecModel::PartialDoAll));
                if (rep.verdictContradictions == 0)
                    continue;
                std::string detail = "[" + std::string(flags) + "] ";
                for (const rt::OracleFinding &f : rep.verdictFindings)
                    if (f.severity == "error")
                        detail += f.message + "; ";
                failures.push_back({seed, "static-verdict-vs-tracker",
                                    detail, reproLineFor(seed)});
                break;
            }
        }
        catch (const Error &e) {
            // Guarded-run failures (fuel, deadline) are not verdicts:
            // the other pairs already decide how failures must behave.
            (void)e;
        }
        catch (const std::exception &e) {
            failures.push_back({seed, "static-verdict-vs-tracker",
                                std::string("crashed: ") + e.what(),
                                reproLineFor(seed)});
        }
    }

    exec::setJobsOverride(0);
    if (faulted)
        guard::setFault("", 0);
    return failures;
}

} // namespace lp::fuzz

#include "fuzz/differential.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "guard/fault.hpp"
#include "support/error.hpp"

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
        core::SweepRequest req = base;
        req.traceReplay = true;
        exec::setJobsOverride(1);
        std::string a =
            sweepOutcome(progs, req, opts.faultSite, opts.faultNth);
        std::string b =
            sweepOutcome(progs, req, opts.faultSite, opts.faultNth);
        exec::setJobsOverride(0);
        guard::setFault("", 0);
        comparePair(ctx, "fault-repeat-determinism", a, b);
        return failures;
    }

    exec::setJobsOverride(1);

    // Pair 1: interpret every cell vs fused batches.
    core::SweepRequest interp = base;
    interp.traceReplay = false;
    core::SweepRequest replay = base;
    replay.traceReplay = true;
    std::string interpOut =
        sweepOutcome(progs, interp, opts.faultSite, opts.faultNth);
    std::string replayOut =
        sweepOutcome(progs, replay, opts.faultSite, opts.faultNth);
    comparePair(ctx, "interp-vs-replay", interpOut, replayOut);

    // Pair 2: one worker vs many.  The jobs-1 side is the replay run
    // above; rerun with the override raised.
    exec::setJobsOverride(opts.jobsN);
    std::string jobsNOut =
        sweepOutcome(progs, replay, opts.faultSite, opts.faultNth);
    exec::setJobsOverride(1);
    comparePair(ctx, "jobs1-vs-jobsN", replayOut, jobsNOut);

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
            shard.traceReplay = true;
            shard.wantJson = false;
            shard.checkpointPath = ck;
            shard.shardIndex = i;
            shard.shardCount = opts.shards;
            sweepOutcome(progs, shard, opts.faultSite, opts.faultNth);
        }
        core::SweepRequest merge = base;
        merge.traceReplay = true;
        merge.checkpointPath = ck;
        merge.shardCount = opts.shards;
        merge.merge = true;
        std::string mergedOut =
            sweepOutcome(progs, merge, opts.faultSite, opts.faultNth);
        comparePair(ctx, "sharded-vs-unsharded", replayOut, mergedOut);
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
        ckpt.traceReplay = true;
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
        comparePair(ctx, "resume-vs-straight", replayOut, resumedOut);
        removeSweepFiles(ck, 0);
    }

    // Pair 5: lint's static classification vs the dynamic oracle.  The
    // consistency oracle rides on every cell and any error-level
    // mismatch makes runSweep exit nonzero, so the check is the
    // outcome's exit code (compared against the expected-clean form).
    core::SweepRequest lint = base;
    lint.traceReplay = true;
    lint.lintMode = 1;
    std::string lintOut;
    if (opts.lintOracle) {
        lintOut = sweepOutcome(progs, lint, opts.faultSite, opts.faultNth);
        if (lintOut.rfind("exit:0\n", 0) != 0)
            failures.push_back(
                {seed, "lint-static-vs-dynamic",
                 lintOut.substr(0, lintOut.find('\n')) +
                     " (static classification disagrees with the "
                     "dynamic oracle, or the lint sweep crashed)",
                 reproLineFor(seed)});
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

    // Pair 7: the --lint sweep replayed vs interpreted.  Pair 5's
    // replay side batches every cell and fills one consistency-oracle
    // capture per batch from the shared replay state; the interpret
    // side attaches a capture to each cell's live run.  The documents,
    // oracle and static-verdict sections included, must match byte for
    // byte (pair 1 is the same oracle without lint).
    if (opts.lintOracle) {
        core::SweepRequest lintInterp = lint;
        lintInterp.traceReplay = false;
        std::string lintInterpOut = sweepOutcome(
            progs, lintInterp, opts.faultSite, opts.faultNth);
        comparePair(ctx, "lint-replay-vs-interpret", lintOut,
                    lintInterpOut);
    }

    exec::setJobsOverride(0);
    if (faulted)
        guard::setFault("", 0);
    return failures;
}

} // namespace lp::fuzz

/**
 * @file
 * The lp::fuzz torture harness, tested on itself:
 *
 *  - generator: determinism, delegate compatibility, the dependence-
 *    class mix knob, option validation;
 *  - differential: the seven oracle pairs are clean on sample seeds,
 *    failures carry the one-command repro line;
 *  - minimizer: shrinks to the predicate's minimal option set and
 *    respects its evaluation budget;
 *  - corpus: entries re-parse, sidecars carry the repro line, and
 *    every checked-in tests/fuzz_corpus entry re-runs clean
 *    (the regression tier of the corpus workflow);
 *  - runSweep batch fallback: an injected replay fault fails a fused
 *    batch, its cells re-run one by one, and the document stays
 *    byte-identical.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/minimize.hpp"
#include "generator.hpp"
#include "guard/budget.hpp"
#include "guard/checkpoint.hpp"
#include "guard/fault.hpp"
#include "interp/stdlib.hpp"
#include "ir/parser.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

namespace fs = std::filesystem;

std::string
printed(const ir::Module &m)
{
    std::ostringstream os;
    m.print(os);
    return os.str();
}

class FuzzTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        guard::clearBudgetOverride();
        guard::setFault("", 0);
    }
    void TearDown() override
    {
        guard::clearBudgetOverride();
        guard::setFault("", 0);
        obs::setMetricsEnabled(false);
    }
};

// ---------------------------------------------------------------- generator

TEST_F(FuzzTest, GeneratorIsDeterministic)
{
    for (std::uint64_t seed : {0ULL, 7ULL, 123ULL}) {
        auto a = fuzz::generateProgram(seed);
        auto b = fuzz::generateProgram(seed);
        EXPECT_EQ(printed(*a), printed(*b)) << "seed " << seed;
    }
    EXPECT_NE(printed(*fuzz::generateProgram(1)),
              printed(*fuzz::generateProgram(2)));
}

TEST_F(FuzzTest, TestDelegateMatchesFuzzGenerator)
{
    // tests/generator.hpp is now a delegate; the property suite's
    // programs must be the library's, draw for draw.
    for (std::uint64_t seed = 0; seed < 8; ++seed)
        EXPECT_EQ(printed(*test::generateRandomProgram(seed)),
                  printed(*fuzz::generateProgram(seed)));
}

TEST_F(FuzzTest, MixKnobControlsDependenceClasses)
{
    // Zero every store-producing class: the printed program's main()
    // has no stores (the helper has none either).
    fuzz::GenOptions loadsOnly;
    loadsOnly.opWeights = {1, 1, 0, 0, 1, 0};
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        std::string text = printed(*fuzz::generateProgram(seed, loadsOnly));
        EXPECT_EQ(text.find("store"), std::string::npos) << "seed " << seed;
    }

    // Stores only: every generated body stores somewhere.
    fuzz::GenOptions storesOnly;
    storesOnly.opWeights = {0, 0, 1, 1, 0, 0};
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        std::string text =
            printed(*fuzz::generateProgram(seed, storesOnly));
        EXPECT_NE(text.find("store"), std::string::npos) << "seed " << seed;
    }

    // May-alias pairs only: every body stores through a loaded index,
    // so main() has both loads and stores and lints with the may-LCD
    // store note (the class exists to exercise exactly that PDG path).
    fuzz::GenOptions mayAliasOnly;
    mayAliasOnly.opWeights = {0, 0, 0, 0, 0, 0, 1};
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        std::string text =
            printed(*fuzz::generateProgram(seed, mayAliasOnly));
        EXPECT_NE(text.find("store"), std::string::npos) << "seed " << seed;
        EXPECT_NE(text.find("load"), std::string::npos) << "seed " << seed;
    }

    // No carried recurrences when only kind 0 ("none") has weight.
    fuzz::GenOptions noCarried;
    noCarried.carriedWeights = {1, 0, 0, 0};
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        std::string text = printed(*fuzz::generateProgram(seed, noCarried));
        EXPECT_EQ(text.find("c.next"), std::string::npos)
            << "seed " << seed;
    }
}

TEST_F(FuzzTest, InvalidOptionsThrowInternal)
{
    fuzz::GenOptions allZero;
    allZero.opWeights = {0, 0, 0, 0, 0, 0};
    EXPECT_THROW(fuzz::generateProgram(1, allZero), InternalError);

    fuzz::GenOptions emptyRange;
    emptyRange.minOps = 5;
    emptyRange.maxOps = 4;
    EXPECT_THROW(fuzz::generateProgram(1, emptyRange), InternalError);
}

// ------------------------------------------------------------- differential

TEST_F(FuzzTest, DifferentialPairsCleanOnSampleSeeds)
{
    fuzz::DiffOptions opts;
    opts.jobsN = 3;
    opts.shards = 2;
    opts.scratchDir = ::testing::TempDir() + "lp_fuzz_test_scratch";
    for (std::uint64_t seed : {1ULL, 4ULL}) {
        std::vector<fuzz::DiffFailure> fails =
            fuzz::runDifferential(seed, opts);
        for (const fuzz::DiffFailure &f : fails)
            ADD_FAILURE() << "seed " << seed << " " << f.oracle << ": "
                          << f.detail;
    }
}

TEST_F(FuzzTest, DifferentialSurvivesTransientReplayFaultSchedule)
{
    // A fault schedule on a transient site must not break byte-
    // identity: the replay fallback / retry heals every armed run.
    fuzz::DiffOptions opts;
    opts.jobsN = 2;
    opts.shards = 2;
    opts.scratchDir = ::testing::TempDir() + "lp_fuzz_test_scratch";
    opts.faultSite = "replay";
    opts.faultNth = 2;
    std::vector<fuzz::DiffFailure> fails =
        fuzz::runDifferential(2, opts);
    for (const fuzz::DiffFailure &f : fails)
        ADD_FAILURE() << f.oracle << ": " << f.detail;
}

TEST_F(FuzzTest, FailureReportsCarryReproLine)
{
    EXPECT_EQ(fuzz::reproLineFor(42), "lp_fuzz --seed=42 --minimize");
    // An impossible generator range makes runDifferential fail at the
    // generate step; the failure must carry the repro line.
    fuzz::DiffOptions opts;
    opts.gen.minOps = 9;
    opts.gen.maxOps = 3;
    std::vector<fuzz::DiffFailure> fails =
        fuzz::runDifferential(13, opts);
    ASSERT_FALSE(fails.empty());
    EXPECT_EQ(fails[0].oracle, "generate");
    EXPECT_EQ(fails[0].reproLine, "lp_fuzz --seed=13 --minimize");
}

// ---------------------------------------------------------------- minimizer

TEST_F(FuzzTest, MinimizerShrinksToPredicateMinimum)
{
    // Synthetic failure: present iff the RMW class is in the mix and
    // trips can reach 10.  The minimizer must strip everything else.
    auto stillFails = [](const fuzz::GenOptions &g) {
        return g.opWeights[5] != 0 && g.maxTrip >= 10;
    };
    fuzz::MinimizeResult m =
        fuzz::minimizeOptions(fuzz::GenOptions{}, stillFails, 200);
    EXPECT_NE(m.options.opWeights[5], 0u);
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(m.options.opWeights[i], 0u) << "class " << i;
    EXPECT_EQ(m.options.maxPhases, 1u);
    EXPECT_EQ(m.options.maxOps, 1u);
    EXPECT_EQ(m.options.maxDepth, 1u);
    EXPECT_EQ(m.options.nestProb, 0.0);
    // Trip range cannot shrink below the failure threshold.
    EXPECT_GE(m.options.maxTrip, 10u);
    unsigned carried = 0;
    for (unsigned w : m.options.carriedWeights)
        carried += w != 0;
    EXPECT_EQ(carried, 1u);
}

TEST_F(FuzzTest, MinimizerRespectsEvalBudget)
{
    unsigned calls = 0;
    auto stillFails = [&](const fuzz::GenOptions &) {
        ++calls;
        return true;
    };
    fuzz::MinimizeResult m =
        fuzz::minimizeOptions(fuzz::GenOptions{}, stillFails, 7);
    EXPECT_LE(m.evals, 7u);
    EXPECT_EQ(calls, m.evals);
}

// ------------------------------------------------------------------- corpus

TEST_F(FuzzTest, CorpusEntryRoundTrips)
{
    std::string dir = ::testing::TempDir() + "lp_fuzz_test_corpus";
    fs::remove_all(dir);
    fuzz::GenOptions small;
    small.maxPhases = small.minPhases = 1;
    std::string lir = fuzz::writeCorpusEntry(
        dir, "sample", 3, small, "interp-vs-replay", "synthetic entry");
    ASSERT_TRUE(fs::exists(lir));

    // The .lir re-parses to the byte-identical module.
    std::ifstream in(lir);
    std::stringstream text;
    text << in.rdbuf();
    auto reparsed = ir::parseModule(text.str(), interp::stdlibImplFor);
    EXPECT_EQ(printed(*reparsed),
              printed(*fuzz::generateProgram(3, small)));

    // The sidecar names the seed and the one-command repro.
    std::ifstream repro(fs::path(dir) / "sample.repro");
    std::stringstream rtext;
    rtext << repro.rdbuf();
    EXPECT_NE(rtext.str().find("seed=3"), std::string::npos);
    EXPECT_NE(rtext.str().find("repro=lp_fuzz --seed=3 --minimize"),
              std::string::npos);
    fs::remove_all(dir);
}

TEST_F(FuzzTest, CheckedInCorpusRegressionsStayClean)
{
    // The regression tier of the corpus workflow: every .repro landed
    // under tests/fuzz_corpus re-runs its seed through the differential
    // pairs, and must stay clean.
    fs::path corpus = fs::path(LP_SOURCE_DIR) / "tests" / "fuzz_corpus";
    ASSERT_TRUE(fs::exists(corpus));
    unsigned entries = 0;
    for (const auto &e : fs::directory_iterator(corpus)) {
        if (e.path().extension() != ".repro")
            continue;
        ++entries;
        fuzz::DiffOptions opts;
        opts.jobsN = 2;
        opts.shards = 2;
        opts.scratchDir = ::testing::TempDir() + "lp_fuzz_test_scratch";
        std::ifstream in(e.path());
        std::string line;
        std::uint64_t seed = 0;
        bool haveSeed = false;
        while (std::getline(in, line)) {
            if (line.rfind("seed=", 0) == 0) {
                seed = std::stoull(line.substr(5));
                haveSeed = true;
            }
            // Replay the entry under its pinned op mix ("name:w" list,
            // index-aligned with GenOptions::opWeights) so entries
            // exercising an off-by-default class — e.g. may_alias_pair
            // — regenerate the same program shape they pinned.
            if (line.rfind("opWeights=[", 0) == 0) {
                std::string list = line.substr(
                    sizeof("opWeights=[") - 1,
                    line.size() - sizeof("opWeights=["));
                std::size_t idx = 0, pos = 0;
                while (pos < list.size() &&
                       idx < opts.gen.opWeights.size()) {
                    std::size_t colon = list.find(':', pos);
                    std::size_t comma = list.find(',', pos);
                    if (colon == std::string::npos)
                        break;
                    opts.gen.opWeights[idx++] = static_cast<unsigned>(
                        std::stoul(list.substr(colon + 1)));
                    if (comma == std::string::npos)
                        break;
                    pos = comma + 1;
                }
                // Older sidecars list fewer classes: the rest stay at
                // the (compatible) defaults of 0-weight extensions.
                while (idx < opts.gen.opWeights.size())
                    opts.gen.opWeights[idx++] = 0;
            }
        }
        ASSERT_TRUE(haveSeed) << e.path();
        for (const fuzz::DiffFailure &f :
             fuzz::runDifferential(seed, opts))
            ADD_FAILURE() << e.path().filename() << ": " << f.oracle
                          << ": " << f.detail;
        // And the checked-in .lir still parses.
        fs::path lir = e.path();
        lir.replace_extension(".lir");
        ASSERT_TRUE(fs::exists(lir)) << "corpus entry missing its .lir";
        std::ifstream lin(lir);
        std::stringstream text;
        text << lin.rdbuf();
        EXPECT_NO_THROW(
            ir::parseModule(text.str(), interp::stdlibImplFor));
    }
    EXPECT_GE(entries, 1u) << "fuzz corpus should not be empty";
}

// ------------------------------------------------- runSweep batch fallback

std::vector<core::BenchProgram>
fallbackPrograms(std::uint64_t seed)
{
    core::BenchProgram p;
    p.name = fuzz::programName(seed);
    p.suite = "fuzz";
    p.seed = seed;
    p.build = [seed] { return fuzz::generateProgram(seed); };
    return {p};
}

std::string
sweepDump(const std::vector<core::BenchProgram> &progs, bool traceReplay)
{
    core::SweepRequest req;
    req.suite = "fuzz";
    req.traceReplay = traceReplay;
    req.wantJson = true;
    core::SweepResult res = core::runSweep(progs, req);
    EXPECT_EQ(res.exitCode, 0);
    return res.document.dump(2);
}

TEST_F(FuzzTest, InjectedReplayFaultFallsBackByteIdentically)
{
    auto progs = fallbackPrograms(8);
    const std::string reference = sweepDump(progs, false);
    guard::setFault("replay", 1);
    const std::string healed = sweepDump(progs, true);
    guard::setFault("", 0);
    EXPECT_EQ(reference, healed);
}

TEST_F(FuzzTest, SeedIsThreadedIntoReportsAndCellKeys)
{
    EXPECT_EQ(guard::Checkpoint::cellKey("cfg", "fuzz", "random-9", 9),
              "cfg|fuzz|random-9|9");
    auto progs = fallbackPrograms(9);
    const std::string dump = sweepDump(progs, true);
    EXPECT_NE(dump.find("\"seed\": 9"), std::string::npos);
    // Hand-written programs (seed 0) keep their historical reports:
    // no seed key at all.
    core::BenchProgram plain;
    plain.name = "plain";
    plain.suite = "fuzz";
    plain.build = [] { return fuzz::generateProgram(0); };
    core::SweepRequest req;
    req.suite = "fuzz";
    req.wantJson = true;
    core::SweepResult res = core::runSweep({plain}, req);
    EXPECT_EQ(res.document.dump().find("\"seed\""), std::string::npos);
}

// ---------------------------------------------------------------- harness

TEST_F(FuzzTest, HarnessRunsARangeAndReportsCleanly)
{
    fuzz::HarnessOptions opts;
    opts.seedBegin = 0;
    opts.seedEnd = 2;
    opts.diff.jobsN = 2;
    opts.diff.shards = 2;
    opts.diff.scratchDir = ::testing::TempDir() + "lp_fuzz_test_scratch";
    std::ostringstream log;
    fuzz::HarnessResult res = fuzz::runHarness(opts, &log);
    EXPECT_EQ(res.seedsRun, 2u);
    EXPECT_TRUE(res.ok()) << log.str();
}

} // namespace
} // namespace lp

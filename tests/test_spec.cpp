/**
 * @file
 * The engine against the spec evaluator (src/fuzz/spec.*), field by
 * field.
 *
 * The spec evaluator is a naive, independent implementation of the
 * execution models written from DESIGN.md §3 and §6.  Every report the
 * lane engine produces must agree with it: per loop row (instances,
 * iterations, serial, adjusted and parallel cost, memory conflicts,
 * conflict iterations, serialized instances, register predictions and
 * mispredicts, static verdict) and per program (serial and parallel
 * cost, coverage, the census, and under the consistency oracle the
 * "oracle" and "static_verdict" sections).  Inputs: the seven fixture
 * shapes, the loop-edge fixtures (tests/loop_edges), the callee-store,
 * callee-load and narrow-stride fixtures and all 30 suite programs
 * under the full configuration grid (paper grid, DOACROSS, HELIX dep2,
 * PDOALL dep3-fn3 and both serialization-threshold ablation ends),
 * fuzz seeds 0-63, and seeds 1-4 drawn with trips of 100-200.
 *
 * The evaluator watches every access the tracker's static filter (the
 * RAW-free components of the loop PDG's memory relation) skips, so each
 * comparison also checks the PDG's memory edges, and every program must
 * leave SpecEvaluator::filterFindings() empty.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/spec.hpp"
#include "helpers.hpp"
#include "interp/stdlib.hpp"
#include "ir/parser.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

using rt::LPConfig;

/**
 * Every configuration of @p grid, with and without the oracle, through
 * the engine's batches and through the spec evaluator.  Returns the
 * number of (configuration, oracle) reports compared.
 */
std::size_t
expectEngineMatchesSpec(const ir::Module &mod, const std::string &what,
                        const std::vector<LPConfig> &grid)
{
    core::Loopapalooza lp(mod);
    const std::vector<rt::ProgramReport> plain = lp.runReplayBatched(grid);
    rt::OracleCapture cap;
    const std::vector<rt::ProgramReport> linted =
        lp.runReplayBatched(grid, cap);
    const fuzz::SpecEvaluator spec(lp.plan());
    for (const std::string &finding : spec.filterFindings())
        ADD_FAILURE() << what << ": " << finding;

    std::size_t compared = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        for (bool oracle : {false, true}) {
            const rt::ProgramReport &engine = oracle ? linted[i] : plain[i];
            const rt::ProgramReport expected =
                spec.evaluate(grid[i], engine.program, oracle);
            const std::vector<std::string> diffs = fuzz::specDifferences(
                engine.toJson(),
                expected.toJson());
            ++compared;
            if (diffs.empty())
                continue;
            std::string detail;
            for (std::size_t d = 0; d < diffs.size() && d < 5; ++d)
                detail += "\n  " + diffs[d];
            ADD_FAILURE() << what << " under " << grid[i].str()
                          << (oracle ? " with the oracle" : "") << ": "
                          << diffs.size() << " difference(s)" << detail;
        }
    }
    return compared;
}

TEST(SpecEvaluator, FixtureShapesMatchTheEngine)
{
    const std::vector<LPConfig> grid = test::fullGrid();
    for (auto &[name, mod] : test::allShapes())
        EXPECT_EQ(expectEngineMatchesSpec(*mod, name, grid),
                  2 * grid.size());
}

TEST(SpecEvaluator, LoopEdgeFixturesMatchTheEngine)
{
    const std::vector<LPConfig> grid = test::fullGrid();
    for (const char *name : {"nest_edges", "recursion_entry_header"}) {
        std::ifstream in(std::string(LP_SOURCE_DIR) + "/tests/loop_edges/" +
                         name + ".lir");
        ASSERT_TRUE(in.good()) << name;
        std::stringstream text;
        text << in.rdbuf();
        auto mod = ir::parseModule(text.str(), interp::stdlibImplFor);
        EXPECT_EQ(expectEngineMatchesSpec(*mod, name, grid),
                  2 * grid.size());
    }
}

TEST(SpecEvaluator, CalleeStoreMatchesTheEngine)
{
    // The loop's only store to @a is its callee's: a filter that called
    // @a read-only in the loop would drop the load's 10 RAWs.
    const std::vector<LPConfig> grid = test::fullGrid();
    auto mod = test::buildCalleeStore(/*loopStore=*/false);
    EXPECT_EQ(expectEngineMatchesSpec(*mod, "callee_store", grid),
              2 * grid.size());
}

TEST(SpecEvaluator, CalleeLoadMatchesTheEngine)
{
    // The loop's only load of @a is its read-only callee's: a filter
    // that ignored the call would drop the store's 10 RAWs.
    const std::vector<LPConfig> grid = test::fullGrid();
    auto mod = test::buildCalleeLoad();
    EXPECT_EQ(expectEngineMatchesSpec(*mod, "callee_load", grid),
              2 * grid.size());
    core::Loopapalooza lp(*mod);
    const rt::ProgramReport rep =
        lp.run(LPConfig::parse("reduc1-dep0-fn1", rt::ExecModel::DoAll));
    ASSERT_EQ(rep.loops.size(), 1u);
    EXPECT_EQ(rep.loops[0].memConflicts, 10u);
    EXPECT_EQ(rep.parallelCost, rep.serialCost);
}

TEST(SpecEvaluator, NarrowStrideUpdateMatchesTheEngine)
{
    // A 4-byte walk whose load and store share an address only within
    // an iteration: a relation that kept just that edge would filter
    // both and drop the RAWs between neighbouring iterations.
    const std::vector<LPConfig> grid = test::fullGrid();
    auto mod = test::buildNarrowStrideUpdate();
    EXPECT_EQ(expectEngineMatchesSpec(*mod, "narrow_stride", grid),
              2 * grid.size());
    core::Loopapalooza lp(*mod);
    const rt::ProgramReport rep =
        lp.run(LPConfig::parse("reduc1-dep0-fn1", rt::ExecModel::DoAll));
    ASSERT_EQ(rep.loops.size(), 1u);
    EXPECT_EQ(rep.loops[0].memConflicts, 6u);
}

TEST(SpecEvaluator, SuiteProgramsMatchTheEngine)
{
    const std::vector<LPConfig> grid = test::fullGrid();
    const std::vector<core::BenchProgram> &programs = suites::allPrograms();
    ASSERT_EQ(programs.size(), 30u);
    for (const core::BenchProgram &prog : programs) {
        auto mod = prog.build();
        expectEngineMatchesSpec(*mod, prog.suite + "/" + prog.name, grid);
    }
}

TEST(SpecEvaluator, FuzzSeedsMatchTheEngine)
{
    const std::vector<LPConfig> grid = test::fullGrid();
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        auto mod = fuzz::generateProgram(seed);
        expectEngineMatchesSpec(*mod, "seed " + std::to_string(seed), grid);
    }
}

TEST(SpecEvaluator, GeneratedLongLoopsMatchTheEngine)
{
    // Seeds 0-63 draw trips of 8-55; trips of 100-200 run instances long
    // enough for thousands of PDOALL restarts the instance owes every
    // lane at once.
    const std::vector<LPConfig> grid = test::fullGrid();
    fuzz::GenOptions opts;
    opts.minTrip = 100;
    opts.maxTrip = 200;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto mod = fuzz::generateProgram(seed, opts);
        expectEngineMatchesSpec(*mod, "long-trip seed " + std::to_string(seed),
                                grid);
    }
}

TEST(SpecEvaluator, TheComparisonSeesEveryField)
{
    // A differing per-loop field, top-level field, census entry or
    // oracle finding is reported; so is a loop only one side has.
    auto mod = test::buildSaxpy(64);
    core::Loopapalooza lp(*mod);
    const LPConfig cfg = core::bestPdoall();
    rt::OracleCapture cap;
    rt::ProgramReport rep = lp.run(cfg, cap);
    ASSERT_FALSE(rep.loops.empty());
    ASSERT_GT(rep.coverage, 0.0);
    const obs::Json ref = rep.toJson();
    EXPECT_TRUE(fuzz::specDifferences(ref, ref).empty());

    auto differs = [&](auto &&mutate) {
        rt::ProgramReport other = rep;
        mutate(other);
        return fuzz::specDifferences(
                   ref, other.toJson())
            .size();
    };
    EXPECT_EQ(differs([](rt::ProgramReport &r) {
                  r.loops.back().conflictIterations += 1;
              }),
              1u);
    EXPECT_EQ(differs([](rt::ProgramReport &r) { r.coverage /= 2; }), 1u);
    EXPECT_EQ(differs([](rt::ProgramReport &r) {
                  r.census.infrequentMemLcdLoops += 1;
              }),
              1u);
    EXPECT_EQ(differs([](rt::ProgramReport &r) { r.oracleMismatches += 1; }),
              1u);
    EXPECT_EQ(differs([](rt::ProgramReport &r) { r.loops.pop_back(); }), 1u);
}

TEST(SpecEvaluator, ReadsTheConfigurationBackFromAReport)
{
    for (const LPConfig &cfg : test::fullGrid()) {
        rt::ProgramReport rep;
        rep.config = cfg;
        EXPECT_EQ(fuzz::configFromJson(
                      rep.toJson().at("config")),
                  cfg)
            << cfg.str();
    }
}

} // namespace
} // namespace lp

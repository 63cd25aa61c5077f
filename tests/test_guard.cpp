/**
 * @file
 * Tests for the lp::guard robustness layer: the categorized error
 * taxonomy, run budgets (fuel, wall-clock deadline, heap cap),
 * deterministic fault injection, quarantine/retry via guardedRun,
 * keep-going sweeps and preparation, and sweep checkpoints.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "guard/budget.hpp"
#include "guard/checkpoint.hpp"
#include "guard/fault.hpp"
#include "guard/quarantine.hpp"
#include "helpers.hpp"
#include "interp/machine.hpp"
#include "interp/memory.hpp"
#include "ir/parser.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "rt/report.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

/**
 * Every guard test starts and ends disarmed: the CI fault-injection
 * matrix runs this binary with LP_FAULT set in the environment, and
 * these tests assert *specific* fault behavior, so an ambient fault
 * must never leak in (or out, to a later test).
 */
class GuardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        guard::setFault("", 0);
        guard::clearBudgetOverride();
    }

    void
    TearDown() override
    {
        guard::setFault("", 0);
        guard::clearBudgetOverride();
    }
};

// ------------------------------------------------------- error taxonomy

TEST_F(GuardTest, ErrorCodesHaveStableNames)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Parse), "LP_PARSE");
    EXPECT_STREQ(errorCodeName(ErrorCode::Verify), "LP_VERIFY");
    EXPECT_STREQ(errorCodeName(ErrorCode::Fuel), "LP_FUEL");
    EXPECT_STREQ(errorCodeName(ErrorCode::Deadline), "LP_DEADLINE");
    EXPECT_STREQ(errorCodeName(ErrorCode::Heap), "LP_HEAP");
    EXPECT_STREQ(errorCodeName(ErrorCode::Stack), "LP_STACK");
    EXPECT_STREQ(errorCodeName(ErrorCode::Trap), "LP_TRAP");
    EXPECT_STREQ(errorCodeName(ErrorCode::Io), "LP_IO");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "LP_INTERNAL");
}

TEST_F(GuardTest, OnlyIoAndDeadlineAreTransient)
{
    EXPECT_TRUE(errorIsTransient(ErrorCode::Io));
    EXPECT_TRUE(errorIsTransient(ErrorCode::Deadline));
    EXPECT_FALSE(errorIsTransient(ErrorCode::Parse));
    EXPECT_FALSE(errorIsTransient(ErrorCode::Verify));
    EXPECT_FALSE(errorIsTransient(ErrorCode::Fuel));
    EXPECT_FALSE(errorIsTransient(ErrorCode::Heap));
    EXPECT_FALSE(errorIsTransient(ErrorCode::Stack));
    EXPECT_FALSE(errorIsTransient(ErrorCode::Trap));
    EXPECT_FALSE(errorIsTransient(ErrorCode::Internal));
}

TEST_F(GuardTest, ErrorsRenderCodeAndAreCatchableAsFatalError)
{
    try {
        throw InterpreterTrap("division by zero");
    }
    catch (const FatalError &e) { // legacy catch sites keep working
        std::string what = e.what();
        EXPECT_NE(what.find("[LP_TRAP]"), std::string::npos) << what;
        EXPECT_NE(what.find("division by zero"), std::string::npos);
    }
}

TEST_F(GuardTest, NoteCellFillsIdentityWithoutClobbering)
{
    ErrorContext ctx;
    ctx.function = "kernel";
    InterpreterTrap e("boom", ctx);
    e.noteCell("176.gcc-like", "cint2000", "reduc1-dep2-fn2 HELIX");
    std::string what = e.what();
    EXPECT_NE(what.find("176.gcc-like"), std::string::npos) << what;
    EXPECT_NE(what.find("cint2000"), std::string::npos);
    EXPECT_NE(what.find("kernel"), std::string::npos);
    EXPECT_EQ(e.context().program, "176.gcc-like");

    // A second note (an outer handler) must not overwrite the identity
    // stamped closest to the failure.
    e.noteCell("other", "other-suite", "cfg");
    EXPECT_EQ(e.context().program, "176.gcc-like");
}

// ----------------------------------------------------------- run budget

TEST_F(GuardTest, ParseBudgetValueAcceptsPlainIntegers)
{
    EXPECT_EQ(guard::parseBudgetValue("--budget-instructions", "0"), 0u);
    EXPECT_EQ(guard::parseBudgetValue("--budget-wall-ms", "2500"), 2500u);
}

TEST_F(GuardTest, ParseBudgetValueRejectsGarbageWithParseError)
{
    for (const char *bad : {"", "ten", "-5", "1e9",
                            "99999999999999999999999"}) {
        try {
            guard::parseBudgetValue("--budget-heap-bytes", bad);
            FAIL() << "accepted: " << bad;
        }
        catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::Parse) << bad;
            EXPECT_NE(std::string(e.what()).find("--budget-heap-bytes"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(GuardTest, BudgetOverrideWinsOverDefaults)
{
    guard::RunBudget b;
    b.maxInstructions = 1234;
    b.maxWallMs = 9;
    guard::setBudgetOverride(b);
    EXPECT_EQ(guard::defaultBudget(), b);
    guard::clearBudgetOverride();
    EXPECT_EQ(guard::defaultBudget().maxWallMs, 0u);
}

TEST_F(GuardTest, FuelExhaustionNamesFunctionAndCounts)
{
    auto mod = test::buildSaxpy(1000);
    interp::Machine m(*mod);
    guard::RunBudget b;
    b.maxInstructions = 100; // saxpy(1000) needs far more
    m.setBudget(b);
    try {
        m.run();
        FAIL() << "expected ResourceExhausted";
    }
    catch (const ResourceExhausted &e) {
        EXPECT_EQ(e.code(), ErrorCode::Fuel);
        std::string what = e.what();
        EXPECT_NE(what.find("[LP_FUEL]"), std::string::npos) << what;
        EXPECT_NE(what.find("@main"), std::string::npos) << what;
        EXPECT_NE(what.find("budget 100"), std::string::npos) << what;
        EXPECT_FALSE(e.context().function.empty());
    }
}

TEST_F(GuardTest, WallClockDeadlineAborts)
{
    auto mod = test::buildSaxpy(2'000'000);
    interp::Machine m(*mod);
    guard::RunBudget b;
    b.maxInstructions = 0; // unlimited fuel: isolate the deadline arm
    b.maxWallMs = 1;
    m.setBudget(b);
    try {
        m.run();
        FAIL() << "expected ResourceExhausted";
    }
    catch (const ResourceExhausted &e) {
        EXPECT_EQ(e.code(), ErrorCode::Deadline);
        EXPECT_NE(std::string(e.what()).find("wall-clock"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(GuardTest, HeapCapIsEnforcedByMemory)
{
    interp::Memory mem;
    mem.setHeapLimit(1024);
    EXPECT_NO_THROW(mem.allocHeap(512));
    try {
        mem.allocHeap(4096);
        FAIL() << "expected ResourceExhausted";
    }
    catch (const ResourceExhausted &e) {
        EXPECT_EQ(e.code(), ErrorCode::Heap);
        EXPECT_NE(std::string(e.what()).find("heap budget"),
                  std::string::npos);
    }
    // Uncapped (0) keeps the historical segment-sized behavior.
    mem.setHeapLimit(0);
    EXPECT_NO_THROW(mem.allocHeap(4096));
}

// ------------------------------------------------------ fault injection

TEST_F(GuardTest, FaultTripsOnNthHitThenStaysPast)
{
    guard::setFault("interp", 2);

    auto mod = test::buildSaxpy(8);
    interp::Machine first(*mod);
    EXPECT_NO_THROW(first.run()); // hit 1: passes

    interp::Machine second(*mod);
    EXPECT_THROW(second.run(), InterpreterTrap); // hit 2: trips

    // The counter moved past nth: the retry of the same unit succeeds.
    interp::Machine third(*mod);
    EXPECT_NO_THROW(third.run());
    EXPECT_EQ(guard::faultSiteHits("interp"), 3u);
}

TEST_F(GuardTest, FaultSitesThrowTheirNaturalCategory)
{
    guard::setFault("parser", 1);
    try {
        ir::parseModule("module m\nfunc i64 @main() {\n  entry:\n"
                        "    ret 0\n}\n");
        FAIL() << "expected ParseError";
    }
    catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Parse);
        EXPECT_NE(std::string(e.what()).find("injected"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(GuardTest, UnknownFaultSiteDisarms)
{
    guard::setFault("no-such-site", 3);
    auto mod = test::buildSaxpy(8);
    interp::Machine m(*mod);
    EXPECT_NO_THROW(m.run());
}

// ---------------------------------------------------- quarantine, retry

TEST_F(GuardTest, GuardedRunPassesThroughSuccess)
{
    int calls = 0;
    guard::RunVerdict v = guard::guardedRun("unit", [&] { ++calls; });
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(v.attempts, 1);
    EXPECT_EQ(calls, 1);
}

TEST_F(GuardTest, TransientFailureIsRetriedAndSucceeds)
{
    guard::setFault("io", 1);
    guard::GuardPolicy policy;
    policy.backoffBaseMs = 0; // no sleeping in tests
    int calls = 0;
    guard::RunVerdict v = guard::guardedRun(
        "unit",
        [&] {
            ++calls;
            guard::faultPoint("io"); // trips once, then passes
        },
        policy);
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(v.attempts, 2);
    EXPECT_EQ(calls, 2);
}

TEST_F(GuardTest, DeterministicFailureQuarantinesImmediately)
{
    int calls = 0;
    guard::RunVerdict v = guard::guardedRun("unit", [&] {
        ++calls;
        throw VerifyError("bad module");
    });
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.attempts, 1); // no retry for deterministic categories
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(v.code, ErrorCode::Verify);
    EXPECT_STREQ(v.codeName(), "LP_VERIFY");
    EXPECT_NE(v.message.find("bad module"), std::string::npos);
}

TEST_F(GuardTest, TransientFailureExhaustsItsRetryBudget)
{
    guard::GuardPolicy policy;
    policy.maxRetries = 2;
    policy.backoffBaseMs = 0;
    int calls = 0;
    guard::RunVerdict v = guard::guardedRun(
        "unit",
        [&] {
            ++calls;
            throw IoError("disk on fire");
        },
        policy);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.attempts, 3); // 1 try + 2 retries
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(v.code, ErrorCode::Io);
}

TEST_F(GuardTest, StrictModeRethrowsTheOriginalError)
{
    guard::GuardPolicy policy;
    policy.keepGoing = false;
    policy.backoffBaseMs = 0;
    EXPECT_THROW(
        guard::guardedRun(
            "unit", [] { throw ParseError("nope", 7); }, policy),
        ParseError);
}

TEST_F(GuardTest, ForeignExceptionsBecomeInternal)
{
    guard::RunVerdict v = guard::guardedRun(
        "unit", [] { throw std::runtime_error("surprise"); });
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.code, ErrorCode::Internal);
    EXPECT_NE(v.message.find("surprise"), std::string::npos);
}

// ------------------------------------------------- keep-going sweeping

/** A program that parses and verifies but traps at run time. */
core::BenchProgram
trappingProgram()
{
    core::BenchProgram p;
    p.name = "trap.kernel";
    p.suite = "guard-suite";
    p.build = [] {
        return ir::parseModule("module trapdemo\n"
                               "func i64 @main() {\n"
                               "  entry:\n"
                               "    %z = add i64 0, 0\n"
                               "    %q = sdiv i64 1, %z\n"
                               "    ret %q\n"
                               "}\n");
    };
    return p;
}

core::BenchProgram
healthyProgram(const char *name)
{
    core::BenchProgram p;
    p.name = name;
    p.suite = "guard-suite";
    p.build = [] { return test::buildSaxpy(64); };
    return p;
}

TEST_F(GuardTest, KeepGoingSuiteQuarantinesOneCellOthersComplete)
{
    std::vector<core::BenchProgram> progs = {
        healthyProgram("ok.one"), trappingProgram(),
        healthyProgram("ok.two")};

    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc1-dep1-fn2", rt::ExecModel::Helix);
    core::SweepRequest req;
    req.configs = {{cfg.str(), cfg}};
    req.keepGoing = true;
    req.wantJson = true;
    std::ostringstream out;
    core::SweepResult res = core::runSweep(progs, req, out);

    // The listing names the quarantined cell after the table.
    EXPECT_NE(out.str().find("1 cell(s) did not complete:\n"
                             "  failed  trap.kernel [reduc1-dep1-fn2 HELIX "
                             "guard-suite]  LP_TRAP\n"),
              std::string::npos)
        << out.str();

    const obs::Json &reports = res.document.at("reports");
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_EQ(reports.at(0).at("status").asString(), "ok");
    EXPECT_EQ(reports.at(1).at("status").asString(), "failed");
    EXPECT_EQ(reports.at(2).at("status").asString(), "ok");
    EXPECT_EQ(reports.at(1).at("error_code").asString(), "LP_TRAP");
    EXPECT_EQ(reports.at(1).at("program").asString(), "trap.kernel");
    EXPECT_NE(reports.at(1).at("error").asString().find(
                  "division by zero"),
              std::string::npos)
        << reports.at(1).at("error").asString();

    // Geomeans aggregate the survivors only.
    const obs::Json &row = res.document.at("suites").at(0);
    EXPECT_EQ(row.at("ok").asU64(), 2u);
    EXPECT_EQ(row.at("failed").asU64(), 1u);
    EXPECT_GT(row.at("geomean_speedup").asDouble(), 0.0);

    // The failure route, on one lane and on the 14-lane paper grid: the
    // trapping program's batch traps once and is quarantined whole,
    // every lane carrying the verdict the one-lane run above reports.
    const std::string trapMessage = reports.at(1).at("error").asString();
    std::ostream discard(nullptr);
    for (const std::vector<core::NamedConfig> &grid :
         {req.configs, core::paperConfigs()}) {
        core::SweepRequest fusedReq = req;
        fusedReq.configs = grid;
        obs::setMetricsEnabled(true);
        obs::Registry::instance().resetAll();
        const obs::Json doc = core::runSweep(progs, fusedReq, discard).document;
        obs::Registry &reg = obs::Registry::instance();
        EXPECT_EQ(reg.counter("guard.quarantined").value(), 1u)
            << grid.size() << " configuration(s)";
        // One interpretation per program: the trapping batch ran once,
        // not once more per lane.
        EXPECT_EQ(reg.counter("interp.runs").value(), progs.size())
            << grid.size() << " configuration(s)";
        obs::setMetricsEnabled(false);

        std::size_t failed = 0;
        const obs::Json &reps = doc.at("reports");
        for (std::size_t i = 0; i < reps.size(); ++i) {
            if (reps.at(i).at("status").asString() != "failed")
                continue;
            ++failed;
            EXPECT_EQ(reps.at(i).at("program").asString(), "trap.kernel");
            EXPECT_EQ(reps.at(i).at("error_code").asString(), "LP_TRAP");
            EXPECT_EQ(reps.at(i).at("error").asString(), trapMessage);
            EXPECT_EQ(reps.at(i).at("attempts").asU64(), 1u);
        }
        EXPECT_EQ(failed, grid.size());
    }

    // Strict mode over the same suite aborts, with the cell identity
    // stamped onto the error.
    req.keepGoing = false;
    try {
        core::runSweep(progs, req, discard);
        FAIL() << "expected InterpreterTrap";
    }
    catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Trap);
        EXPECT_EQ(e.context().program, "trap.kernel");
        EXPECT_EQ(e.context().suite, "guard-suite");
    }
}

TEST_F(GuardTest, CheckpointAppendFaultRetriesTheBatch)
{
    // A transient LP_IO from a checkpoint append, on the first, third
    // and a later batch's append, retries the append's whole task: the
    // sweep finishes with the report of an unfaulted sweep.
    std::vector<core::BenchProgram> progs = {
        healthyProgram("ok.one"), healthyProgram("ok.two"),
        healthyProgram("ok.three")};
    const std::string ckPath = ::testing::TempDir() + "lp_guard_io.jsonl";
    core::SweepRequest req; // the 14-lane paper grid, keep-going
    req.checkpointPath = ckPath;
    req.wantJson = true;
    std::ostream discard(nullptr);
    const std::string clean =
        core::runSweep(progs, req, discard).document.dump(2);

    const std::uint64_t lanes = req.configs.size();
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{3}, lanes + 2}) {
        guard::setFault("io", k);
        EXPECT_EQ(core::runSweep(progs, req, discard).document.dump(2),
                  clean)
            << "io:" << k;

        // Again with metrics on (their section keeps this document from
        // matching): exactly one retry healed it.
        guard::setFault("io", k);
        obs::setMetricsEnabled(true);
        obs::Registry::instance().resetAll();
        core::runSweep(progs, req, discard);
        obs::Registry &reg = obs::Registry::instance();
        EXPECT_EQ(reg.counter("guard.retries").value(), 1u) << "io:" << k;
        EXPECT_EQ(reg.counter("guard.quarantined").value(), 0u)
            << "io:" << k;
        obs::setMetricsEnabled(false);
    }
    std::remove(ckPath.c_str());
}

TEST_F(GuardTest, KeepGoingStudyQuarantinesFailedPrepare)
{
    core::BenchProgram broken = healthyProgram("broken.selfcheck");
    broken.checkExpected = true;
    broken.expected = 424242; // saxpy does not return this

    std::vector<core::BenchProgram> progs = {healthyProgram("ok.one"),
                                             broken};
    core::StudyOptions opts;
    opts.keepGoing = true;
    core::Study study(progs, opts);

    EXPECT_EQ(study.programs().size(), 1u);
    ASSERT_EQ(study.prepareFailures().size(), 1u);
    EXPECT_EQ(study.prepareFailures()[0].program, "broken.selfcheck");
    EXPECT_FALSE(study.prepareFailures()[0].verdict.ok);

    // Strict preparation of the same set aborts instead.
    EXPECT_THROW(core::Study(progs, core::StudyOptions{}), FatalError);
}

// ----------------------------------------------------------- checkpoint

TEST_F(GuardTest, FailedReportJsonCarriesStatusAndCode)
{
    rt::ProgramReport rep;
    rep.program = "p";
    rep.status = rt::RunStatus::Failed;
    rep.errorCode = "LP_FUEL";
    rep.errorMessage = "out of fuel";
    rep.attempts = 2;
    obs::Json j = rep.toJson();
    EXPECT_EQ(j.at("status").asString(), "failed");
    EXPECT_EQ(j.at("error_code").asString(), "LP_FUEL");
    EXPECT_EQ(j.at("error").asString(), "out of fuel");
    EXPECT_EQ(j.at("attempts").asInt(), 2);

    rt::ProgramReport ok;
    obs::Json jok = ok.toJson();
    EXPECT_EQ(jok.at("status").asString(), "ok");
    EXPECT_EQ(jok.at("error_code").asString(), "");
    EXPECT_FALSE(jok.contains("error"));
}

TEST_F(GuardTest, CheckpointRoundTripsCellsByteIdentically)
{
    std::string path = ::testing::TempDir() + "lp_guard_ckpt.jsonl";
    std::remove(path.c_str());

    auto mod = test::buildSaxpy(64);
    interp::Machine m(*mod);
    m.run();
    rt::ProgramReport rep;
    rep.program = "saxpy";
    rep.serialCost = m.cost();
    rep.coverage = 0.123456789012345678; // exercise %.17g round-trip
    obs::Json cell = rep.toJson();
    std::string key =
        guard::Checkpoint::cellKey("reduc1-dep1-fn2 HELIX", "s", "saxpy");

    {
        guard::Checkpoint ck(path, /*resume=*/false);
        EXPECT_EQ(ck.find(key), nullptr);
        ck.record(key, cell);
        // Recorded cells are written, not kept: only a reopened file
        // finds them.
        EXPECT_EQ(ck.find(key), nullptr);
    }
    {
        guard::Checkpoint resumed(path, /*resume=*/true);
        EXPECT_EQ(resumed.loadedCells(), 1u);
        const obs::Json *stored = resumed.find(key);
        ASSERT_NE(stored, nullptr);
        EXPECT_EQ(stored->dump(2), cell.dump(2));
    }
    std::remove(path.c_str());
}

TEST_F(GuardTest, CheckpointResumeSkipsTornFinalLine)
{
    std::string path = ::testing::TempDir() + "lp_guard_torn.jsonl";
    std::remove(path.c_str());
    {
        guard::Checkpoint ck(path, /*resume=*/false);
        ck.record("a|s|p|0", obs::Json::object());
    }
    {
        // Simulate a kill mid-write: a second line with no closing brace.
        std::ofstream out(path, std::ios::app);
        out << "{\"v\":1,\"key\":\"b|s|p|0\",\"cell\":{";
    }
    guard::Checkpoint resumed(path, /*resume=*/true);
    EXPECT_EQ(resumed.loadedCells(), 1u);
    EXPECT_NE(resumed.find("a|s|p|0"), nullptr);
    EXPECT_EQ(resumed.find("b|s|p|0"), nullptr);

    // The torn line must not poison *appending*: new cells still land.
    resumed.record("c|s|p|0", obs::Json::object());
    guard::Checkpoint again(path, /*resume=*/true);
    EXPECT_EQ(again.loadedCells(), 2u);
    std::remove(path.c_str());
}

TEST_F(GuardTest, CheckpointCountsSkippedLinesAndInteriorDamage)
{
    std::string path = ::testing::TempDir() + "lp_guard_damage.jsonl";
    std::remove(path.c_str());
    {
        // An interior line damaged after the fact, a good line, and a
        // torn final line: resume must keep the good cell, skip both
        // bad lines (counting them), and never throw or double-run.
        std::ofstream out(path, std::ios::trunc);
        out << "{\"v\":1,\"key\":\"broken" << '\n';
        out << "{\"v\":1,\"key\":\"good|s|p|0\",\"cell\":{}}" << '\n';
        out << "{\"v\":1,\"key\":\"torn|s|p|0\",\"cell\":{";
    }
    guard::Checkpoint ck(path, /*resume=*/true);
    EXPECT_EQ(ck.loadedCells(), 1u);
    EXPECT_EQ(ck.skippedLines(), 2u);
    EXPECT_NE(ck.find("good|s|p|0"), nullptr);
    EXPECT_EQ(ck.find("broken"), nullptr);
    EXPECT_EQ(ck.find("torn|s|p|0"), nullptr);
    std::remove(path.c_str());
}

TEST_F(GuardTest, CheckpointAbsorbMergesShardFiles)
{
    const std::string base = ::testing::TempDir() + "lp_guard_absorb";
    const std::string shard1 = base + ".shard1of2";
    const std::string shard2 = base + ".shard2of2";
    const std::string merged = base + ".merge";
    for (const std::string &p : {shard1, shard2, merged})
        std::remove(p.c_str());

    obs::Json cellA = obs::Json::object();
    cellA.set("status", "ok");
    obs::Json cellB = obs::Json::object();
    cellB.set("status", "failed");
    {
        guard::Checkpoint ck(shard1, /*resume=*/false);
        ck.record("a|s|p|0", cellA);
    }
    {
        guard::Checkpoint ck(shard2, /*resume=*/false);
        ck.record("b|s|p|0", cellB);
    }
    // Tear shard2's tail the way a killed shard process would.
    {
        std::ofstream out(shard2, std::ios::app);
        out << "{\"v\":1,\"key\":\"c|s|p|0\",\"cell\":{";
    }

    guard::Checkpoint ck(merged, /*resume=*/true);
    EXPECT_EQ(ck.absorb(shard1), 1u);
    EXPECT_EQ(ck.absorb(shard2), 1u); // torn line skipped, not loaded
    EXPECT_EQ(ck.skippedLines(), 1u);
    // A missing shard file is a warning and zero cells, not an error:
    // the merge re-runs that shard's cells itself.
    EXPECT_EQ(ck.absorb(base + ".shard9of9"), 0u);

    ASSERT_NE(ck.find("a|s|p|0"), nullptr);
    EXPECT_EQ(ck.find("a|s|p|0")->dump(), cellA.dump());
    ASSERT_NE(ck.find("b|s|p|0"), nullptr);
    EXPECT_EQ(ck.find("b|s|p|0")->dump(), cellB.dump());
    EXPECT_EQ(ck.find("c|s|p|0"), nullptr);

    // Absorbed cells live only in memory — the merge checkpoint file
    // records just the cells the merge itself ran (none here).
    guard::Checkpoint reopened(merged, /*resume=*/true);
    EXPECT_EQ(reopened.loadedCells(), 0u);

    for (const std::string &p : {shard1, shard2, merged})
        std::remove(p.c_str());
}

TEST_F(GuardTest, CheckpointDuplicateKeyLinesAreLastWriterWins)
{
    // The same cell recorded twice in one file — e.g. a cell re-run
    // across resume generations — must resolve deterministically: the
    // LAST complete line wins, and the key counts once.
    std::string path = ::testing::TempDir() + "lp_guard_dup.jsonl";
    std::remove(path.c_str());
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"v\":1,\"key\":\"a|s|p|0\",\"cell\":{\"gen\":1}}\n";
        out << "{\"v\":1,\"key\":\"a|s|p|0\",\"cell\":{\"gen\":2}}\n";
    }
    for (int round = 0; round < 2; ++round) { // deterministic on re-load
        guard::Checkpoint ck(path, /*resume=*/true);
        EXPECT_EQ(ck.loadedCells(), 1u);
        EXPECT_EQ(ck.skippedLines(), 0u);
        ASSERT_NE(ck.find("a|s|p|0"), nullptr);
        EXPECT_EQ(ck.find("a|s|p|0")->dump(), "{\"gen\":2}");
    }
    std::remove(path.c_str());
}

TEST_F(GuardTest, CheckpointAbsorbConflictsAreLastAbsorbWins)
{
    // Two shard files claim the same cell with different contents (a
    // re-sharded or re-run sweep).  The merge must resolve the conflict
    // by absorb order — last absorbed file wins — and report only NET
    // NEW keys in absorb()'s return value, so the caller's "cells
    // recovered" arithmetic stays honest.
    const std::string base = ::testing::TempDir() + "lp_guard_conflict";
    const std::string shard1 = base + ".shard1of2";
    const std::string shard2 = base + ".shard2of2";
    const std::string merged = base + ".merge";
    for (const std::string &p : {shard1, shard2, merged})
        std::remove(p.c_str());

    obs::Json cellA = obs::Json::object();
    cellA.set("status", "ok");
    obs::Json cellB = obs::Json::object();
    cellB.set("status", "failed");
    {
        guard::Checkpoint ck(shard1, /*resume=*/false);
        ck.record("a|s|p|0", cellA);
    }
    {
        guard::Checkpoint ck(shard2, /*resume=*/false);
        ck.record("a|s|p|0", cellB);
        ck.record("b|s|p|0", cellB);
    }

    {
        guard::Checkpoint ck(merged, /*resume=*/false);
        EXPECT_EQ(ck.absorb(shard1), 1u);
        // Only "b" is a new key; "a" is silently overwritten.
        EXPECT_EQ(ck.absorb(shard2), 1u);
        ASSERT_NE(ck.find("a|s|p|0"), nullptr);
        EXPECT_EQ(ck.find("a|s|p|0")->dump(), cellB.dump());
    }
    std::remove(merged.c_str());
    {
        // Opposite order, opposite winner — the policy is positional,
        // not content-dependent, hence deterministic for a fixed merge
        // command line.
        guard::Checkpoint ck(merged, /*resume=*/false);
        EXPECT_EQ(ck.absorb(shard2), 2u);
        EXPECT_EQ(ck.absorb(shard1), 0u); // no net new keys
        ASSERT_NE(ck.find("a|s|p|0"), nullptr);
        EXPECT_EQ(ck.find("a|s|p|0")->dump(), cellA.dump());
        ASSERT_NE(ck.find("b|s|p|0"), nullptr);
    }
    for (const std::string &p : {shard1, shard2, merged})
        std::remove(p.c_str());
}

TEST_F(GuardTest, CheckpointUnopenablePathIsIoError)
{
    try {
        guard::Checkpoint ck("/nonexistent-dir/nope/ck.jsonl",
                             /*resume=*/false);
        FAIL() << "expected IoError";
    }
    catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
    }
}

} // namespace
} // namespace lp

/**
 * @file
 * Tests for lp::lint: every LINT_* rule fires on its seeded-defect
 * corpus file (tests/lint_corpus/) with the exact expected finding set,
 * the bundled suites lint clean, the SARIF emitter produces parseable
 * output, the LCD classifier matches the paper's Table-I classes, and
 * the static-vs-dynamic consistency oracle reports zero mismatches on
 * honest runs and catches a deliberately forced false claim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "helpers.hpp"
#include "interp/stdlib.hpp"
#include "ir/parser.hpp"
#include "lint/engine.hpp"
#include "lint/oracle.hpp"
#include "lint/sarif.hpp"
#include "rt/oracle_capture.hpp"
#include "suites/registry.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

using core::Loopapalooza;
using rt::ExecModel;
using rt::LPConfig;
using rt::ProgramReport;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Parse tests/lint_corpus/<name>.lir and lint it. */
lint::LintResult
lintCorpus(const std::string &name, const lint::LintOptions &opts = {})
{
    std::string path =
        std::string(LP_SOURCE_DIR) + "/tests/lint_corpus/" + name + ".lir";
    auto mod = ir::parseModule(readFile(path), interp::stdlibImplFor);
    return lint::lintModule(*mod, opts);
}

/** Sorted rule ids of all findings. */
std::vector<std::string>
rules(const lint::LintResult &res)
{
    std::vector<std::string> ids;
    for (const lint::Diagnostic &d : res.diags)
        ids.push_back(d.rule);
    std::sort(ids.begin(), ids.end());
    return ids;
}

const lint::Diagnostic *
findRule(const lint::LintResult &res, const std::string &rule)
{
    for (const lint::Diagnostic &d : res.diags)
        if (d.rule == rule)
            return &d;
    return nullptr;
}

// ---------------------------------------------------------------------
// Seeded-defect corpus: each rule fires with the exact expected set.
// ---------------------------------------------------------------------

TEST(LintCorpus, DomOperandAlsoTripsSsa)
{
    // Operand-dominance defects fire both LINT_DOM_OPERAND (the precise
    // per-use rule) and LINT_SSA (the verifier promotion) by design.
    lint::LintResult res = lintCorpus("dom_operand");
    EXPECT_EQ(rules(res),
              (std::vector<std::string>{"LINT_DOM_OPERAND", "LINT_SSA"}));
    EXPECT_TRUE(res.hasErrors());

    const lint::Diagnostic *d = findRule(res, "LINT_DOM_OPERAND");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Error);
    EXPECT_EQ(d->loc.function, "main");
    EXPECT_EQ(d->loc.block, "join");
    EXPECT_EQ(d->loc.instr, "y");
    EXPECT_EQ(d->loc.line, 13u);
    EXPECT_NE(d->message.find("%x"), std::string::npos);
}

TEST(LintCorpus, Unreachable)
{
    lint::LintResult res = lintCorpus("unreachable");
    EXPECT_EQ(rules(res),
              (std::vector<std::string>{"LINT_UNREACHABLE"}));
    EXPECT_FALSE(res.hasErrors());
    EXPECT_EQ(res.diags[0].severity, lint::Severity::Warning);
    EXPECT_EQ(res.diags[0].loc.block, "island");
    // The dead %z inside the unreachable block must NOT also fire
    // LINT_DEAD_DEF: the unreachable finding owns that block.
}

TEST(LintCorpus, DeadDef)
{
    lint::LintResult res = lintCorpus("dead_def");
    EXPECT_EQ(rules(res), (std::vector<std::string>{"LINT_DEAD_DEF"}));
    EXPECT_FALSE(res.hasErrors());
    EXPECT_EQ(res.diags[0].loc.instr, "unused");
}

TEST(LintCorpus, GlobalOob)
{
    lint::LintResult res = lintCorpus("global_oob");
    EXPECT_EQ(rules(res), (std::vector<std::string>{"LINT_GLOBAL_OOB"}));
    EXPECT_TRUE(res.hasErrors());
    const lint::Diagnostic &d = res.diags[0];
    EXPECT_NE(d.message.find("@buf"), std::string::npos);
    EXPECT_NE(d.message.find("16"), std::string::npos);
}

TEST(LintCorpus, GlobalOobFoldsOffsetsAsTheInterpreterAdds)
{
    // Offsets add modulo 2^64: a ptradd chain summing to 2^64 - 2 lands
    // 2 bytes below a 16-byte @g, and one offset within 8 of INT64_MAX
    // is past its end; the same chain plus 2 lands on @g itself, and a
    // store to the base of a global larger than 2^63 bytes is in bounds.
    lint::LintResult res = lintCorpus("global_oob_overflow");
    EXPECT_EQ(rules(res), (std::vector<std::string>{"LINT_GLOBAL_OOB",
                                                     "LINT_GLOBAL_OOB"}));
    ASSERT_EQ(res.diags.size(), 2u);
    EXPECT_EQ(res.diags[0].loc.line, 10u);
    EXPECT_NE(res.diags[0].message.find("store at @g-2 "),
              std::string::npos)
        << res.diags[0].str();
    EXPECT_EQ(res.diags[1].loc.line, 12u);
    EXPECT_NE(res.diags[1].message.find("store at @g+9223372036854775803 "),
              std::string::npos)
        << res.diags[1].str();
    for (const lint::Diagnostic &d : res.diags)
        EXPECT_EQ(d.message.find("@huge"), std::string::npos) << d.str();
}

TEST(LintCorpus, InfiniteLoop)
{
    lint::LintResult res = lintCorpus("infinite");
    EXPECT_EQ(rules(res),
              (std::vector<std::string>{"LINT_INFINITE_LOOP"}));
    // The loop is otherwise canonical, so no shape warning rides along.
    EXPECT_EQ(res.diags[0].loc.block, "spin.hdr");
}

TEST(LintCorpus, Irreducible)
{
    lint::LintResult res = lintCorpus("irreducible");
    EXPECT_EQ(rules(res),
              (std::vector<std::string>{"LINT_IRREDUCIBLE"}));
    EXPECT_NE(res.diags[0].message.find("irreducible"),
              std::string::npos);
}

TEST(LintCorpus, NonCanonicalLoop)
{
    lint::LintResult res = lintCorpus("noncanonical");
    // The linear IV escapes canonical-loop SCEV, so the PDG's missed-
    // computable note rides along with the shape warning.
    EXPECT_EQ(rules(res),
              (std::vector<std::string>{"LINT_NON_CANONICAL_LOOP",
                                        "LINT_PDG_MISSED_COMPUTABLE"}));
    EXPECT_NE(res.diags[0].message.find("multiple latches"),
              std::string::npos);
    EXPECT_NE(res.diags[1].message.find("not canonical"),
              std::string::npos);
}

TEST(LintCorpus, MayLcdStore)
{
    lint::LintResult res = lintCorpus("may_lcd_store");
    EXPECT_EQ(rules(res),
              (std::vector<std::string>{"LINT_PDG_MAY_LCD_STORE"}));
    EXPECT_FALSE(res.hasErrors());
    const lint::Diagnostic &d = res.diags[0];
    EXPECT_EQ(d.severity, lint::Severity::Note);
    EXPECT_EQ(d.loc.block, "sc.body");
    // The finding carries edge-level evidence: the scatter store is the
    // *only* reason the loop is not doall.
    EXPECT_NE(d.message.find("demotes"), std::string::npos);
    EXPECT_NE(d.message.find("doall"), std::string::npos);
}

TEST(LintCorpus, ImpureCallCycle)
{
    lint::LintResult res = lintCorpus("impure_call_cycle");
    ASSERT_FALSE(res.diags.empty());
    bool sawCycle = false;
    for (const lint::Diagnostic &d : res.diags)
        if (d.rule == "LINT_PDG_IMPURE_CALL_CYCLE") {
            sawCycle = true;
            EXPECT_EQ(d.severity, lint::Severity::Note);
            EXPECT_NE(d.message.find("@bump"), std::string::npos);
        }
    EXPECT_TRUE(sawCycle);
    EXPECT_FALSE(res.hasErrors());
}

TEST(LintCorpus, ReductionAlias)
{
    lint::LintResult res = lintCorpus("reduction_alias");
    bool sawAlias = false;
    for (const lint::Diagnostic &d : res.diags)
        if (d.rule == "LINT_PDG_REDUCTION_ALIAS") {
            sawAlias = true;
            EXPECT_EQ(d.severity, lint::Severity::Warning);
            // Anchored at the aliasing load, naming the reduction phi.
            EXPECT_EQ(d.loc.instr, "x");
            EXPECT_NE(d.message.find("reduction %s"), std::string::npos);
        }
    EXPECT_TRUE(sawAlias);
}

// ---------------------------------------------------------------------
// Options.
// ---------------------------------------------------------------------

TEST(LintOptions, WarningsAsErrorsPromotes)
{
    lint::LintOptions opts;
    opts.warningsAsErrors = true;
    lint::LintResult res = lintCorpus("dead_def", opts);
    ASSERT_EQ(res.diags.size(), 1u);
    EXPECT_EQ(res.diags[0].severity, lint::Severity::Error);
    EXPECT_TRUE(res.hasErrors());
}

// ---------------------------------------------------------------------
// Clean inputs: nothing we ship has Warning-or-worse findings.  The
// advisory PDG notes (may-LCD stores, impure call cycles) fire on
// several SPEC-like kernels *by design* — they describe the kernels'
// intended dependence structure, not defects.
// ---------------------------------------------------------------------

TEST(LintClean, BundledSuitesHaveNoWarningsOrErrors)
{
    bool sawPdgNote = false;
    for (const core::BenchProgram &prog : suites::allPrograms()) {
        auto mod = prog.build();
        lint::LintResult res = lint::lintModule(*mod);
        EXPECT_EQ(res.countAtLeast(lint::Severity::Warning), 0u)
            << prog.suite << "/" << prog.name << ": "
            << (res.diags.empty() ? "" : res.diags[0].str());
        for (const lint::Diagnostic &d : res.diags) {
            EXPECT_EQ(d.severity, lint::Severity::Note) << d.str();
            EXPECT_EQ(d.rule.rfind("LINT_PDG_", 0), 0u) << d.str();
            sawPdgNote = true;
        }
    }
    // The advisory layer is alive: at least one kernel carries a note.
    EXPECT_TRUE(sawPdgNote);
}

TEST(LintClean, SampleLirHasZeroFindings)
{
    std::string path = std::string(LP_SOURCE_DIR) + "/examples/sample.lir";
    auto mod = ir::parseModule(readFile(path), interp::stdlibImplFor);
    lint::LintResult res = lint::lintModule(*mod);
    EXPECT_TRUE(res.diags.empty())
        << (res.diags.empty() ? "" : res.diags[0].str());
}

// ---------------------------------------------------------------------
// LCD classifier (lint.deps).
// ---------------------------------------------------------------------

/** All "class" strings across every loop/phi of a deps document. */
std::vector<std::string>
depClasses(const obs::Json &deps)
{
    std::vector<std::string> out;
    const obs::Json &loops = deps.at("loops");
    for (std::size_t i = 0; i < loops.size(); ++i) {
        const obs::Json &phis = loops.at(i).at("phis");
        for (std::size_t j = 0; j < phis.size(); ++j)
            out.push_back(phis.at(j).at("class").asString());
    }
    return out;
}

TEST(LintDeps, SaxpyIsAllComputable)
{
    auto mod = test::buildSaxpy(64);
    std::vector<std::string> classes =
        depClasses(lint::lintModule(*mod).deps);
    ASSERT_FALSE(classes.empty());
    for (const std::string &c : classes)
        EXPECT_EQ(c, lint::kClassComputable);
}

TEST(LintDeps, SumReductionIsClassified)
{
    auto mod = test::buildSumReduction(64);
    std::vector<std::string> classes =
        depClasses(lint::lintModule(*mod).deps);
    EXPECT_NE(std::find(classes.begin(), classes.end(),
                        lint::kClassReduction),
              classes.end());
}

TEST(LintDeps, PointerChaseIsPredictionCandidate)
{
    auto mod = test::buildPointerChaseShuffled(32);
    std::vector<std::string> classes =
        depClasses(lint::lintModule(*mod).deps);
    EXPECT_NE(std::find(classes.begin(), classes.end(),
                        lint::kClassPredictionCandidate),
              classes.end());
}

// ---------------------------------------------------------------------
// SARIF emitter.
// ---------------------------------------------------------------------

TEST(LintSarif, CorpusFindingsSurviveTheRoundTrip)
{
    std::vector<lint::LintResult> results;
    for (const char *name :
         {"dom_operand", "unreachable", "dead_def", "global_oob",
          "infinite", "irreducible", "noncanonical"}) {
        lint::LintResult res = lintCorpus(name);
        res.artifact = std::string(name) + ".lir";
        results.push_back(std::move(res));
    }

    std::string text = lint::toSarif(results).dump(2);
    std::string err;
    obs::Json doc = obs::Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(doc.at("version").asString(), "2.1.0");
    const obs::Json &run = doc.at("runs").at(0);
    const obs::Json &driver = run.at("tool").at("driver");
    EXPECT_EQ(driver.at("name").asString(), "lp-lint");
    // The rule table covers the 12 static rules plus the 4 oracle rules.
    EXPECT_EQ(driver.at("rules").size(), 16u);

    // 9 findings total: dom_operand and noncanonical contribute 2 each,
    // the rest 1.
    const obs::Json &sarifResults = run.at("results");
    EXPECT_EQ(sarifResults.size(), 9u);
    for (std::size_t i = 0; i < sarifResults.size(); ++i) {
        const obs::Json &r = sarifResults.at(i);
        EXPECT_EQ(r.at("ruleId").asString().rfind("LINT_", 0), 0u);
        EXPECT_FALSE(r.at("message").at("text").asString().empty());
        EXPECT_GE(r.at("locations").size(), 1u);
    }

    // The machine-readable classification rides along as a property.
    EXPECT_TRUE(run.at("properties").contains("lint.deps"));
}

TEST(LintSarif, BuiltModulesGetOrdinalFingerprints)
{
    // A builder-constructed module has no source text: every Location
    // reports line 0, so the emitter falls back to the structural
    // "@func:block:%instr" ordinal in partialFingerprints.
    auto mod = test::buildHistogram(32, 4);
    lint::LintResult res = lint::lintModule(*mod);
    ASSERT_FALSE(res.diags.empty()); // the may-LCD store note
    EXPECT_EQ(res.diags[0].loc.line, 0u);
    res.artifact = "built:hist";

    obs::Json doc = lint::toSarif({res});
    const obs::Json &results = doc.at("runs").at(0).at("results");
    ASSERT_GE(results.size(), 1u);
    const obs::Json &r = results.at(0);
    ASSERT_TRUE(r.contains("partialFingerprints"));
    std::string fp = r.at("partialFingerprints")
                         .at("lpLintOrdinal/v1")
                         .asString();
    EXPECT_EQ(fp.rfind("@main:", 0), 0u) << fp;

    // Determinism: the same module built twice fingerprints identically.
    auto mod2 = test::buildHistogram(32, 4);
    lint::LintResult res2 = lint::lintModule(*mod2);
    res2.artifact = "built:hist";
    EXPECT_EQ(lint::toSarif({res}).dump(2),
              lint::toSarif({res2}).dump(2));
}

TEST(LintSarif, ParsedModulesKeepLineRegionsNotFingerprints)
{
    // Parsed corpus files carry real line info, so the ordinal
    // fallback must stay absent and the region present.
    lint::LintResult res = lintCorpus("dead_def");
    ASSERT_FALSE(res.diags.empty());
    EXPECT_NE(res.diags[0].loc.line, 0u);
    res.artifact = "dead_def.lir";

    obs::Json doc = lint::toSarif({res});
    const obs::Json &r = doc.at("runs").at(0).at("results").at(0);
    EXPECT_FALSE(r.contains("partialFingerprints"));
    EXPECT_TRUE(r.at("locations")
                    .at(0)
                    .at("physicalLocation")
                    .contains("region"));
}

TEST(LintSarif, RuleMetaIncludesOracleRules)
{
    bool diverged = false, missed = false;
    bool contradicted = false, conservative = false;
    for (const lint::RuleMeta &m : lint::standardRuleMeta()) {
        diverged |= m.id == "LINT_ORACLE_COMPUTABLE_DIVERGED";
        missed |= m.id == "LINT_ORACLE_MISSED_IV";
        contradicted |= m.id == "LINT_ORACLE_VERDICT_CONTRADICTED";
        conservative |= m.id == "LINT_ORACLE_STATIC_CONSERVATIVE";
    }
    EXPECT_TRUE(diverged);
    EXPECT_TRUE(missed);
    EXPECT_TRUE(contradicted);
    EXPECT_TRUE(conservative);
}

// ---------------------------------------------------------------------
// Consistency oracle.
// ---------------------------------------------------------------------

LPConfig
cfg(const char *flags)
{
    return LPConfig::parse(flags, ExecModel::DoAll);
}

/** First header phi of any loop in @p mod (for synthetic watches). */
const ir::Instruction *
anyPhi(const ir::Module &mod)
{
    for (const auto &fn : mod.functions())
        for (const auto &bb : fn->blocks())
            for (const ir::Instruction *phi : bb->phis())
                return phi;
    return nullptr;
}

TEST(LintOracle, CleanRunHasZeroMismatches)
{
    auto mod = test::buildSaxpy(256);
    Loopapalooza lp(*mod);
    rt::OracleCapture cap;
    ProgramReport rep = lp.run(cfg("reduc0-dep0-fn0"), cap);

    EXPECT_TRUE(rep.oracleRan);
    EXPECT_GT(rep.oraclePhisChecked, 0u);
    EXPECT_EQ(rep.oracleMismatches, 0u);
    for (const lint::Diagnostic &d : lint::checkOracle(cap))
        EXPECT_NE(d.severity, lint::Severity::Error) << d.str();
    // The oracle section appears in the JSON report...
    EXPECT_TRUE(rep.toJson(false).contains("oracle"));
}

TEST(LintOracle, OracleFreeReportsStayOracleFree)
{
    // ...and stays absent from oracle-free runs, so pre-oracle report
    // consumers (checkpoints, aggregation) see byte-identical JSON.
    auto mod = test::buildSaxpy(64);
    Loopapalooza lp(*mod);
    ProgramReport rep = lp.run(cfg("reduc0-dep0-fn0"));
    EXPECT_FALSE(rep.oracleRan);
    EXPECT_FALSE(rep.toJson(false).contains("oracle"));
}

TEST(LintOracle, RunWithOracleConvenience)
{
    auto mod = test::buildSumReduction(128);
    Loopapalooza lp(*mod);
    ProgramReport rep = lp.runWithOracle(cfg("reduc1-dep0-fn0"));
    EXPECT_TRUE(rep.oracleRan);
    EXPECT_EQ(rep.oracleMismatches, 0u);
}

TEST(LintOracle, ForcedFalseClaimIsCaughtEndToEnd)
{
    // Claim the shuffled pointer-chase LCD is SCEV-computable: the
    // finite-difference check over the permuted addresses must break
    // and surface as a LINT_ORACLE_COMPUTABLE_DIVERGED mismatch.
    auto mod = test::buildPointerChaseShuffled(64);
    Loopapalooza lp(*mod);
    rt::OracleCapture cap;
    for (const auto &fp : lp.plan().functionPlans())
        for (const rt::LoopPlan &lplan : fp->loopPlans)
            for (const rt::TrackedPhi &tp : lplan.nonComputable)
                cap.forceClaim(tp.phi);

    // Watch registration is config-independent, so plain dep0 works.
    ProgramReport rep = lp.run(cfg("reduc0-dep0-fn0"), cap);
    EXPECT_TRUE(rep.oracleRan);
    EXPECT_GT(rep.oracleMismatches, 0u);
    bool found = false;
    for (const rt::OracleFinding &f : rep.oracleFindings) {
        if (f.rule != "LINT_ORACLE_COMPUTABLE_DIVERGED")
            continue;
        found = true;
        EXPECT_EQ(f.severity, std::string("error"));
        EXPECT_FALSE(f.phi.empty());
    }
    EXPECT_TRUE(found);

    // The same forced claim through batched replay: its one capture,
    // filled from the shared replay state, must surface the identical
    // findings in every lane.
    rt::OracleCapture batchCap;
    for (const auto &fp : lp.plan().functionPlans())
        for (const rt::LoopPlan &lplan : fp->loopPlans)
            for (const rt::TrackedPhi &tp : lplan.nonComputable)
                batchCap.forceClaim(tp.phi);
    std::vector<ProgramReport> lanes = lp.runReplayBatched(
        {cfg("reduc0-dep0-fn0"),
         LPConfig::parse("reduc1-dep2-fn2", ExecModel::PartialDoAll)},
        batchCap);
    ASSERT_EQ(lanes.size(), 2u);
    for (const ProgramReport &lane : lanes) {
        EXPECT_EQ(lane.oracleMismatches, rep.oracleMismatches);
        ASSERT_EQ(lane.oracleFindings.size(), rep.oracleFindings.size());
        for (std::size_t i = 0; i < rep.oracleFindings.size(); ++i) {
            EXPECT_EQ(lane.oracleFindings[i].rule,
                      rep.oracleFindings[i].rule);
            EXPECT_EQ(lane.oracleFindings[i].phi,
                      rep.oracleFindings[i].phi);
            EXPECT_EQ(lane.oracleFindings[i].message,
                      rep.oracleFindings[i].message);
        }
    }
}

TEST(LintOracle, SyntheticDivergenceIsAnError)
{
    auto mod = test::buildSaxpy(8);
    const ir::Instruction *phi = anyPhi(*mod);
    ASSERT_NE(phi, nullptr);

    rt::OracleCapture cap;
    unsigned w = cap.addWatch({phi, "main.loop", "i", 1, true});
    cap.seal();
    rt::OracleCapture::State st;
    for (std::uint64_t v : {1u, 2u, 4u, 8u, 16u}) // not affine
        rt::OracleCapture::observe(st, 1, v);
    EXPECT_TRUE(st.broken);
    cap.recordInstance(w, st, 1);

    std::vector<lint::Diagnostic> diags = lint::checkOracle(cap);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "LINT_ORACLE_COMPUTABLE_DIVERGED");
    EXPECT_EQ(diags[0].severity, lint::Severity::Error);
}

TEST(LintOracle, SyntheticMissedIvIsANote)
{
    auto mod = test::buildSaxpy(8);
    const ir::Instruction *phi = anyPhi(*mod);
    ASSERT_NE(phi, nullptr);

    // Claimed NON-computable, yet perfectly affine in every instance.
    rt::OracleCapture cap;
    unsigned w = cap.addWatch({phi, "main.loop", "p", 1, false});
    cap.seal();
    rt::OracleCapture::State st;
    for (std::uint64_t v = 2; v < 32; v += 3)
        rt::OracleCapture::observe(st, 1, v);
    EXPECT_FALSE(st.broken);
    cap.recordInstance(w, st, 1);

    std::vector<lint::Diagnostic> diags = lint::checkOracle(cap);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "LINT_ORACLE_MISSED_IV");
    EXPECT_EQ(diags[0].severity, lint::Severity::Note);
}

// ---------------------------------------------------------------------
// Whole-loop verdict oracle.
// ---------------------------------------------------------------------

TEST(LintVerdictOracle, CleanRunHasNoContradictions)
{
    auto mod = test::buildSaxpy(256);
    Loopapalooza lp(*mod);
    ProgramReport rep = lp.runWithOracle(cfg("reduc0-dep0-fn0"));

    EXPECT_TRUE(rep.staticVerdictsRan);
    ASSERT_FALSE(rep.staticVerdicts.empty());
    EXPECT_EQ(rep.verdictContradictions, 0u);
    // Saxpy is the canonical doall kernel; the PDG must agree.
    bool sawDoall = false;
    for (const rt::StaticLoopVerdict &v : rep.staticVerdicts)
        sawDoall |= v.kind == "doall";
    EXPECT_TRUE(sawDoall);
    EXPECT_TRUE(rep.toJson(false).contains("static_verdict"));
}

TEST(LintVerdictOracle, VerdictFreeReportsStayVerdictFree)
{
    auto mod = test::buildSaxpy(64);
    Loopapalooza lp(*mod);
    ProgramReport rep = lp.run(cfg("reduc0-dep0-fn0"));
    EXPECT_FALSE(rep.staticVerdictsRan);
    EXPECT_FALSE(rep.toJson(false).contains("static_verdict"));
}

TEST(LintVerdictOracle, StaticDoallWithDynamicConflictsIsAnError)
{
    // Synthesize the contradiction: the classifier says doall, the
    // tracker saw frequent conflicts.  This is exactly the defect the
    // oracle exists to catch.
    analysis::LoopVerdictSummary v;
    v.label = "main.hdr";
    v.kind = analysis::VerdictKind::DoAll;

    ProgramReport rep;
    rt::LoopReport lr;
    lr.label = "main.hdr";
    lr.iterations = 100;
    lr.memConflicts = 25;
    lr.conflictIterations = 20; // 20% > the 5% frequent threshold
    rep.loops.push_back(lr);

    std::vector<lint::Diagnostic> diags = lint::checkVerdicts({v}, rep);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "LINT_ORACLE_VERDICT_CONTRADICTED");
    EXPECT_EQ(diags[0].severity, lint::Severity::Error);
    EXPECT_EQ(diags[0].loc.function, "main");
    EXPECT_EQ(diags[0].loc.block, "hdr");
}

TEST(LintVerdictOracle, RegisterOnlyConflictsDoNotContradictDoall)
{
    // reduc0/pred0 runs disable breaking techniques on purpose: the
    // register LCD conflicts that follow say nothing about the PDG's
    // memory edges, so static doall stands.
    analysis::LoopVerdictSummary v;
    v.label = "main.hdr";
    v.kind = analysis::VerdictKind::DoAll;

    ProgramReport rep;
    rt::LoopReport lr;
    lr.label = "main.hdr";
    lr.iterations = 64;
    lr.conflictIterations = 63; // all register-LCD squashes
    lr.memConflicts = 0;
    rep.loops.push_back(lr);

    EXPECT_TRUE(lint::checkVerdicts({v}, rep).empty());
}

TEST(LintVerdictOracle, InfrequentConflictsDoNotContradictDoall)
{
    analysis::LoopVerdictSummary v;
    v.label = "main.hdr";
    v.kind = analysis::VerdictKind::DoAll;

    ProgramReport rep;
    rt::LoopReport lr;
    lr.label = "main.hdr";
    lr.iterations = 100;
    lr.conflictIterations = 3; // under the 5% frequent threshold
    rep.loops.push_back(lr);

    EXPECT_TRUE(lint::checkVerdicts({v}, rep).empty());
}

TEST(LintVerdictOracle, AllMayDemotionRunningCleanIsANote)
{
    analysis::LoopVerdictSummary v;
    v.label = "main.hdr";
    v.kind = analysis::VerdictKind::DoAcrossSync;
    v.doomedEdges = 2;
    v.doomedMay = 2; // demoted by may-edges alone

    ProgramReport rep;
    rt::LoopReport lr;
    lr.label = "main.hdr";
    lr.iterations = 50; // spotless run
    rep.loops.push_back(lr);

    std::vector<lint::Diagnostic> diags = lint::checkVerdicts({v}, rep);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "LINT_ORACLE_STATIC_CONSERVATIVE");
    EXPECT_EQ(diags[0].severity, lint::Severity::Note);
    EXPECT_NE(diags[0].message.find("2 may edge(s)"), std::string::npos);
}

TEST(LintVerdictOracle, MustDemotionsAndUnexecutedLoopsStayQuiet)
{
    // A must-edge demotion is correct by construction; a loop that
    // never ran has no dynamic evidence either way.
    analysis::LoopVerdictSummary must;
    must.label = "main.a";
    must.kind = analysis::VerdictKind::Sequential;
    must.doomedEdges = 3;
    must.doomedMay = 1; // mixed: not a pure-may demotion

    analysis::LoopVerdictSummary unexecuted;
    unexecuted.label = "main.b";
    unexecuted.kind = analysis::VerdictKind::DoAll;

    ProgramReport rep;
    rt::LoopReport lr;
    lr.label = "main.a";
    lr.iterations = 10;
    rep.loops.push_back(lr); // main.b has no dynamic row at all

    EXPECT_TRUE(lint::checkVerdicts({must, unexecuted}, rep).empty());
}

// ---------------------------------------------------------------------
// Error taxonomy.
// ---------------------------------------------------------------------

TEST(LintTaxonomy, LintErrorCarriesTheLintCode)
{
    ErrorContext ctx;
    ctx.program = "chase";
    LintError e("3 error-level lint finding(s)", ctx);
    EXPECT_EQ(e.code(), ErrorCode::Lint);
    EXPECT_EQ(std::string(e.codeName()), "LP_LINT");
    EXPECT_FALSE(e.transient());
    std::string msg = e.what();
    EXPECT_NE(msg.find("[LP_LINT]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("chase"), std::string::npos) << msg;
}

} // namespace
} // namespace lp

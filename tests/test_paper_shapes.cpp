/**
 * @file
 * The reproduction's acceptance tests: the qualitative result SHAPES the
 * paper reports (Section IV, Figures 2-5) must hold on our suites.  We
 * deliberately assert orderings and coarse magnitudes, not absolute
 * numbers — the substrate is a synthetic suite, not the authors' SPEC
 * installation (see DESIGN.md).
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/configs.hpp"
#include "core/sweep.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

using rt::ExecModel;
using rt::LPConfig;

LPConfig
cfg(const char *flags, ExecModel model)
{
    return LPConfig::parse(flags, model);
}

/**
 * Shared fixture: one default sweep (every suite x paperConfigs(), the
 * run_study path) for the whole test suite; the tests read its
 * document.  Every configuration asserted on is a paperConfigs() row,
 * labelled by its LPConfig::str().
 */
class PaperShapes : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        core::SweepRequest req;
        req.keepGoing = false;
        req.wantJson = true;
        std::ostream discard(nullptr);
        doc_ = new obs::Json(
            core::runSweep(suites::allPrograms(), req, discard).document);
    }

    static void
    TearDownTestSuite()
    {
        delete doc_;
        doc_ = nullptr;
    }

    /** The document's "suites" row of (@p suite, @p c). */
    static const obs::Json &
    row(const std::string &suite, const LPConfig &c)
    {
        const obs::Json &rows = doc_->at("suites");
        for (std::size_t i = 0; i < rows.size(); ++i)
            if (rows.at(i).at("config").asString() == c.str() &&
                rows.at(i).at("suite").asString() == suite)
                return rows.at(i);
        throw std::out_of_range("no sweep row " + c.str() + " " + suite);
    }

    static double
    speedup(const std::string &suite, const LPConfig &c)
    {
        return row(suite, c).at("geomean_speedup").asDouble();
    }

    static double
    coverage(const std::string &suite, const LPConfig &c)
    {
        return row(suite, c).at("geomean_coverage_pct").asDouble();
    }

    /** Per-program speedups under @p c, by program name. */
    static std::map<std::string, double>
    programSpeedups(const LPConfig &c)
    {
        std::map<std::string, double> out;
        const obs::Json &reports = doc_->at("reports");
        for (std::size_t i = 0; i < reports.size(); ++i)
            if (reports.at(i).at("config").at("label").asString() ==
                c.str())
                out[reports.at(i).at("program").asString()] =
                    reports.at(i).at("speedup").asDouble();
        return out;
    }

    static obs::Json *doc_;
};

obs::Json *PaperShapes::doc_ = nullptr;

TEST_F(PaperShapes, NonNumericFlatUnderDoall)
{
    // Paper: 1.1x-1.3x for SpecINT under DOALL, both reduc settings.
    for (const char *flags : {"reduc0-dep0-fn0", "reduc1-dep0-fn0"}) {
        for (const char *suite : {"cint2000", "cint2006"}) {
            double s = speedup(suite, cfg(flags, ExecModel::DoAll));
            EXPECT_GE(s, 1.0) << suite << " " << flags;
            EXPECT_LE(s, 1.8) << suite << " " << flags;
        }
    }
}

TEST_F(PaperShapes, NumericGainsUnderDoall)
{
    // Paper: 1.6x-3.1x already at the most restrictive configuration.
    for (const char *suite : {"eembc", "cfp2000", "cfp2006"}) {
        double s =
            speedup(suite, cfg("reduc0-dep0-fn0", ExecModel::DoAll));
        EXPECT_GE(s, 1.4) << suite;
        EXPECT_LE(s, 3.5) << suite;
    }
}

TEST_F(PaperShapes, MinimumPdoallEqualsDoall)
{
    // Paper: "The minimum reduc0-dep0-fn0 PDOALL achieves identical
    // results to its DOALL counterpart for both benchmark classes."
    for (const char *suite :
         {"eembc", "cfp2000", "cfp2006", "cint2000", "cint2006"}) {
        double doall =
            speedup(suite, cfg("reduc0-dep0-fn0", ExecModel::DoAll));
        double pdoall = speedup(
            suite, cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll));
        EXPECT_NEAR(doall, pdoall, 0.05 * doall) << suite;
    }
}

TEST_F(PaperShapes, Dep2LiftsNumericMoreThanNonNumeric)
{
    // Paper: dep2 takes numeric suites to 2.9-3.7x while non-numeric
    // move only modestly.
    LPConfig base = cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll);
    LPConfig dep2 = cfg("reduc0-dep2-fn0", ExecModel::PartialDoAll);
    double numericGain = speedup("cfp2006", dep2) / speedup("cfp2006", base);
    double intGain = speedup("cint2000", dep2) / speedup("cint2000", base);
    EXPECT_GT(numericGain, 1.2);
    EXPECT_LT(intGain, numericGain + 0.5);
}

TEST_F(PaperShapes, Reduc1MattersForNumericNotForInt)
{
    LPConfig r0 = cfg("reduc0-dep2-fn0", ExecModel::PartialDoAll);
    LPConfig r1 = cfg("reduc1-dep2-fn0", ExecModel::PartialDoAll);
    // SpecFP2000 "benefits greatly from both reduc1 and dep2".
    EXPECT_GT(speedup("cfp2000", r1), 1.5 * speedup("cfp2000", r0));
    // "...with reduc1 having no effect" for SpecINT2000.
    EXPECT_NEAR(speedup("cint2000", r1), speedup("cint2000", r0), 0.15);
}

TEST_F(PaperShapes, EembcPrefersFn2OverReduc1Dep2)
{
    // Paper: "EEMBC ... performs even better with reduc0-dep0-fn2 PDOALL
    // than reduc1-dep2-fn0 PDOALL."  We assert the weaker, robust form:
    // fn2 alone buys EEMBC a material fraction of the r1-d2 gain.
    double fn2 = speedup("eembc",
                         cfg("reduc0-dep0-fn2", ExecModel::PartialDoAll));
    double rd = speedup("eembc",
                        cfg("reduc1-dep2-fn0", ExecModel::PartialDoAll));
    EXPECT_GT(fn2, 0.55 * rd);
    EXPECT_GT(fn2, 1.5); // fn2 is a real lever for EEMBC
}

TEST_F(PaperShapes, HelixDep1IsTheHeadlineForInt)
{
    // Paper headline: 4.6x / 7.2x for SpecINT2000/2006 under
    // reduc1-dep1-fn2 HELIX, far above every realistic PDOALL point.
    double int2000 = speedup("cint2000", core::bestHelix());
    double int2006 = speedup("cint2006", core::bestHelix());
    EXPECT_GT(int2000, 2.5);
    EXPECT_LT(int2000, 7.0);
    EXPECT_GT(int2006, 4.5);
    EXPECT_LT(int2006, 12.0);
    EXPECT_GT(int2006, int2000); // 2006 above 2000, as in the paper

    double bestPdoall2000 = speedup("cint2000", core::bestPdoall());
    double bestPdoall2006 = speedup("cint2006", core::bestPdoall());
    EXPECT_GT(int2000, 1.5 * bestPdoall2000);
    EXPECT_GT(int2006, 1.5 * bestPdoall2006);
}

TEST_F(PaperShapes, HelixLiftsNumericToTens)
{
    // Paper: 21.6x-50.6x for the numeric suites at the best HELIX point.
    for (const char *suite : {"eembc", "cfp2000", "cfp2006"}) {
        double s = speedup(suite, core::bestHelix());
        EXPECT_GT(s, 10.0) << suite;
        EXPECT_LT(s, 70.0) << suite;
    }
}

TEST_F(PaperShapes, Dep3Fn3IsAboveEveryRealisticPdoallPoint)
{
    // The unrealistic topline must dominate the realistic PDOALL points.
    for (const char *suite : {"cint2000", "cint2006", "cfp2000"}) {
        double top = speedup(
            suite, cfg("reduc0-dep3-fn3", ExecModel::PartialDoAll));
        double realistic = speedup(suite, core::bestPdoall());
        EXPECT_GE(top, 0.95 * realistic) << suite;
    }
}

TEST_F(PaperShapes, CoverageExplainsTheHelixGain)
{
    // Paper Fig. 5: coverage rises PDOALL dep0-fn2 -> HELIX dep0-fn2 ->
    // HELIX dep1-fn2, most dramatically for the non-numeric suites.
    const auto &configs = core::coverageConfigs();
    ASSERT_EQ(configs.size(), 3u);
    for (const char *suite : {"cint2000", "cint2006"}) {
        double c0 = coverage(suite, configs[0].config); // PDOALL d0
        double c1 = coverage(suite, configs[1].config); // HELIX d0
        double c2 = coverage(suite, configs[2].config); // HELIX d1
        EXPECT_GE(c1, c0) << suite;
        EXPECT_GT(c2, c1 * 1.2) << suite;
        EXPECT_GT(c2, 40.0) << suite; // percent
    }
}

TEST_F(PaperShapes, PdoallWinsWhereThePaperSaysItDoes)
{
    // Fig. 4: 179.art, 450.soplex, 482.sphinx and 429.mcf prefer the
    // best PDOALL over the best HELIX.
    const auto pdoall = programSpeedups(core::bestPdoall());
    const auto helix = programSpeedups(core::bestHelix());
    for (const char *name : {"179.art-like", "450.soplex-like",
                             "482.sphinx3-like", "429.mcf-like"})
        EXPECT_GT(pdoall.at(name), helix.at(name)) << name;
}

TEST_F(PaperShapes, LibquantumIsTheOutlier)
{
    // Fig. 4's extreme bar: libquantum dwarfs the rest of CINT2006.
    const auto helix = programSpeedups(core::bestHelix());
    EXPECT_GT(helix.at("462.libquantum-like"), 20.0);
}

} // namespace
} // namespace lp

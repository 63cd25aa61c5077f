/**
 * @file
 * Figure 3: geomean speedups for the numeric suites (EEMBC, SpecFP 2000 &
 * 2006) across the 14 evaluated configurations.
 *
 * Paper reference points (Figure 3 / Section IV text):
 *   DOALL reduc0:     1.6x .. 3.1x across the three suites
 *   DOALL reduc1:     2.2x .. 3.6x
 *   PDOALL r0-d2-f0:  2.9x .. 3.7x
 *   PDOALL r1-d2-f0:  4.0x .. 4.6x
 *   PDOALL r1-d2-f2:  6.0x .. 10.7x (best realistic PDOALL)
 *   PDOALL r0-d3-f3:  10x .. 92x (unrealistic topline)
 *   HELIX r1-d1-f2:   21.6x .. 50.6x
 */

#include "common.hpp"

namespace {

struct PaperRange
{
    double lo;
    double hi;
};

const std::map<std::string, PaperRange> kPaper = {
    {"reduc0-dep0-fn0 DOALL", {1.6, 3.1}},
    {"reduc1-dep0-fn0 DOALL", {2.2, 3.6}},
    {"reduc0-dep0-fn0 PDOALL", {1.6, 3.1}},
    {"reduc0-dep2-fn0 PDOALL", {2.9, 3.7}},
    {"reduc1-dep2-fn0 PDOALL", {4.0, 4.6}},
    {"reduc0-dep0-fn2 PDOALL", {3.1, 6.4}},
    {"reduc0-dep2-fn2 PDOALL", {4.0, 9.8}},
    {"reduc1-dep2-fn2 PDOALL", {6.0, 10.7}},
    {"reduc0-dep3-fn2 PDOALL", {8.0, 44.3}},
    {"reduc0-dep3-fn3 PDOALL", {10.0, 91.9}},
    {"reduc0-dep0-fn2 HELIX", {6.1, 12.0}},
    {"reduc1-dep0-fn2 HELIX", {8.0, 14.5}},
    {"reduc0-dep1-fn2 HELIX", {15.0, 50.6}},
    {"reduc1-dep1-fn2 HELIX", {21.6, 50.6}},
};

} // namespace

int
main()
{
    using namespace lp;
    bench::banner("Figure 3: numeric geomean speedups",
                  "Fig. 3, Section IV");

    const auto &configs = core::paperConfigs();
    auto grid = bench::sweepGrid(suites::numericPrograms(), configs,
                                 {"eembc", "cfp2000", "cfp2006"});

    TextTable t({"configuration", "eembc", "cfp2000", "cfp2006",
                 "paper range"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto &named = configs[c];
        auto ref = kPaper.find(named.label);
        std::string pr = "-";
        if (ref != kPaper.end()) {
            pr = TextTable::num(ref->second.lo, 1) + "-" +
                 TextTable::num(ref->second.hi, 1) + "x";
        }
        t.addRow({named.label, TextTable::num(grid[c][0].speedup) + "x",
                  TextTable::num(grid[c][1].speedup) + "x",
                  TextTable::num(grid[c][2].speedup) + "x", pr});
    }
    t.print(std::cout);

    std::cout << "\nExpected shape: material gains already under DOALL,\n"
                 "large steps from reduc1 / dep2 / fn2, an unrealistic\n"
                 "dep3-fn3 topline, and HELIX dep1-fn2 the overall best.\n";
    return 0;
}

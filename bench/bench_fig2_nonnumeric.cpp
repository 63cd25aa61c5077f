/**
 * @file
 * Figure 2: geomean speedups for the non-numeric suites (SpecINT 2000 &
 * 2006) across the 14 evaluated configurations.
 *
 * Paper reference points (read off Figure 2 / Section IV):
 *   DOALL rows:            1.1x (int2000) .. 1.3x (int2006)
 *   PDOALL dep2 rows:      1.2x .. 1.6x
 *   PDOALL dep2-fn2 rows:  1.2x .. 2.0x
 *   PDOALL dep3-fn3:       2.0x .. 2.6x
 *   HELIX dep0-fn2:        ~2.2x both
 *   HELIX reduc1-dep1-fn2: 4.6x (int2000), 7.2x (int2006)
 */

#include "common.hpp"

namespace {

struct PaperRow
{
    const char *label;
    double int2000;
    double int2006;
};

/** Paper Figure 2 values (approximate where the figure only shows bars). */
const std::map<std::string, PaperRow> kPaper = {
    {"reduc0-dep0-fn0 DOALL", {"", 1.1, 1.3}},
    {"reduc1-dep0-fn0 DOALL", {"", 1.1, 1.3}},
    {"reduc0-dep0-fn0 PDOALL", {"", 1.1, 1.3}},
    {"reduc0-dep2-fn0 PDOALL", {"", 1.2, 1.6}},
    {"reduc1-dep2-fn0 PDOALL", {"", 1.2, 1.6}},
    {"reduc0-dep0-fn2 PDOALL", {"", 1.1, 1.4}},
    {"reduc0-dep2-fn2 PDOALL", {"", 1.2, 2.0}},
    {"reduc1-dep2-fn2 PDOALL", {"", 1.2, 2.0}},
    {"reduc0-dep3-fn2 PDOALL", {"", 1.8, 2.3}},
    {"reduc0-dep3-fn3 PDOALL", {"", 2.0, 2.6}},
    {"reduc0-dep0-fn2 HELIX", {"", 2.2, 2.2}},
    {"reduc1-dep0-fn2 HELIX", {"", 2.2, 2.3}},
    {"reduc0-dep1-fn2 HELIX", {"", 4.3, 7.1}},
    {"reduc1-dep1-fn2 HELIX", {"", 4.6, 7.2}},
};

} // namespace

int
main()
{
    using namespace lp;
    bench::banner("Figure 2: non-numeric geomean speedups",
                  "Fig. 2, Section IV");

    const auto &configs = core::paperConfigs();
    auto grid = bench::sweepGrid(suites::nonNumericPrograms(), configs,
                                 {"cint2000", "cint2006"});

    TextTable t({"configuration", "cint2000", "paper", "cint2006",
                 "paper"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto &named = configs[c];
        auto ref = kPaper.find(named.label);
        std::string p2000 = "-", p2006 = "-";
        if (ref != kPaper.end()) {
            p2000 = TextTable::num(ref->second.int2000, 1) + "x";
            p2006 = TextTable::num(ref->second.int2006, 1) + "x";
        }
        t.addRow({named.label, TextTable::num(grid[c][0].speedup) + "x",
                  p2000, TextTable::num(grid[c][1].speedup) + "x",
                  p2006});
    }
    t.print(std::cout);

    std::cout << "\nExpected shape: flat ~1.1-1.3x through DOALL and the\n"
                 "dep0/dep2 PDOALL rows, a bump at dep3-fn3, and the\n"
                 "decisive jump at the HELIX dep1 rows (4-7x), with\n"
                 "cint2006 above cint2000 there.\n";
    return 0;
}

/**
 * @file
 * Figure 5: geomean dynamic coverage (fraction of dynamic instructions
 * inside parallelized loops) for the three configurations the paper
 * compares: PDOALL reduc0-dep0-fn2, HELIX reduc0-dep0-fn2 and HELIX
 * reduc0-dep1-fn2.
 *
 * The paper's point: the HELIX configurations dramatically raise
 * coverage (especially for the non-numeric suites, via dep1), and — per
 * Amdahl — coverage, not per-loop speedup, is what drives the Figure 2
 * gains.
 */

#include "common.hpp"

int
main()
{
    using namespace lp;
    bench::banner("Figure 5: dynamic coverage for selected configurations",
                  "Fig. 5, Section IV");

    const std::vector<std::string> suitesOrder = {
        "eembc", "cint2006", "cint2000", "cfp2006", "cfp2000"};
    const auto &configs = core::coverageConfigs();
    auto grid =
        bench::sweepGrid(suites::allPrograms(), configs, suitesOrder);

    TextTable t({"configuration", "eembc", "cint2006", "cint2000",
                 "cfp2006", "cfp2000"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<std::string> row = {configs[c].label};
        for (std::size_t s = 0; s < suitesOrder.size(); ++s)
            row.push_back(TextTable::num(grid[c][s].coverage, 1) + "%");
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout << "\nExpected shape (paper Fig. 5): coverage rises from\n"
                 "PDOALL dep0-fn2 to HELIX dep0-fn2, and jumps again at\n"
                 "HELIX dep1-fn2, most dramatically for cint2000/cint2006.\n";
    return 0;
}

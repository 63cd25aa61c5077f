/**
 * @file
 * Ablation A2: HELIX (one synchronization per distinct LCD) vs classic
 * single-sync DOACROSS (one window from first consumer to last producer).
 *
 * Section II-C of the paper: "HELIX instead allows support for multiple
 * synchronization points, one for each distinct memory LCD ... thereby
 * potentially exposing more parallelism."  This harness quantifies that
 * claim over our suites: the DOACROSS column must never beat HELIX, and
 * the gap should be widest for the non-numeric suites (many distinct
 * LCDs per loop).
 */

#include "common.hpp"

int
main()
{
    using namespace lp;
    bench::banner("Ablation: HELIX multi-sync vs classic DOACROSS",
                  "Section II-C");

    rt::LPConfig helix = core::bestHelix();
    rt::LPConfig doacross = helix;
    doacross.singleSyncDoacross = true;

    // LPConfig::str() omits singleSyncDoacross: label the rows.
    const std::vector<std::string> suitesOrder = {
        "eembc", "cfp2000", "cfp2006", "cint2000", "cint2006"};
    auto grid = bench::sweepGrid(suites::allPrograms(),
                                 {{"HELIX", helix}, {"DOACROSS", doacross}},
                                 suitesOrder);

    TextTable t({"suite", "HELIX (multi-sync)", "DOACROSS (single-sync)",
                 "HELIX advantage"});
    for (std::size_t s = 0; s < suitesOrder.size(); ++s) {
        double h = grid[0][s].speedup;
        double d = grid[1][s].speedup;
        t.addRow({suitesOrder[s], TextTable::num(h) + "x",
                  TextTable::num(d) + "x", TextTable::num(h / d) + "x"});
    }
    t.print(std::cout);
    std::cout << "\nExpected: DOACROSS <= HELIX everywhere; the paper's\n"
                 "argument for generalized synchronization holds whenever\n"
                 "the advantage column exceeds 1.\n";
    return 0;
}

/**
 * @file
 * Ablation A4: the Partial-DOALL serialization threshold.
 *
 * Section III-B: "when the number of conflicting iterations exceeds 80%
 * of the total number of iterations, the loop is marked as sequential."
 * This harness sweeps that threshold to show the paper's choice sits on
 * a plateau: by the time a loop conflicts in most iterations, speculation
 * has already lost — the exact cut-off barely matters.
 */

#include "common.hpp"

int
main()
{
    using namespace lp;
    bench::banner("Ablation: PDOALL serialization-threshold sweep",
                  "Section III-B");

    const double thresholds[] = {0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0};
    const std::vector<std::string> suitesOrder = {
        "eembc", "cfp2000", "cfp2006", "cint2000", "cint2006"};

    // LPConfig::str() omits the threshold: label each row with it.
    std::vector<core::NamedConfig> configs;
    for (double th : thresholds) {
        rt::LPConfig cfg = core::bestPdoall();
        cfg.pdoallSerialThreshold = th;
        configs.push_back(
            {TextTable::num(th * 100, 0) + "%", cfg});
    }
    auto grid =
        bench::sweepGrid(suites::allPrograms(), configs, suitesOrder);

    TextTable t({"threshold", "eembc", "cfp2000", "cfp2006", "cint2000",
                 "cint2006"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<std::string> row = {configs[c].label};
        for (std::size_t s = 0; s < suitesOrder.size(); ++s)
            row.push_back(TextTable::num(grid[c][s].speedup) + "x");
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "\nExpected: a rise from very strict thresholds (which\n"
                 "discard mostly-clean loops over a few conflicts) to a\n"
                 "plateau around the paper's 80% operating point.\n";
    return 0;
}

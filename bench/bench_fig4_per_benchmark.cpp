/**
 * @file
 * Figure 4: per-benchmark speedups for every SPEC program under the best
 * realistic PDOALL configuration (reduc1-dep2-fn2) and the best HELIX
 * configuration (reduc1-dep1-fn2).
 *
 * The paper's key qualitative findings reproduced here:
 *  - HELIX wins broadly across the non-numeric programs;
 *  - a handful of speculation-friendly programs prefer PDOALL
 *    (179.art, 429.mcf, 450.soplex, 482.sphinx in the paper);
 *  - 462.libquantum is the extreme outlier.
 */

#include "common.hpp"

#include <set>

int
main()
{
    using namespace lp;
    bench::banner("Figure 4: per-benchmark best PDOALL vs best HELIX",
                  "Fig. 4, Section IV");

    // All SPEC suites (Figure 4 excludes EEMBC).
    const std::vector<std::string> suitesOrder = {"cfp2000", "cfp2006",
                                                  "cint2000", "cint2006"};
    std::vector<core::BenchProgram> progs;
    for (const auto &p : suites::allPrograms())
        if (p.suite != "eembc")
            progs.push_back(p);

    const rt::LPConfig pdoall = core::bestPdoall();
    const rt::LPConfig helix = core::bestHelix();
    auto grid = bench::sweepGrid(
        progs, {{pdoall.str(), pdoall}, {helix.str(), helix}},
        suitesOrder);

    // Programs the paper singles out as PDOALL-preferring.
    const std::set<std::string> paperPdoallWins = {
        "179.art-like", "429.mcf-like", "450.soplex-like",
        "482.sphinx3-like"};

    TextTable t({"benchmark", "suite", "PDOALL best", "HELIX best",
                 "winner", "paper winner"});
    int agree = 0, total = 0;
    for (std::size_t s = 0; s < suitesOrder.size(); ++s) {
        for (std::size_t i = 0; i < grid[0][s].reports.size(); ++i) {
            const std::string name =
                grid[0][s].reports[i].at("program").asString();
            double sp = grid[0][s].reports[i].at("speedup").asDouble();
            double sh = grid[1][s].reports[i].at("speedup").asDouble();
            bool pdoallWins = sp > sh;
            bool paperSaysPdoall = paperPdoallWins.count(name) > 0;
            ++total;
            if (pdoallWins == paperSaysPdoall)
                ++agree;
            t.addRow({name, suitesOrder[s], TextTable::num(sp) + "x",
                      TextTable::num(sh) + "x",
                      pdoallWins ? "PDOALL" : "HELIX",
                      paperSaysPdoall ? "PDOALL" : "HELIX"});
        }
    }
    t.print(std::cout);
    std::cout << "\nwinner agreement with the paper: " << agree << "/"
              << total << " benchmarks\n";
    return 0;
}

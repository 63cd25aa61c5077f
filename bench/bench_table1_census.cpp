/**
 * @file
 * Table I: the measured dependency census.
 *
 * The paper's Table I is a taxonomy; this harness instantiates it with
 * counts measured over our suites: how many loop-carried dependencies of
 * each category actually occur, per suite.  Register LCD predictability
 * is measured with the dep2 hybrid predictor (a phi with >= 90% hit rate
 * counts as "infrequent/predictable", mirroring Section II-A).
 */

#include "common.hpp"

int
main()
{
    using namespace lp;
    bench::banner("Table I: measured dependency census", "Table I");

    // A configuration that tracks everything: PDOALL reduc0-dep2-fn3
    // (reduc0 keeps reductions visible as LCDs; dep2 runs the
    // predictors; fn3 leaves no loop statically serialized by calls).
    rt::LPConfig cfg = rt::LPConfig::parse("reduc0-dep2-fn3",
                                           rt::ExecModel::PartialDoAll);
    const std::vector<std::string> suitesOrder = {
        "eembc", "cfp2000", "cfp2006", "cint2000", "cint2006"};
    auto grid = bench::sweepGrid(suites::allPrograms(),
                                 {{cfg.str(), cfg}}, suitesOrder);

    TextTable t({"suite", "loops", "canonical", "IV/MIV (computable)",
                 "reductions", "predictable reg LCDs",
                 "unpredictable reg LCDs", "freq-mem-LCD loops",
                 "infreq-mem-LCD loops", "loops w/ calls"});

    for (std::size_t s = 0; s < suitesOrder.size(); ++s) {
        std::vector<std::string> row = {suitesOrder[s]};
        for (const char *key :
             {"static_loops", "canonical_loops", "computable_ivs",
              "reductions", "predictable_reg_lcds",
              "unpredictable_reg_lcds", "frequent_mem_lcd_loops",
              "infrequent_mem_lcd_loops", "loops_with_calls"}) {
            std::uint64_t total = 0;
            for (const obs::Json &rep : grid[0][s].reports)
                total += rep.at("census").at(key).asU64();
            row.push_back(std::to_string(total));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    std::cout <<
        "\nPaper Table I shape: numeric suites dominated by computable\n"
        "IVs/MIVs and reductions with infrequent memory LCDs; the\n"
        "non-numeric suites add frequent memory LCDs, unpredictable\n"
        "register LCDs and call-carrying (structural-hazard) loops.\n";
    return 0;
}

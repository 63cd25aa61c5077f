/**
 * @file
 * Shared helpers for the per-figure bench harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper: it
 * runs the registered benchmark suites under the relevant configurations
 * and prints measured values next to the paper's reported values (or
 * reported ranges, where the figure only resolves to a range).
 */

#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "obs/json.hpp"
#include "rt/report.hpp"
#include "suites/registry.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace lp::bench {

/** Banner printed by every harness. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::cout << "==========================================================\n"
              << "Loopapalooza reproduction — " << what << "\n"
              << "Paper: Zaidi et al., ISPASS 2021 (" << paperRef << ")\n"
              << "Costs are dynamic IR instruction counts; infinite-"
                 "resource limit study.\n"
              << "==========================================================\n";
}

/** One (configuration, suite) row of a sweep. */
struct SweepCell
{
    double speedup = 0.0;  ///< geomean speedup
    double coverage = 0.0; ///< geomean coverage, percent
    /** The row's per-program report JSON, in registration order. */
    std::vector<obs::Json> reports;
};

/**
 * Sweep @p configs over @p programs through core::runSweep, strictly
 * (the first failing cell aborts the harness) and with its table
 * discarded, and return grid[c][s] for configs[c] x suitesOrder[s],
 * read from the sweep document's "suites" rows and "reports".  Honors
 * --jobs / LP_JOBS via exec::defaultJobs().
 */
inline std::vector<std::vector<SweepCell>>
sweepGrid(const std::vector<core::BenchProgram> &programs,
          const std::vector<core::NamedConfig> &configs,
          const std::vector<std::string> &suitesOrder)
{
    core::SweepRequest req;
    req.configs = configs;
    req.keepGoing = false;
    req.wantJson = true;
    std::ostream discard(nullptr);
    const obs::Json doc = core::runSweep(programs, req, discard).document;

    std::vector<std::vector<SweepCell>> grid(
        configs.size(), std::vector<SweepCell>(suitesOrder.size()));
    const obs::Json &rows = doc.at("suites");
    const obs::Json &reports = doc.at("reports");
    const std::size_t suitesPerConfig = rows.size() / configs.size();
    std::size_t next = 0; // reports come in row order
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const obs::Json &row = rows.at(r);
        SweepCell cell{row.at("geomean_speedup").asDouble(),
                       row.at("geomean_coverage_pct").asDouble(),
                       {}};
        const std::uint64_t cells = row.at("ok").asU64() +
                                    row.at("failed").asU64() +
                                    row.at("skipped").asU64();
        for (std::uint64_t k = 0; k < cells; ++k)
            cell.reports.push_back(reports.at(next++));
        // Rows are configuration-major, in configs order.
        const std::size_t c = r / suitesPerConfig;
        const std::size_t s =
            std::find(suitesOrder.begin(), suitesOrder.end(),
                      row.at("suite").asString()) -
            suitesOrder.begin();
        if (s < suitesOrder.size())
            grid[c][s] = std::move(cell);
    }
    return grid;
}

/**
 * Where a harness named @p bench writes its machine-readable results:
 * $BENCH_JSON_DIR/BENCH_<bench>.json, defaulting to the current
 * directory.  These files seed the repo's perf trajectory — one per
 * bench run, diffable across PRs.
 */
inline std::string
benchJsonPath(const std::string &bench)
{
    std::string dir = ".";
    if (const char *env = std::getenv("BENCH_JSON_DIR"))
        dir = env;
    return dir + "/BENCH_" + bench + ".json";
}

/** Pretty-print @p doc to @p path; returns false when unwritable. */
inline bool
writeJsonFile(const std::string &path, const obs::Json &doc)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << doc.dump(2) << '\n';
    return out.good();
}

} // namespace lp::bench

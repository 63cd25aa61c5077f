#include "fuzz/harness.hpp"

#include <chrono>
#include <ostream>

#include "fuzz/minimize.hpp"

namespace lp::fuzz {

namespace {

/**
 * Does the program from @p seed under @p opts still trip the oracle
 * that originally failed?  The minimizer's predicate: re-run only the
 * failing oracle family, not the whole matrix.
 */
bool
stillFailsOracle(std::uint64_t seed, const GenOptions &gen,
                 const std::string &oracle, const DiffOptions &diffBase)
{
    DiffOptions d = diffBase;
    d.gen = gen;
    for (const DiffFailure &f : runDifferential(seed, d))
        if (f.oracle == oracle)
            return true;
    return false;
}

} // namespace

HarnessResult
runHarness(const HarnessOptions &opts, std::ostream *log)
{
    HarnessResult res;
    auto t0 = std::chrono::steady_clock::now();
    auto overBudget = [&] {
        if (opts.timeBudgetSec <= 0.0)
            return false;
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        return dt.count() >= opts.timeBudgetSec;
    };

    for (std::uint64_t seed = opts.seedBegin; seed < opts.seedEnd;
         ++seed) {
        if (overBudget()) {
            res.budgetExhausted = true;
            break;
        }
        std::vector<DiffFailure> found = runDifferential(seed, opts.diff);
        ++res.seedsRun;
        if (log && opts.verbose)
            *log << "seed " << seed << ": "
                 << (found.empty() ? "ok"
                                   : std::to_string(found.size()) +
                                         " failure(s)")
                 << "\n";
        if (found.empty())
            continue;

        for (const DiffFailure &f : found) {
            if (log)
                *log << "FAIL seed=" << f.seed << " oracle=" << f.oracle
                     << "\n  " << f.detail << "\n  reproduce: "
                     << f.reproLine << "\n";
            res.failures.push_back(f);
        }

        if (opts.minimize && !opts.corpusDir.empty()) {
            // Minimize against the first failing oracle of this seed
            // (one corpus entry per failing seed keeps the corpus
            // readable; the .repro names every oracle that fired).
            const DiffFailure &f = found.front();
            MinimizeResult m = minimizeOptions(
                opts.diff.gen,
                [&](const GenOptions &g) {
                    return stillFailsOracle(seed, g, f.oracle, opts.diff);
                },
                opts.minimizeBudget);
            std::string name = "seed" + std::to_string(seed) + "_" +
                               f.oracle;
            for (char &c : name)
                if (c == '-')
                    c = '_';
            try {
                std::string path =
                    writeCorpusEntry(opts.corpusDir, name, seed,
                                     m.options, f.oracle, f.detail);
                res.corpusFiles.push_back(path);
                if (log)
                    *log << "  minimized (" << m.evals
                         << " eval(s)) -> " << path << "\n";
            }
            catch (const std::exception &e) {
                if (log)
                    *log << "  corpus write failed: " << e.what()
                         << "\n";
            }
        }
    }
    return res;
}

} // namespace lp::fuzz

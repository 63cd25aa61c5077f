/**
 * @file
 * lp_fuzz — the differential torture harness CLI.
 *
 * Walks a seed range, generating a random loop-nest program per seed
 * and pushing it through every oracle pair: the spec evaluator vs the
 * engine on every cell of the plain and --lint sweeps (each over
 * fuzz::fullGrid(): the paper's 14 configurations plus six ablation
 * lanes, single-sync DOACROSS among them), then the path
 * pairs the framework promises are byte-identical (1 worker vs N,
 * sharded-merged vs unsharded, kill-and-resume vs straight-through),
 * lint static vs dynamic oracle, and PDG verdicts vs the dynamic
 * tracker.
 *
 *   lp_fuzz                               # default: seeds [0, 20)
 *   lp_fuzz --seed-range 0:500            # a 500-seed campaign
 *   lp_fuzz --seed=7 --minimize           # reproduce + shrink one seed
 *   lp_fuzz --time-budget 60              # stop after ~60 s
 *   lp_fuzz --fault-schedule replay:3     # compose with guard::fault
 *   lp_fuzz --corpus DIR                  # where minimized entries land
 *   lp_fuzz --jobs-n 8 --shards 4         # pair parameters
 *
 * Exit code: 0 = clean campaign, 1 = at least one divergence (every
 * failure line names the seed and the exact repro command).
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/harness.hpp"
#include "support/error.hpp"

namespace {

void
usage()
{
    std::cout
        << "usage: lp_fuzz [options]\n"
           "  --seed-range A:B     fuzz seeds A..B-1 (default 0:20)\n"
           "  --seed=S             fuzz exactly seed S\n"
           "  --time-budget SEC    stop starting new seeds after SEC\n"
           "  --fault-schedule SITE:NTH\n"
           "                       arm guard::fault before every run\n"
           "                       (io/replay: byte-identity must\n"
           "                       survive; others: repeat-determinism)\n"
           "  --no-lint            skip the --lint sweep: its spec\n"
           "                       check and the lint / oracle pairs\n"
           "  --minimize           shrink failures, write corpus entries\n"
           "  --corpus DIR         corpus directory (default\n"
           "                       tests/fuzz_corpus under the source\n"
           "                       tree only when built in-tree;\n"
           "                       required with --minimize otherwise)\n"
           "  --jobs-n N           worker count of the jobs pair "
           "(default 4)\n"
           "  --shards N           shard count of the shard pair "
           "(default 3)\n"
           "  --scratch DIR        scratch dir for checkpoint files\n"
           "  --verbose            per-seed progress\n";
}

std::uint64_t
parseU64(const std::string &s, const char *what)
{
    try {
        std::size_t pos = 0;
        std::uint64_t v = std::stoull(s, &pos);
        if (pos != s.size())
            throw std::invalid_argument(s);
        return v;
    }
    catch (const std::exception &) {
        std::cerr << "lp_fuzz: bad " << what << " '" << s << "'\n";
        std::exit(2);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    lp::fuzz::HarnessOptions opts;

    auto needValue = [&](int &i, const std::string &flag) {
        if (i + 1 >= argc) {
            std::cerr << "lp_fuzz: " << flag << " needs a value\n";
            std::exit(2);
        }
        return std::string(argv[++i]);
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        }
        if (a == "--seed-range") {
            std::string spec = needValue(i, a);
            std::size_t colon = spec.find(':');
            if (colon == std::string::npos) {
                std::cerr << "lp_fuzz: --seed-range wants A:B\n";
                return 2;
            }
            opts.seedBegin =
                parseU64(spec.substr(0, colon), "seed range begin");
            opts.seedEnd =
                parseU64(spec.substr(colon + 1), "seed range end");
            continue;
        }
        if (a.rfind("--seed=", 0) == 0) {
            opts.seedBegin = parseU64(a.substr(sizeof("--seed=") - 1),
                                      "seed");
            opts.seedEnd = opts.seedBegin + 1;
            continue;
        }
        if (a == "--time-budget") {
            opts.timeBudgetSec = static_cast<double>(
                parseU64(needValue(i, a), "time budget"));
            continue;
        }
        if (a == "--fault-schedule") {
            std::string spec = needValue(i, a);
            std::size_t colon = spec.find(':');
            if (colon == std::string::npos) {
                std::cerr << "lp_fuzz: --fault-schedule wants "
                             "SITE:NTH\n";
                return 2;
            }
            opts.diff.faultSite = spec.substr(0, colon);
            opts.diff.faultNth =
                parseU64(spec.substr(colon + 1), "fault nth");
            continue;
        }
        if (a == "--no-lint") {
            opts.diff.lintOracle = false;
            continue;
        }
        if (a == "--minimize") {
            opts.minimize = true;
            continue;
        }
        if (a == "--corpus") {
            opts.corpusDir = needValue(i, a);
            continue;
        }
        if (a == "--jobs-n") {
            opts.diff.jobsN = static_cast<unsigned>(
                parseU64(needValue(i, a), "jobs-n"));
            continue;
        }
        if (a == "--shards") {
            opts.diff.shards = static_cast<unsigned>(
                parseU64(needValue(i, a), "shards"));
            continue;
        }
        if (a == "--scratch") {
            opts.diff.scratchDir = needValue(i, a);
            continue;
        }
        if (a == "--verbose") {
            opts.verbose = true;
            continue;
        }
        std::cerr << "lp_fuzz: unknown option '" << a << "'\n";
        usage();
        return 2;
    }

#ifdef LP_SOURCE_DIR
    if (opts.minimize && opts.corpusDir.empty())
        opts.corpusDir = std::string(LP_SOURCE_DIR) + "/tests/fuzz_corpus";
#endif
    if (opts.minimize && opts.corpusDir.empty()) {
        std::cerr << "lp_fuzz: --minimize needs --corpus DIR\n";
        return 2;
    }

    lp::fuzz::HarnessResult res =
        lp::fuzz::runHarness(opts, &std::cerr);

    std::cout << "lp_fuzz: " << res.seedsRun << " seed(s), "
              << res.failures.size() << " failure(s)";
    if (res.budgetExhausted)
        std::cout << " (time budget exhausted)";
    std::cout << "\n";
    for (const std::string &f : res.corpusFiles)
        std::cout << "corpus: " << f << "\n";
    if (!res.ok()) {
        std::cout << "reproduce each failure with the printed "
                     "`lp_fuzz --seed=S --minimize` line\n";
        return 1;
    }
    return 0;
}
